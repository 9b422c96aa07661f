(* Atomic whole-file writes: a temp file in the target directory,
   fsynced, then renamed over the target. Every report, trace, model
   and checkpoint writer goes through here, so a crash mid-write never
   leaves a truncated artifact where a complete one is expected. Temp
   names are [path.<pid>.<n>.tmp]: the pid separates processes, the
   counter the writes of one process, so concurrent writers of one
   path never share a temp file. *)

let next = Atomic.make 0

let with_out ~path f =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add next 1)
  in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
  in
  try
    let r = f oc in
    flush oc;
    Unix.fsync (Unix.descr_of_out_channel oc);
    close_out oc;
    Sys.rename tmp path;
    r
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write ~path contents = with_out ~path (fun oc -> output_string oc contents)

let write_lines ~path lines =
  let buf = Buffer.create 4096 in
  List.iter
    (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    lines;
  write ~path (Buffer.contents buf)
