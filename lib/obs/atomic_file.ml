(* Atomic whole-file writes: a temp file in the target directory,
   fsynced, then renamed over the target, and the directory fsynced.
   Every report, trace, model and checkpoint writer goes through here,
   so a crash mid-write never leaves a truncated artifact where a
   complete one is expected. Temp
   names are [path.<pid>.<n>.tmp]: the pid separates processes, the
   counter the writes of one process, so concurrent writers of one
   path never share a temp file. *)

let next = Atomic.make 0

(* The rename is itself a directory update: without a sync of the
   directory a power loss can lose it. Some filesystems refuse to
   fsync a directory (EINVAL); there the rename is as durable as they
   can make it. *)
let sync_dir path =
  let fd =
    Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

let with_out ~path f =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add next 1)
  in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
  in
  let r =
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
  in
  sync_dir path;
  r

let write ~path contents = with_out ~path (fun oc -> output_string oc contents)

let write_lines ~path lines =
  let buf = Buffer.create 4096 in
  List.iter
    (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    lines;
  write ~path (Buffer.contents buf)
