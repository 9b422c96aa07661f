(** Atomic whole-file writes (unique temp file + fsync + rename). A
    reader never observes a partially written file: it sees either the
    previous content or the new one. Writers racing on one path, from
    any domains or processes, each get their own temp file; the last
    rename wins, and the file holds that writer's complete content. *)

val with_out : path:string -> (out_channel -> 'a) -> 'a
(** [with_out ~path f] runs [f] on a binary channel to a temp file
    [path.<pid>.<n>.tmp] (mode 0644 before the umask), unique to this
    write, fsyncs it and renames it over [path]. If [f], the sync or
    the rename raises, the temp file is removed and the exception
    re-raised; [path] is untouched.
    @raise Sys_error when the temp file cannot be created. *)

val write : path:string -> string -> unit
(** [write ~path contents] is {!with_out} writing [contents]. *)

val write_lines : path:string -> string list -> unit
(** [write_lines ~path lines] atomically writes [lines], each
    terminated by a newline. *)
