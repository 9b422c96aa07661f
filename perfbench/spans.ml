(* Outside-in span recorder.

   Spans are recorded by the benchmark around calls into the public
   functions each layer exposes; nothing inside the library is
   instrumented. Each domain appends to its own in-memory buffer
   (struct-of-arrays, no allocation per span), so a fleet is traced at
   the domain count it runs at. A span holds its name, the operation
   (learn or session) it belongs to, its parent in the same buffer,
   start and end times, and the domain's minor-word counter at both
   ends. Buffers are drained at operation boundaries, when no span is
   open and every other domain has ended. *)

let on = ref false
let now () = Int64.to_int (Monotonic_clock.now ())

type buf = {
  domain : int;
  mutable n : int;
  mutable cur : int;  (** innermost open span, [-1] at top level *)
  mutable name : int array;
  mutable op : int array;
  mutable parent : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable w0 : float array;
  mutable w1 : float array;
}

let lock = Mutex.create ()
let buffers : buf list ref = ref []

let fresh domain =
  let cap = 4096 in
  {
    domain;
    n = 0;
    cur = -1;
    name = Array.make cap 0;
    op = Array.make cap 0;
    parent = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    w0 = Array.make cap 0.;
    w1 = Array.make cap 0.;
  }

let key =
  Domain.DLS.new_key (fun () ->
      let b = fresh (Domain.self () :> int) in
      Mutex.protect lock (fun () -> buffers := b :: !buffers);
      b)

let grow b =
  let cap = 2 * Array.length b.name in
  let gi a = Array.append a (Array.make (cap - Array.length a) 0) in
  let gf a = Array.append a (Array.make (cap - Array.length a) 0.) in
  b.name <- gi b.name;
  b.op <- gi b.op;
  b.parent <- gi b.parent;
  b.t0 <- gi b.t0;
  b.t1 <- gi b.t1;
  b.w0 <- gf b.w0;
  b.w1 <- gf b.w1

let enter b id op =
  if b.n = Array.length b.name then grow b;
  let i = b.n in
  b.n <- i + 1;
  b.name.(i) <- id;
  b.op.(i) <- op;
  b.parent.(i) <- b.cur;
  b.cur <- i;
  b.w0.(i) <- Gc.minor_words ();
  b.t0.(i) <- now ();
  i

let leave b i =
  b.t1.(i) <- now ();
  b.w1.(i) <- Gc.minor_words ();
  b.cur <- b.parent.(i)

let with_span1 id op f x =
  if not !on then f x
  else begin
    let b = Domain.DLS.get key in
    let i = enter b id op in
    match f x with
    | v ->
        leave b i;
        v
    | exception e ->
        leave b i;
        raise e
  end

let with_span id op f = with_span1 id op f ()

type span = {
  s_domain : int;
  s_index : int;
  s_name : int;
  s_op : int;
  s_parent : int;
  start_ns : int;
  end_ns : int;
  self_ns : int;  (** duration minus the children's durations *)
  self_words : float;  (** minor words minus the children's *)
}

(* Calls [emit] once per recorded span, then empties the caller's buffer
   and forgets the others. Only call while no span is open and every
   other domain that recorded spans has ended (a fleet has joined). *)
let drain emit =
  let mine = Domain.DLS.get key in
  Mutex.protect lock (fun () ->
      List.iter
        (fun b ->
          let child_ns = Array.make b.n 0 and child_w = Array.make b.n 0. in
          for i = b.n - 1 downto 0 do
            let p = b.parent.(i) in
            if p >= 0 then begin
              child_ns.(p) <- child_ns.(p) + (b.t1.(i) - b.t0.(i));
              child_w.(p) <- child_w.(p) +. (b.w1.(i) -. b.w0.(i))
            end
          done;
          for i = 0 to b.n - 1 do
            emit
              {
                s_domain = b.domain;
                s_index = i;
                s_name = b.name.(i);
                s_op = b.op.(i);
                s_parent = b.parent.(i);
                start_ns = b.t0.(i);
                end_ns = b.t1.(i);
                self_ns = b.t1.(i) - b.t0.(i) - child_ns.(i);
                self_words = b.w1.(i) -. b.w0.(i) -. child_w.(i);
              }
          done;
          b.n <- 0;
          b.cur <- -1)
        !buffers;
      buffers := [ mine ])
