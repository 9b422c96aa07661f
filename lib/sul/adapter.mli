(** The protocol Adapter (paper §3.2).

    An Adapter owns the translation pair (α, γ): it concretizes
    abstract learner symbols into real packets via a reference
    implementation, transmits them to the target Implementation,
    abstracts the responses, and records the exchanges of the words
    asked through {!query} in the Oracle Table. The five
    instrumentation properties of §3.2 are enforced by the
    protocol-specific constructors (see [Prognosis_tcp.Tcp_adapter] and
    [Prognosis_quic.Quic_adapter]); this module captures what they
    share. *)

type ('ai, 'ao, 'ci, 'co) t = {
  inputs : 'ai array;  (** the abstract input alphabet *)
  reset : unit -> unit;
      (** property (3): return reference and target to their initial state *)
  step : 'ai -> 'ao * 'ci list * 'co list;
      (** one abstract step; also reports the concrete packets sent to and
          received from the Implementation during the step *)
  table : ('ai, 'ao, 'ci, 'co) Oracle_table.t;
      (** property (4): the historic Oracle Table *)
  description : string;
}

val create :
  ?description:string ->
  inputs:'ai array ->
  reset:(unit -> unit) ->
  step:('ai -> 'ao * 'ci list * 'co list) ->
  unit ->
  ('ai, 'ao, 'ci, 'co) t

val query : ('ai, 'ao, 'ci, 'co) t -> 'ai list -> 'ao list
(** Resets, runs a whole abstract input word and records the resulting
    abstract/concrete trace pair in the Oracle Table. This is the only
    writer of the table: it holds exactly the words asked through
    [query] (the witness queries synthesis and the trace checks ask),
    never the learner's membership queries. *)

val to_sul : ('ai, 'ao, 'ci, 'co) t -> ('ai, 'ao) Sul.t
(** The learner's view over the adapter's alphabet: step [i] runs the
    adapter's [step] on [inputs.(i)] and drops the concrete packets;
    nothing is recorded. Answers are those of
    {!query}. The protocol [sul] constructors ([Tcp_adapter.sul],
    [Dtls_adapter.sul], [Quic_adapter.sul], [Tcp_client_study.sul])
    are this view of a fresh adapter; they back every learn (the
    engine's workers), fleet session and identification. *)
