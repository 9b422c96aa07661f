(** The protocol Adapter (paper §3.2).

    An Adapter owns the translation pair (α, γ): it concretizes
    abstract learner symbols into real packets via a reference
    implementation, transmits them to the target Implementation,
    abstracts the responses, and records every exchange in the Oracle
    Table. The five instrumentation properties of §3.2 are enforced by
    the protocol-specific constructors (see [Prognosis_tcp.Tcp_adapter]
    and [Prognosis_quic.Quic_adapter]); this module captures what they
    share. *)

type ('ai, 'ao, 'ci, 'co) t = {
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
  reset:(unit -> unit) ->
  step:('ai -> 'ao * 'ci list * 'co list) ->
  unit ->
  ('ai, 'ao, 'ci, 'co) t

val query : ('ai, 'ao, 'ci, 'co) t -> 'ai list -> 'ao list
(** Resets, runs a whole abstract input word and records the resulting
    abstract/concrete trace pair in the Oracle Table. *)

val to_sul : ('ai, 'ao, 'ci, 'co) t -> ('ai, 'ao) Sul.t
(** View for the learner. Concrete packets stay hidden, but each query
    (delimited by resets) is still recorded in the Oracle Table when it
    completes, so synthesis can mine it later. The study pipelines
    ([Tcp_study], [Quic_study], [Dtls_study]) learn through this view
    by default, as the one worker of a sequential engine (which never
    resumes mid-word, so every query is delimited by a reset): they
    return the adapter, so its table is readable and feeds
    synthesis. *)

val to_sul_unrecorded : ('ai, 'ao, 'ci, 'co) t -> ('ai, 'ao) Sul.t
(** The same view without the Oracle Table: each step runs the
    adapter's [step] and drops the concrete packets, and nothing is
    recorded. Answers are those of {!to_sul}. The protocol [sul]
    constructors ([Tcp_adapter.sul], [Dtls_adapter.sul],
    [Quic_adapter.sul], [Tcp_client_study.sul]) use it: they keep no
    handle on the adapter, so a table they filled could never be read.
    Their SULs back the engine workers, fleet sessions and
    identification. *)
