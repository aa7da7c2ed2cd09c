(** Randomized auditing: many seeded runs with random schedules,
    inputs and failure injections, each checked against the taxonomy's
    properties.  Complements {!Explore} where exhaustive exploration
    is too large (e.g. the 7-processor tree protocol with failures). *)

open Patterns_sim
open Patterns_protocols

type report = {
  runs : int;
  failures_injected : int;
  tc_violations : int;
  ic_violations : int;
  agreement_violations : int;  (** nonfaulty deciders disagree *)
  wt_incomplete : int;  (** a nonfaulty processor never decided *)
  rule_violations : int;
  non_quiescent : int;
  messages_total : int;
  sample_violation : string option;
}

val random_audit :
  ?max_failures:int ->
  ?max_steps:int ->
  ?fifo_notices:bool ->
  rule:Decision_rule.t ->
  n:int ->
  runs:int ->
  seed:int ->
  (module Protocol.S) ->
  report
(** Each run draws an input vector, up to [max_failures] failure
    injections (random victim, random step), and a schedule flavour —
    uniform random, notice-first adversarial, or LIFO — then applies
    every trace-level checker.  [fifo_notices] selects the fail-stop
    delivery discipline (see {!Patterns_sim.Engine}); the paper's
    unordered default is [false]. *)

(** The property a violation hunt ([Patterns_adversary.Hunt]) looks
    for: total or interactive consistency, nonfaulty agreement, weak
    termination, or conformance to the decision rule. *)
type property = TC | IC | Agreement | WT | Rule

val clean : report -> bool
(** No violations and every run quiesced with all nonfaulty decided. *)

val pp : Format.formatter -> report -> unit
