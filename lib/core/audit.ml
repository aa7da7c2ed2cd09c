open Patterns_sim
open Patterns_stdx

type report = {
  runs : int;
  failures_injected : int;
  tc_violations : int;
  ic_violations : int;
  agreement_violations : int;
  wt_incomplete : int;
  rule_violations : int;
  non_quiescent : int;
  messages_total : int;
  sample_violation : string option;
}

let random_audit ?(max_failures = 2) ?(max_steps = 100_000) ?(fifo_notices = false) ~rule ~n
    ~runs ~seed (module P : Protocol.S) =
  let module E = Engine.Make (P) in
  let prng = Prng.create ~seed in
  let acc =
    ref
      {
        runs;
        failures_injected = 0;
        tc_violations = 0;
        ic_violations = 0;
        agreement_violations = 0;
        wt_incomplete = 0;
        rule_violations = 0;
        non_quiescent = 0;
        messages_total = 0;
        sample_violation = None;
      }
  in
  let note cell = function
    | Ok () -> ()
    | Error msg ->
      acc := cell !acc;
      if !acc.sample_violation = None then acc := { !acc with sample_violation = Some msg }
  in
  for _run = 1 to runs do
    let inputs = List.init n (fun _ -> Prng.bool prng) in
    let n_failures = Prng.int prng ~bound:(max_failures + 1) in
    let failures =
      List.init n_failures (fun _ -> (Prng.int prng ~bound:60, Prng.int prng ~bound:n))
    in
    let scheduler =
      (* mix schedule flavours: uniform random, notice-first
         adversarial, and deterministic LIFO *)
      match Prng.int prng ~bound:3 with
      | 0 -> E.random_scheduler (Prng.split prng)
      | 1 -> E.notice_first_scheduler (Prng.split prng)
      | _ -> E.lifo_scheduler
    in
    let r = E.run ~max_steps ~failures ~fifo_notices ~scheduler ~n ~inputs () in
    let failed_list = Trace.failures r.E.trace in
    acc :=
      {
        !acc with
        failures_injected = !acc.failures_injected + List.length failed_list;
        messages_total = !acc.messages_total + Trace.message_count r.E.trace;
      };
    if not r.E.quiescent then acc := { !acc with non_quiescent = !acc.non_quiescent + 1 };
    note (fun a -> { a with tc_violations = a.tc_violations + 1 }) (Check.total_consistency r.E.trace);
    note
      (fun a -> { a with ic_violations = a.ic_violations + 1 })
      (Check.interactive_consistency r.E.trace);
    note
      (fun a -> { a with agreement_violations = a.agreement_violations + 1 })
      (Check.nonfaulty_agreement r.E.trace);
    note
      (fun a -> { a with rule_violations = a.rule_violations + 1 })
      (Check.decision_rule rule ~inputs r.E.trace);
    let failed = Array.make n false in
    List.iter (fun p -> failed.(p) <- true) failed_list;
    note
      (fun a -> { a with wt_incomplete = a.wt_incomplete + 1 })
      (Check.weak_termination ~quiescent:r.E.quiescent ~statuses:(E.statuses r.E.final)
         ~ever_decided:(Check.ever_decided ~n r.E.trace) ~failed)
  done;
  !acc

let clean r =
  r.tc_violations = 0 && r.ic_violations = 0 && r.agreement_violations = 0
  && r.wt_incomplete = 0 && r.rule_violations = 0 && r.non_quiescent = 0

let pp ppf r =
  Format.fprintf ppf
    "@[<v>runs=%d failures=%d msgs=%d@,\
    \ tc=%d ic=%d agreement=%d wt-incomplete=%d rule=%d non-quiescent=%d%s@]"
    r.runs r.failures_injected r.messages_total r.tc_violations r.ic_violations
    r.agreement_violations r.wt_incomplete r.rule_violations r.non_quiescent
    (match r.sample_violation with None -> "" | Some s -> "\n first: " ^ s)

type property = TC | IC | Agreement | WT | Rule
