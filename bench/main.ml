(* Reproduction harness: one section per artifact of the paper
   (Figures 1-4, Theorem 2 / Corollary 6, Theorem 7, the closing
   lattice diagram), followed by Bechamel timings of the underlying
   machinery.  EXPERIMENTS.md records this output against the paper's
   claims.

     dune exec bench/main.exe *)

open Patterns_sim
open Patterns_pattern
open Patterns_core
open Patterns_stdx

(* Worker domains for the parallel sweeps (scheme enumeration,
   classification); --jobs on the command line, 0 = all cores. *)
let jobs = ref 1

(* --quick trims the Bechamel quota and sweep sizes for CI smoke. *)
let quick = ref false

let wall f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  let t1 = Monotonic_clock.now () in
  (r, Int64.to_float (Int64.sub t1 t0) /. 1e9)

let section title =
  Format.printf "@.============================================================@.";
  Format.printf "== %s@." title;
  Format.printf "============================================================@."

let scheme_of (module P : Protocol.S) ~n =
  let module S = Scheme.Make (P) in
  S.scheme ~jobs:!jobs ~n ()

let pattern_profile pats =
  Pattern.Set.elements pats
  |> List.map (fun p -> Pattern.message_count p)
  |> List.sort Int.compare

(* ----- Figure 1 ----- *)

let fig1_section () =
  section "Figure 1: the WT-TC tree protocol (7 processors)";
  let (module P) = Patterns_protocols.Tree_proto.fig1 in
  let module E = Engine.Make (P) in
  let run inputs = E.run ~scheduler:E.fifo_scheduler ~n:7 ~inputs () in
  let commit = run (List.init 7 (fun _ -> true)) in
  let abort = run [ true; true; true; false; true; true; true ] in
  Format.printf "all-ones run:   %d messages, everyone commits: %b@."
    (Trace.message_count commit.E.trace)
    (List.for_all (fun (_, d) -> Decision.equal d Decision.Commit) (Trace.decisions commit.E.trace));
  Format.printf "one-zero run:   %d messages (0-leaf skipped in the down phase), everyone aborts: %b@."
    (Trace.message_count abort.E.trace)
    (List.for_all (fun (_, d) -> Decision.equal d Decision.Abort) (Trace.decisions abort.E.trace));
  let pats, stats = scheme_of (module P) ~n:7 in
  Format.printf "scheme: %d patterns over 128 input vectors [%a]@." (Pattern.Set.cardinal pats)
    Scheme.pp_stats stats;
  Format.printf "  (expected 17: the commit pattern + one abort pattern per subset of 0-leaves)@.";
  let audit =
    Audit.random_audit ~max_failures:2 ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:7
      ~runs:200 ~seed:1984 (module P : Protocol.S)
  in
  Format.printf "failure audit (200 random runs, <=2 crashes): %a@." Audit.pp audit;
  Format.printf "@.%a@." Theorems.pp_evidence (Theorems.theorem8_forward ())

(* ----- Figure 2 ----- *)

let fig2_section () =
  section "Figure 2: the HT-IC centralized protocol";
  let v =
    Classify.classify ~jobs:!jobs ~max_failures:1 ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3
      Patterns_protocols.Central_proto.fig2
  in
  Format.printf "exhaustive classification (n=3, one crash anywhere):@.%a@." Classify.pp v;
  Format.printf "@.%a@." Theorems.pp_evidence (Theorems.theorem8_converse ())

(* ----- Figure 3 ----- *)

let fig3_section () =
  section "Figure 3: the WT-IC chain protocol";
  let pats, _ = scheme_of Patterns_protocols.Chain_proto.fig3 ~n:4 in
  Format.printf "scheme: %d pattern(s) — the paper: \"the only failure-free pattern\"@."
    (Pattern.Set.cardinal pats);
  (match Pattern.Set.elements pats with
  | [ p ] ->
    Format.printf "  %d messages, height %d (votes star into p0, then the decision chain)@."
      (Pattern.message_count p) (Pattern.height p)
  | _ -> ());
  let v =
    Classify.classify ~jobs:!jobs ~max_failures:1 ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3
      Patterns_protocols.Chain_proto.fig3
  in
  Format.printf "exhaustive classification (n=3, one crash anywhere):@.%a@." Classify.pp v;
  Format.printf "@.%a@." Theorems.pp_evidence (Theorems.theorem13_ic ())

(* ----- Figure 4 ----- *)

let fig4_section () =
  section "Figure 4: the four-pattern WT-TC protocol";
  let pats, stats = scheme_of Patterns_protocols.Perverse_proto.fig4 ~n:4 in
  Format.printf "scheme: %d patterns, message counts %s [%a]@." (Pattern.Set.cardinal pats)
    (String.concat ", " (List.map string_of_int (pattern_profile pats)))
    Scheme.pp_stats stats;
  Format.printf "  (expected: 17 base / 18 with m1 / 18 with m2 / 20 with m1,m2,m3)@.";
  let st_pats, _ = scheme_of Patterns_protocols.Perverse_proto.fig4_amnesic ~n:4 in
  Format.printf "amnesic ST attempt: %d patterns, counts %s — equal schemes: %b@."
    (Pattern.Set.cardinal st_pats)
    (String.concat ", " (List.map string_of_int (pattern_profile st_pats)))
    (Scheme.equal_schemes pats st_pats);
  Format.printf "@.%a@." Theorems.pp_evidence (Theorems.theorem13_tc ())

(* ----- Theorem 2 / Corollary 6: the classification table ----- *)

let classification_section () =
  section "Theorem 2 and Corollary 6: exhaustive classification at n=3 (one crash anywhere)";
  let rows =
    [
      ("fig2-central", Patterns_protocols.Central_proto.fig2, Patterns_protocols.Decision_rule.Unanimity);
      ("fig3-chain", Patterns_protocols.Chain_proto.fig3, Patterns_protocols.Decision_rule.Unanimity);
      ("fig3-chain-st", Patterns_protocols.Chain_proto.fig3_amnesic, Patterns_protocols.Decision_rule.Unanimity);
      ("2pc", Patterns_protocols.Two_phase_commit.default, Patterns_protocols.Decision_rule.Unanimity);
      ("coop-2pc [S81]", Patterns_protocols.Coop_2pc.default, Patterns_protocols.Decision_rule.Unanimity);
      ("d2pc", Patterns_protocols.Decentralized_commit.default, Patterns_protocols.Decision_rule.Unanimity);
      ("reliable-bcast", Patterns_protocols.Reliable_broadcast.default, Patterns_protocols.Decision_rule.Broadcast 0);
      ("tree-2pc [ML]", Patterns_protocols.Tree_commit.star 3, Patterns_protocols.Decision_rule.Unanimity);
      ("3pc (tree)", Patterns_protocols.Tree_proto.three_phase_commit 3, Patterns_protocols.Decision_rule.Unanimity);
      ("voting thr-2", Patterns_protocols.Voting_tree.threshold_star ~k:2 3, Patterns_protocols.Decision_rule.Threshold 2);
      ("voting set{0,2}", Patterns_protocols.Voting_tree.subset_star ~quorum:[ 0; 2 ] 3, Patterns_protocols.Decision_rule.Subset [ 0; 2 ]);
      ("termination", Patterns_protocols.Termination_proto.default, Patterns_protocols.Decision_rule.Threshold 1);
    ]
  in
  let table =
    Table.create
      ~headers:
        [
          ("protocol", Table.Left); ("IC", Table.Left); ("TC", Table.Left); ("WT", Table.Left);
          ("ST", Table.Left); ("HT", Table.Left); ("safe states", Table.Left);
          ("cor. 6", Table.Left); ("solves", Table.Left); ("configs", Table.Right);
        ]
  in
  let yn b = if b then "yes" else "-" in
  List.iter
    (fun (name, p, rule) ->
      let v = Classify.classify ~jobs:!jobs ~max_failures:1 ~rule ~n:3 p in
      Table.add_row table
        [
          name; yn v.Classify.ic; yn v.Classify.tc; yn v.Classify.wt; yn v.Classify.st;
          yn v.Classify.ht; yn v.Classify.all_states_safe; yn v.Classify.corollary6;
          (match Classify.best_problem v with None -> "none" | Some pb -> Taxonomy.short_name pb);
          string_of_int v.Classify.configs;
        ])
    rows;
  Table.print table;
  print_endline
    "\nPaper's predictions: exactly the TC protocols have all states safe (Theorem 2)\n\
     and satisfy Corollary 6 -- under every decision rule of Section 2; Figure 2 is\n\
     HT-IC; the chain and the [ML] tree commit are WT-IC; the tree family is WT-TC;\n\
     the Appendix protocol run standalone is HT-TC.  Cooperative 2PC sits outside\n\
     the six problems entirely: IC and TC hold but WT fails -- it blocks rather\n\
     than guess, and its blocked states are exactly its unsafe states.";
  (* the literal C(s) of Section 3, materialized *)
  let (module P3) = Patterns_protocols.Tree_proto.three_phase_commit 3 in
  let module C = Concurrency.Make (P3) in
  Format.printf "@.concurrency sets of 3pc (n=3, one crash): %a@." C.pp_summary (C.build ~n:3 ())

(* ----- Theorem 7 ----- *)

let theorem7_section () =
  section "Theorem 7: WT-TC within O(N^2) steps per processor";
  let evidence, measurements = Theorems.theorem7 () in
  let table =
    Table.create
      ~headers:
        [ ("N", Table.Right); ("steps/processor", Table.Right); ("2N(N-1)", Table.Right) ]
  in
  List.iter
    (fun (n, s) ->
      Table.add_row table
        [ string_of_int n; string_of_int (int_of_float s); string_of_int (2 * n * (n - 1)) ])
    measurements;
  Table.print table;
  Format.printf "@.%a@." Theorems.pp_evidence evidence;
  Format.printf "@.%a@." Theorems.pp_evidence (Theorems.appendix_anomaly ~max_configs:2_000_000 ())

(* ----- the lattice ----- *)

let lattice_section evidences =
  section "The closing diagram: the six-problem lattice";
  Format.printf "%a@." Lattice.pp_verified (Lattice.verify evidences)

(* ----- total-communication transform ----- *)

let totalcomm_section () =
  section "Section 3: the total-communication transformation";
  let base = Patterns_protocols.Perverse_proto.fig4 in
  let (module B) = base in
  let module SB = Scheme.Make (B) in
  let base_pats, _ = SB.patterns_for_inputs ~n:4 ~inputs:[ true; true; true; true ] () in
  let (module T) = Patterns_protocols.Total_comm.transform base in
  let module ST = Scheme.Make (T) in
  let tc_pats, stats = ST.patterns_for_inputs ~n:4 ~inputs:[ true; true; true; true ] () in
  Format.printf
    "fig4 all-ones scheme: %d patterns; after the transform: %d patterns [%a]@."
    (Pattern.Set.cardinal base_pats) (Pattern.Set.cardinal tc_pats) Scheme.pp_stats stats;
  Format.printf "transformed scheme within the original (as the paper claims): %b@."
    (Scheme.subscheme tc_pats base_pats)

(* ----- message-complexity sweep ----- *)

let complexity_section () =
  section "Message complexity of the commitment family (failure-free, all-ones)";
  let table =
    Table.create
      ~headers:
        [ ("n", Table.Right); ("2pc", Table.Right); ("d2pc", Table.Right); ("3pc", Table.Right);
          ("chain", Table.Right); ("central", Table.Right); ("termination", Table.Right) ]
  in
  List.iter
    (fun n ->
      let count p =
        let (module P : Protocol.S) = p in
        let module E = Engine.Make (P) in
        let r = E.run ~scheduler:E.fifo_scheduler ~n ~inputs:(List.init n (fun _ -> true)) () in
        string_of_int (Trace.message_count r.E.trace)
      in
      Table.add_row table
        [
          string_of_int n;
          count Patterns_protocols.Two_phase_commit.default;
          count Patterns_protocols.Decentralized_commit.default;
          count (Patterns_protocols.Tree_proto.three_phase_commit n);
          count Patterns_protocols.Chain_proto.fig3;
          count Patterns_protocols.Central_proto.fig2;
          count Patterns_protocols.Termination_proto.default;
        ])
    [ 3; 5; 8; 12; 16 ];
  Table.print table;
  print_endline
    "\n2(n-1) for 2PC and the chain; n(n-1) for decentralized votes and per round of\n\
     the termination protocol; 4(n-1) for 3PC; ~3(n-1)+(n-1)(n-2) for Figure 2's\n\
     rebroadcasts — the price of each rung of the lattice, in messages."

(* ----- the execution database: replay from the index ----- *)

let execution_db_section () =
  section "Execution database: replay from the index vs. replay by search";
  let module Hunt = Patterns_adversary.Hunt in
  let module Replay = Patterns_adversary.Replay in
  let module Metrics = Patterns_search.Metrics in
  let module Db = Patterns_db.Db in
  let entry =
    match Patterns_protocols.Registry.find "fig3-chain-st" with
    | Some e -> e
    | None -> failwith "registry lost fig3-chain-st"
  in
  Format.printf
    "One recording replay fills the edge log; after that the replay walk is one@.\
     point query of the SEO index per directive plus a fact-store verdict lookup@.\
     — zero engine plays (states_expanded = 0, pinned in test/cram/query.t).@.\
     Live replay cost grows with the configuration size; the indexed walk only@.\
     with the script length, so the index wins once the instance is non-toy.@.@.";
  let reps = if !quick then 20 else 200 in
  let table =
    Table.create
      ~headers:
        [ ("instance", Table.Left); ("directives", Table.Right);
          ("replays", Table.Right); ("live us/replay", Table.Right);
          ("db us/replay", Table.Right); ("db/live", Table.Right);
          ("engine plays (db)", Table.Right) ]
  in
  let ok = ref true in
  List.iter
    (fun n ->
      match
        Hunt.hunt ~max_failures:2 ~max_runs:5_000 ~mode:Hunt.Systematic
          ~property:Patterns_core.Audit.Agreement
          ~rule:Patterns_protocols.Decision_rule.Unanimity ~n ~seed:0 entry
      with
      | Error tried -> Format.kasprintf failwith "no violation in %d runs" tried
      | Ok cert ->
        let steps = List.length cert.Patterns_adversary.Cert.script in
        let db = Db.create () in
        let baseline = Replay.replay ~db cert in
        let (), live_s =
          wall (fun () -> for _ = 1 to reps do ignore (Replay.replay cert) done)
        in
        let (), db_s =
          wall (fun () -> for _ = 1 to reps do ignore (Replay.replay ~db cert) done)
        in
        let v, m = Replay.replay_metrics ~db cert in
        ok := !ok && v = baseline && m.Metrics.states_expanded = 0;
        let us secs = Format.asprintf "%.1f" (secs /. float_of_int reps *. 1e6) in
        Table.add_row table
          [ Format.asprintf "fig3-chain-st n=%d" n; string_of_int steps;
            string_of_int reps; us live_s; us db_s;
            Format.asprintf "%.2fx" (db_s /. live_s);
            string_of_int m.Metrics.states_expanded ])
    [ 4; 6 ];
  Table.print table;
  Format.printf "@.db verdicts identical to live, zero engine plays: %b@." !ok

(* ----- latency: the lattice in wall-clock terms ----- *)

let latency_section () =
  section "Simulated latency: critical path vs. problem strength";
  Format.printf
    "Unit step cost, per-message delays ~ U(5,15), seed 42; fair FIFO schedule.@.@.";
  let table =
    Table.create
      ~headers:
        [
          ("protocol", Table.Left); ("solves", Table.Left); ("height", Table.Right);
          ("completion", Table.Right); ("last decision", Table.Right);
        ]
  in
  let n = 5 in
  let row name solves p =
    let (module P : Protocol.S) = p in
    let module E = Engine.Make (P) in
    let r = E.run ~scheduler:E.fifo_scheduler ~n ~inputs:(List.init n (fun _ -> true)) () in
    let model = Latency.Uniform { lo = 5.0; hi = 15.0 } in
    let t = Latency.evaluate ~seed:42 ~model ~n r.E.trace in
    let last_decision =
      List.fold_left (fun acc (_, w) -> Float.max acc w) 0.0
        (Latency.decision_times ~seed:42 ~model ~n r.E.trace)
    in
    Table.add_row table
      [
        name; solves;
        string_of_int (Latency.critical_path_bound r.E.trace);
        Printf.sprintf "%.1f" t.Latency.completion;
        Printf.sprintf "%.1f" last_decision;
      ]
  in
  row "d2pc" "WT-IC" Patterns_protocols.Decentralized_commit.default;
  row "2pc" "WT-IC" Patterns_protocols.Two_phase_commit.default;
  row "chain" "WT-IC" Patterns_protocols.Chain_proto.fig3;
  row "tree-2pc (star)" "WT-IC" (Patterns_protocols.Tree_commit.star n);
  row "central (fig2)" "HT-IC" Patterns_protocols.Central_proto.fig2;
  row "3pc" "WT-TC" (Patterns_protocols.Tree_proto.three_phase_commit n);
  row "termination" "HT-TC" Patterns_protocols.Termination_proto.default;
  Table.print table;
  print_endline
    "\nLatency is governed by the pattern's height (the longest causal chain):\n\
     total consistency costs two extra sequential hops (bias + ack) over 2PC,\n\
     and the flooding termination protocol pays N rounds.  The lattice, in time."

(* ----- Bechamel timings ----- *)

let bechamel_estimates () =
  let open Bechamel in
  let run_protocol p n =
    Staged.stage (fun () ->
        let (module P : Protocol.S) = p in
        let module E = Engine.Make (P) in
        ignore (E.run ~scheduler:E.fifo_scheduler ~n ~inputs:(List.init n (fun _ -> true)) ()))
  in
  let pattern_extraction =
    let (module P) = Patterns_protocols.Tree_proto.fig1 in
    let module E = Engine.Make (P) in
    let r = E.run ~scheduler:E.fifo_scheduler ~n:7 ~inputs:(List.init 7 (fun _ -> true)) () in
    Staged.stage (fun () -> ignore (Pattern.of_trace r.E.trace))
  in
  let closure =
    let prng = Prng.create ~seed:99 in
    let r = Patterns_order.Relation.create 64 in
    for _ = 1 to 300 do
      let i = Prng.int prng ~bound:63 in
      let j = i + 1 + Prng.int prng ~bound:(63 - i) in
      Patterns_order.Relation.add r i j
    done;
    Staged.stage (fun () -> ignore (Patterns_order.Relation.transitive_closure r))
  in
  let scheme_fig4 =
    Staged.stage (fun () ->
        let (module P) = Patterns_protocols.Perverse_proto.fig4 in
        let module S = Scheme.Make (P) in
        ignore (S.patterns_for_inputs ~n:4 ~inputs:[ true; true; true; true ] ()))
  in
  let tests =
    [
      Test.make ~name:"engine: 2pc n=8 run" (run_protocol Patterns_protocols.Two_phase_commit.default 8);
      Test.make ~name:"engine: 3pc n=8 run" (run_protocol (Patterns_protocols.Tree_proto.three_phase_commit 8) 8);
      Test.make ~name:"engine: fig1 n=7 run" (run_protocol Patterns_protocols.Tree_proto.fig1 7);
      Test.make ~name:"engine: termination n=8 run" (run_protocol Patterns_protocols.Termination_proto.default 8);
      Test.make ~name:"pattern: extract fig1 trace" pattern_extraction;
      Test.make ~name:"order: closure 64x300" closure;
      Test.make ~name:"scheme: fig4 single vector" scheme_fig4;
      Test.make ~name:"engine: voting-tree thr3 n=8 run"
        (run_protocol (Patterns_protocols.Voting_tree.threshold_star ~k:3 8) 8);
      Test.make ~name:"latency: evaluate fig1 trace"
        (let (module P) = Patterns_protocols.Tree_proto.fig1 in
         let module E = Engine.Make (P) in
         let r = E.run ~scheduler:E.fifo_scheduler ~n:7 ~inputs:(List.init 7 (fun _ -> true)) () in
         Staged.stage (fun () ->
             ignore
               (Latency.evaluate ~seed:1 ~model:(Latency.Uniform { lo = 1.0; hi = 9.0 }) ~n:7
                  r.E.trace)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let quota = if !quick then 0.05 else 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true () in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let ols =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instance
          results
      in
      Hashtbl.fold
        (fun name result acc ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> (name, Some est) :: acc
          | _ -> (name, None) :: acc)
        ols [])
    tests

let bechamel_section () =
  section "Bechamel timings of the machinery";
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Format.printf "%-32s %12.1f ns/run@." name est
      | None -> Format.printf "%-32s (no estimate)@." name)
    (bechamel_estimates ())

(* ----- parallel sweep timings and BENCH_patterns.json ----- *)

(* Wall-clock the parallel sweeps at jobs=1 and jobs=J on the same
   inputs.  Each sweep returns a size witness (configs, patterns or
   runs) plus the kernel's metrics, so the JSON records that the work
   — counted by the search kernel, not just the wall clock — was
   identical across jobs values. *)
let sweep_timings () =
  (* speedup-vs-jobs curve: powers of two up to --jobs, plus --jobs
     itself — [1;2;4;8] at --jobs 8, [1] at the default.  Under
     --quick, jobs values beyond the runner's core count are skipped
     outright: those rows would be flagged advisory (time-slicing
     noise, never gated on) anyway, so the smoke run stops paying for
     them *)
  let js =
    let rec powers acc p = if p >= !jobs then acc else powers (p :: acc) (2 * p) in
    let all = List.sort_uniq Int.compare (!jobs :: powers [ 1 ] 2) in
    if !quick then
      match List.filter (fun j -> j <= Domain_pool.default_jobs ()) all with
      | [] -> [ 1 ]
      | kept -> kept
    else all
  in
  let scheme_sweep name p ~n j =
    let (module P : Protocol.S) = p in
    let module S = Scheme.Make (P) in
    let metrics = ref Patterns_search.Metrics.zero in
    let (pats, stats), secs =
      wall (fun () ->
          S.scheme ~metrics ~jobs:j ~n ())
    in
    ( name, j, secs,
      Printf.sprintf "patterns=%d configs=%d" (Pattern.Set.cardinal pats)
        stats.Scheme.configs_visited,
      !metrics )
  in
  let classify_sweep ?max_configs name p ~rule ~n j =
    let metrics = ref Patterns_search.Metrics.zero in
    let v, secs =
      wall (fun () ->
          Classify.classify ~metrics ?max_configs ~jobs:j ~max_failures:1 ~rule ~n p)
    in
    (name, j, secs, Printf.sprintf "configs=%d" v.Classify.configs, !metrics)
  in
  (* same classify sweep through the disk-backed store: the verdict
     and the deterministic counters must match the in-memory row, and
     the spill counters record the disk traffic the budget forced *)
  let classify_spill_sweep ?max_configs name p ~rule ~n ~mem_budget j =
    let dir = "BENCH_spill.tmp" in
    let metrics = ref Patterns_search.Metrics.zero in
    let v, secs =
      wall (fun () ->
          Classify.classify ~metrics ?max_configs ~jobs:j ~max_failures:1
            ~spill:{ Patterns_search.Search.dir; mem_budget } ~rule ~n p)
    in
    (try Sys.rmdir dir with Sys_error _ -> ());
    (name, j, secs, Printf.sprintf "configs=%d" v.Classify.configs, !metrics)
  in
  let hunt_sweep name entry ~runs j =
    let entry =
      match Patterns_protocols.Registry.find entry with
      | Some e -> e
      | None -> failwith ("registry lost " ^ entry)
    in
    let metrics = ref Patterns_search.Metrics.zero in
    let r, secs =
      wall (fun () ->
          Patterns_adversary.Hunt.hunt ~metrics ~jobs:j ~max_failures:2 ~max_runs:runs
            ~mode:Patterns_adversary.Hunt.Random ~property:Audit.Agreement
            ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3 ~seed:7 entry)
    in
    let witness = match r with Ok _ -> "violation" | Error k -> Printf.sprintf "runs=%d" k in
    (name, j, secs, witness, !metrics)
  in
  (* incremental rows: the same query cold and through the reuse
     machinery — classify against a base database (wholesale fact
     reuse at the same fault bound) and the systematic hunt with and without shared failure-free
     prefixes.  Always jobs=1, so the rows are never advisory: the
     honest lever on a small runner is work reduction (fewer states
     expanded for the same answer), not parallel speedup.  The base
     databases are seeded outside the timed region — the pair
     measures the Nth query, not the first. *)
  let incremental_rows () =
    let p = Patterns_protocols.Chain_proto.fig3 in
    let rule = Patterns_protocols.Decision_rule.Unanimity in
    let n = 3 in
    let classify_row name ?base ~max_failures () =
      let metrics = ref Patterns_search.Metrics.zero in
      let v, secs =
        wall (fun () ->
            Classify.classify ~metrics ?base ~jobs:1 ~max_failures ~rule ~n p)
      in
      (name, 1, secs, Printf.sprintf "configs=%d" v.Classify.configs, !metrics)
    in
    let seeded mf =
      let base = Patterns_db.Db.create () in
      let _ : Classify.verdict =
        Classify.classify ~base ~jobs:1 ~max_failures:mf ~rule ~n p
      in
      base
    in
    let hunt_row ?(space = Patterns_adversary.Plan.Crash_only) ?(property = Audit.IC)
        ?(max_failures = 2) name ~memo ~runs =
      let entry =
        match Patterns_protocols.Registry.find "fig3-chain" with
        | Some e -> e
        | None -> failwith "registry lost fig3-chain"
      in
      let metrics = ref Patterns_search.Metrics.zero in
      let r, secs =
        wall (fun () ->
            Patterns_adversary.Hunt.hunt ~metrics ~memo ~space ~max_failures ~max_runs:runs
              ~jobs:1 ~mode:Patterns_adversary.Hunt.Systematic ~property ~rule ~n
              ~seed:0 entry)
      in
      let witness =
        match r with Ok _ -> "violation" | Error k -> Printf.sprintf "runs=%d" k
      in
      (name, 1, secs, witness, !metrics)
    in
    (* fixed run budget: the memo counters are deterministic per run
       count, and --check --quick reruns these rows against a
       full-mode baseline, so the count must not depend on !quick *)
    let runs = 1_000 in
    [
      classify_row "incremental: classify fig3-chain n=3 mf=2 from-scratch"
        ~max_failures:2 ();
      classify_row "incremental: classify fig3-chain n=3 mf=2 reused" ~base:(seeded 2)
        ~max_failures:2 ();
      hunt_row "incremental: hunt systematic fig3-chain n=3 IC replay" ~memo:false ~runs;
      hunt_row "incremental: hunt systematic fig3-chain n=3 IC memoized" ~memo:true ~runs;
      (* the widened adversary: the same systematic sweep through the
         omission and mobile fault spaces.  fig3-chain is WT-clean
         under crashes, so the crash row exhausts its budget while the
         omission rows stop at the first drop witness — the drops /
         omission-plan counters below are the deterministic record of
         the widening, gated by --check like the prefix counters *)
      hunt_row "omission: hunt systematic fig3-chain n=3 WT crash-only"
        ~space:Patterns_adversary.Plan.Crash_only ~property:Audit.WT ~max_failures:1
        ~memo:true ~runs;
      hunt_row "omission: hunt systematic fig3-chain n=3 WT omission"
        ~space:Patterns_adversary.Plan.Omission ~property:Audit.WT ~max_failures:1
        ~memo:true ~runs;
      hunt_row "omission: hunt systematic fig3-chain n=3 WT mobile"
        ~space:Patterns_adversary.Plan.Mobile ~property:Audit.WT ~max_failures:2
        ~memo:true ~runs;
    ]
  in
  List.concat_map
    (fun j ->
      let common =
        (if j = 1 then incremental_rows () else [])
        @ [
          scheme_sweep "scheme: fig4 n=4 (16 vectors)" Patterns_protocols.Perverse_proto.fig4 ~n:4 j;
          classify_sweep "classify: fig3-chain n=3, 1 crash"
            Patterns_protocols.Chain_proto.fig3 ~rule:Patterns_protocols.Decision_rule.Unanimity
            ~n:3 j;
          classify_spill_sweep "classify: fig3-chain n=3, 1 crash, spill budget=2k"
            Patterns_protocols.Chain_proto.fig3 ~rule:Patterns_protocols.Decision_rule.Unanimity
            ~n:3 ~mem_budget:2_000 j;
          hunt_sweep "hunt: 2pc agreement n=3" "2pc"
            ~runs:(if !quick then 300 else 3000)
            j;
        ]
      in
      if !quick then common
      else
        common
        @ [
            scheme_sweep "scheme: fig1 n=7 (128 vectors)" Patterns_protocols.Tree_proto.fig1
              ~n:7 j;
            classify_sweep "classify: 3pc n=3, 1 crash"
              (Patterns_protocols.Tree_proto.three_phase_commit 3)
              ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3 j;
            classify_sweep "classify: fig3-chain n=4, 1 crash (capped 100k)"
              ~max_configs:100_000 Patterns_protocols.Chain_proto.fig3
              ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:4 j;
          ])
    js

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let emit_json ~path =
  let bech = bechamel_estimates () in
  let sweeps = sweep_timings () in
  let seconds_at_1 name =
    List.find_map (fun (n, j, s, _, _) -> if n = name && j = 1 then Some s else None) sweeps
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": \"patterns-bench/7\",\n");
  Buffer.add_string b (Printf.sprintf "  \"jobs\": %d,\n" !jobs);
  Buffer.add_string b
    (Printf.sprintf "  \"recommended_domains\": %d,\n" (Domain_pool.default_jobs ()));
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" !quick);
  Buffer.add_string b "  \"bechamel_ns_per_run\": {\n";
  List.iteri
    (fun i (name, est) ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": %s%s\n" (json_escape name)
           (match est with Some e -> Printf.sprintf "%.1f" e | None -> "null")
           (if i = List.length bech - 1 then "" else ",")))
    bech;
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"sweeps\": [\n";
  List.iteri
    (fun i (name, j, secs, witness, metrics) ->
      let speedup =
        match seconds_at_1 name with
        | Some s1 when j <> 1 && secs > 0.0 -> Printf.sprintf "%.3f" (s1 /. secs)
        | _ -> "null"
      in
      (* honesty marker: a speedup measured with more worker domains
         than the runner has cores is time-slicing noise, not a
         parallel-scaling observation — record the runner's core
         count with the row and flag it advisory so --check never
         gates on it *)
      let recommended = Domain_pool.default_jobs () in
      let advisory = j > recommended in
      let kernel =
        (* the kernel's deterministic counters: identical across jobs
           values (hunt's expanded count may overshoot by one batch).
           The volatile fields — lock_contention, expand_seconds —
           are deliberately absent: a baseline
           must only pin what every rerun reproduces.  The /8
           incremental section rides along: prefix_hits and
           prefix_states_saved (shared failure-free prefixes in the
           systematic hunt) and delta_reused_edges (base-database
           reuse in classify) are deterministic on the
           full sweeps benched here; spill_fd_reopens is
           eviction-order-volatile and gated like the other spill
           counters.  The /9 fault section (drops_injected,
           omission_plans, mobile_faults) is deterministic on the
           jobs=1 systematic hunts benched here and zero everywhere
           else. *)
        let open Patterns_search.Metrics in
        Printf.sprintf
          "\"kernel\": { \"outcome\": \"%s\", \"states_expanded\": %d, \"dedup_hits\": %d, \
           \"frontier_peak\": %d, \"pruned\": %d, \"fingerprint_probes\": %d, \
           \"collision_fallbacks\": %d, \"intern_bindings\": %d, \"shard_bits\": %d, \
           \"shard_occupancy_total\": %d, \"frontier_peak_sum\": %d, \"spill_runs\": %d, \
           \"spill_evictions\": %d, \"spill_probes\": %d, \"spill_read_bytes\": %d, \
           \"spill_write_bytes\": %d, \"spill_fd_reopens\": %d, \"prefix_hits\": %d, \
           \"prefix_states_saved\": %d, \"delta_reused_edges\": %d, \
           \"drops_injected\": %d, \"omission_plans\": %d, \"mobile_faults\": %d }"
          (outcome_string metrics.outcome)
          metrics.states_expanded metrics.dedup_hits metrics.frontier_peak metrics.pruned
          metrics.fingerprint_probes metrics.collision_fallbacks metrics.intern_bindings
          metrics.shard_bits metrics.shard_occupancy_total metrics.frontier_peak_sum
          metrics.spill_runs metrics.spill_evictions metrics.spill_probes
          metrics.spill_read_bytes metrics.spill_write_bytes metrics.spill_fd_reopens
          metrics.prefix_hits
          metrics.prefix_states_saved metrics.delta_reused_edges
          metrics.drops_injected metrics.omission_plans metrics.mobile_faults
      in
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": \"%s\", \"jobs\": %d, \"seconds\": %.6f, \"witness\": \"%s\", \
            \"speedup_vs_jobs1\": %s, \"recommended_domains\": %d, \"advisory\": %b, %s }%s\n"
           (json_escape name) j secs (json_escape witness) speedup recommended advisory
           kernel
           (if i = List.length sweeps - 1 then "" else ",")))
    sweeps;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "wrote %s (%d bechamel estimates, %d sweep timings)@." path (List.length bech)
    (List.length sweeps)

(* ----- baseline drift check (--check) ----- *)

(* The emitted JSON keeps each sweep row on one line, so the baseline
   can be re-read with line-based field extraction — no JSON library
   in the container, and none needed. *)

let rec find_sub s needle i =
  let ls = String.length s and ln = String.length needle in
  if i + ln > ls then None
  else if String.sub s i ln = needle then Some i
  else find_sub s needle (i + 1)

let str_field line key =
  let needle = Printf.sprintf "\"%s\": \"" key in
  match find_sub line needle 0 with
  | None -> None
  | Some i -> (
    let start = i + String.length needle in
    match String.index_from_opt line start '"' with
    | None -> None
    | Some stop -> Some (String.sub line start (stop - start)))

let num_field line key =
  let needle = Printf.sprintf "\"%s\": " key in
  match find_sub line needle 0 with
  | None -> None
  | Some i ->
    let start = i + String.length needle in
    let stop = ref start in
    let ls = String.length line in
    while
      !stop < ls
      && (match line.[!stop] with '0' .. '9' | '.' | '-' | '+' | 'e' -> true | _ -> false)
    do
      incr stop
    done;
    if !stop = start then None else float_of_string_opt (String.sub line start (!stop - start))

type baseline_row = { b_name : string; b_jobs : int; b_seconds : float; b_line : string }

let read_baseline path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  let rows =
    List.filter_map
      (fun l ->
        match (str_field l "name", num_field l "jobs", num_field l "seconds") with
        | Some name, Some j, Some s ->
          Some { b_name = name; b_jobs = int_of_float j; b_seconds = s; b_line = l }
        | _ -> None)
      lines
  in
  (* the sweep configuration is part of the baseline: re-run with the
     flags it was generated under, whatever the command line says *)
  let top_jobs =
    List.find_map
      (fun l -> if str_field l "name" = None then num_field l "jobs" else None)
      lines
  in
  let top_quick = List.exists (fun l -> find_sub l "\"quick\": true" 0 <> None) lines in
  (rows, top_jobs, top_quick)

let check_against ~baseline =
  let rows, top_jobs, top_quick = read_baseline baseline in
  if rows = [] then begin
    Format.eprintf "bench --check: no sweep rows in %s@." baseline;
    exit 1
  end;
  (* --quick on the command line trims the rerun to the quick sweep
     subset even against a full baseline (the CI smoke job); otherwise
     the baseline's own configuration wins *)
  let cli_quick = !quick in
  (match top_jobs with Some j -> jobs := int_of_float j | None -> ());
  quick := cli_quick || top_quick;
  Format.printf "bench --check: %d baseline rows from %s (jobs=%d quick=%b)@."
    (List.length rows) baseline !jobs !quick;
  let sweeps = sweep_timings () in
  let failures = ref 0 in
  let drift fmt =
    Format.kasprintf
      (fun msg ->
        incr failures;
        Format.printf "  DRIFT %s@." msg)
      fmt
  in
  let compared = ref 0 in
  List.iter
    (fun row ->
      match
        List.find_opt (fun (n, j, _, _, _) -> n = row.b_name && j = row.b_jobs) sweeps
      with
      | None ->
        (* under a trimmed rerun, baseline rows outside the subset are
           expected to be absent *)
        if not (cli_quick && not top_quick) then
          drift "%s (jobs=%d): row missing from current run" row.b_name row.b_jobs
      | Some (_, _, _, _, m) ->
        incr compared;
        let open Patterns_search.Metrics in
        let expect key now =
          (* a key absent from the baseline row (older schema) is not
             checked — the baseline can only pin what it recorded *)
          match num_field row.b_line key with
          | Some want when int_of_float want <> now ->
            drift "%s (jobs=%d): %s = %d, baseline %d" row.b_name row.b_jobs key now
              (int_of_float want)
          | _ -> ()
        in
        (match str_field row.b_line "outcome" with
        | Some want when want <> outcome_string m.outcome ->
          drift "%s (jobs=%d): outcome = %s, baseline %s" row.b_name row.b_jobs
            (outcome_string m.outcome) want
        | _ -> ());
        (* a hunt that finds nothing evaluates a jobs-dependent number
           of speculative batches on machines with different default
           pools; every other row's expanded count is exact *)
        if find_sub row.b_name "hunt" 0 = None then expect "states_expanded" m.states_expanded;
        expect "dedup_hits" m.dedup_hits;
        expect "pruned" m.pruned;
        if find_sub row.b_name "hunt" 0 = None then
          expect "fingerprint_probes" m.fingerprint_probes;
        expect "collision_fallbacks" m.collision_fallbacks;
        (* the /8 incremental counters: exact on classify/scheme rows
           and on full-sweep hunts; a goal-found hunt's prefix tallies
           overshoot with the worker count like its expanded count, so
           hunt rows gate them on jobs=1 *)
        if find_sub row.b_name "hunt" 0 = None || row.b_jobs = 1 then begin
          expect "prefix_hits" m.prefix_hits;
          expect "prefix_states_saved" m.prefix_states_saved;
          (* the /9 fault counters get the same gate: a goal-found
             hunt's fault tallies overshoot with the worker count
             exactly like its expanded count *)
          expect "drops_injected" m.drops_injected;
          expect "omission_plans" m.omission_plans;
          expect "mobile_faults" m.mobile_faults
        end;
        expect "delta_reused_edges" m.delta_reused_edges;
        (* intern_bindings is a hash-cons cache gauge, not a semantic
           counter: the intermediate edge/knowledge sets interned along
           the way depend on which dedup racer reaches each config
           first, so under the async driver with more than one worker
           the binding count is schedule-dependent.  Compare it only
           where it is deterministic (a single worker).  The frontier
           gauges — the async queue's high-water mark — and the spill
           counters — eviction timing — are schedule-dependent under
           the same conditions and get the same gate. *)
        if row.b_jobs = 1 then begin
          expect "intern_bindings" m.intern_bindings;
          expect "frontier_peak" m.frontier_peak;
          expect "frontier_peak_sum" m.frontier_peak_sum;
          expect "spill_runs" m.spill_runs;
          expect "spill_evictions" m.spill_evictions;
          expect "spill_probes" m.spill_probes;
          expect "spill_read_bytes" m.spill_read_bytes;
          expect "spill_write_bytes" m.spill_write_bytes;
          expect "spill_fd_reopens" m.spill_fd_reopens
        end;
        expect "shard_bits" m.shard_bits;
        expect "shard_occupancy_total" m.shard_occupancy_total)
    rows;
  (* wall-clock comparison over the rows compared on both sides.
     Advisory rows — speedup measured with more domains than the
     runner (baseline's or ours) has cores — are excluded from the
     sums: their timings are time-slicing noise, not a regression
     signal. *)
  let row_advisory r =
    find_sub r.b_line "\"advisory\": true" 0 <> None
    || r.b_jobs > Domain_pool.default_jobs ()
  in
  let solid = List.filter (fun r -> not (row_advisory r)) rows in
  let excluded = List.length rows - List.length solid in
  if excluded > 0 then
    Format.printf "  (%d advisory row(s) excluded from the wall-clock comparison)@."
      excluded;
  let compared_names =
    List.filter
      (fun r ->
        List.exists (fun (n, j, _, _, _) -> n = r.b_name && j = r.b_jobs) sweeps)
      solid
  in
  let total l = List.fold_left ( +. ) 0.0 l in
  let base_secs = total (List.map (fun r -> r.b_seconds) compared_names) in
  let now_secs =
    total
      (List.filter_map
         (fun (n, j, s, _, _) ->
           if List.exists (fun r -> r.b_name = n && r.b_jobs = j) compared_names then
             Some s
           else None)
         sweeps)
  in
  let ratio = if base_secs > 0.0 then now_secs /. base_secs else 1.0 in
  Format.printf "wall-clock: %.3fs vs baseline %.3fs (%.2fx)@." now_secs base_secs ratio;
  (* counters are the contract — wall clock is machine- and
     load-dependent, so it warns without failing the check *)
  if ratio > 1.25 then
    Format.printf "  ADVISORY wall-clock beyond 25%% of baseline (not counted as drift)@.";
  if !failures = 0 then begin
    Format.printf "bench --check: OK (%d rows, counters identical)@." !compared;
    exit 0
  end
  else begin
    Format.printf "bench --check: %d drift(s)@." !failures;
    exit 1
  end

(* ----- entry point ----- *)

let usage () =
  prerr_endline
    "usage: main.exe [--jobs J] [--json] [--quick] [--out PATH] [--check] [--baseline PATH]\n\
    \  --jobs J     worker domains for the parallel sweeps (0 = all cores)\n\
    \  --json       emit machine-readable timings to BENCH_patterns.json and exit\n\
    \  --quick      smaller quotas and sweeps (CI smoke); with --check, compares\n\
    \               only the quick sweep subset of the baseline\n\
    \  --out P      destination for --json (default BENCH_patterns.json)\n\
    \  --check      re-run the sweeps and compare the kernel's deterministic\n\
    \               counters against the committed baseline; exit 1 on counter\n\
    \               drift (wall-clock is advisory only)\n\
    \  --baseline P baseline for --check (default BENCH_patterns.json)";
  exit 2

let () =
  let json = ref false in
  let check = ref false in
  let out = ref "BENCH_patterns.json" in
  let baseline = ref "BENCH_patterns.json" in
  let rec parse = function
    | [] -> ()
    | ("-j" | "--jobs") :: v :: rest -> (
      match int_of_string_opt v with Some j -> jobs := j; parse rest | None -> usage ())
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--out" :: path :: rest ->
      out := path;
      parse rest
    | "--check" :: rest ->
      check := true;
      parse rest
    | "--baseline" :: path :: rest ->
      baseline := path;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !jobs <= 0 then jobs := Domain_pool.default_jobs ();
  if !check then check_against ~baseline:!baseline
  else if !json then emit_json ~path:!out
  else begin
    Format.printf "Patterns of Communication in Consensus Protocols (Dwork & Skeen, PODC 1984)@.";
    Format.printf "Reproduction harness — every figure, the classification table, Theorem 7,@.";
    Format.printf "and the closing lattice, regenerated from the implementation.@.";
    fig1_section ();
    fig2_section ();
    fig3_section ();
    fig4_section ();
    classification_section ();
    theorem7_section ();
    totalcomm_section ();
    latency_section ();
    complexity_section ();
    execution_db_section ();
    let evidences = Theorems.all () in
    lattice_section evidences;
    bechamel_section ();
    section "Summary";
    let all_hold = List.for_all (fun e -> e.Theorems.holds) evidences in
    Format.printf "all theorem witnesses reproduced: %b@." all_hold
  end
