(* The incremental layer's single contract: answers computed through a
   base database — wholesale per-vector reuse, with a fresh search for
   every vector the base cannot answer — and through memoized
   failure-free prefixes in the systematic hunt are bit-identical to
   the from-scratch answers, across the whole protocol registry, every
   jobs value and both parallel drivers.  These tests pin that
   contract, plus the determinism of the /8 counters, the inertness
   of [memo] on the random adversary's PRNG stream, and the refusal
   of corrupt facts. *)

open Patterns_stdx
open Patterns_core
module Db = Patterns_db.Db

let check = Alcotest.check

(* the CLI's protocol -> decision-rule mapping, for registry-wide
   sweeps *)
let rule_of_registry entry =
  let open Patterns_protocols in
  if entry.Registry.name = "ben-or" then Decision_rule.Any_input
  else if entry.Registry.name = "reliable-broadcast" then Decision_rule.Broadcast 0
  else if entry.Registry.name = "termination" then Decision_rule.Threshold 1
  else if entry.Registry.name = "voting-star-thr3-5" then Decision_rule.Threshold 3
  else if entry.Registry.name = "voting-star-subset-5" then Decision_rule.Subset [ 0; 1 ]
  else Decision_rule.Unanimity

let entry_exn name =
  match Patterns_protocols.Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "registry lost %s" name

(* verdicts are scalar records (bools, ints, strings): structural
   equality is the bit-identity the contract promises *)
let check_verdict name (a : Classify.verdict) (b : Classify.verdict) =
  Alcotest.(check bool) name true (a = b)

(* ----- registry-wide reuse oracle -----

   For every protocol, three routes to the max_failures 1 verdict
   against the from-scratch one: through an empty base (every vector
   fresh, facts stored), the same query again (every untruncated
   vector answered wholesale, no search), and through a base holding
   only max_failures 0 facts (no fact matches, so every vector takes
   the fresh fallback).  The budget cap keeps the big fixed-n
   protocols bounded; their truncated vectors store no facts and are
   searched afresh on every route.  The serial breadth-first driver
   pins the truncation points (the async driver's are
   schedule-dependent above one worker). *)

let test_registry_reuse () =
  List.iter
    (fun entry ->
      let (module P : Patterns_sim.Protocol.S) =
        entry.Patterns_protocols.Registry.protocol
      in
      let n =
        if entry.Patterns_protocols.Registry.fixed_n then
          entry.Patterns_protocols.Registry.default_n
        else min entry.Patterns_protocols.Registry.default_n 3
      in
      let rule = rule_of_registry entry in
      let classify ?metrics ?base mf =
        Classify.classify ?metrics ?base ~max_failures:mf ~max_configs:20_000
          ~par_mode:Patterns_search.Search.Layers ~rule ~n
          entry.Patterns_protocols.Registry.protocol
      in
      let s1 = classify 1 in
      let base = Db.create () in
      check_verdict (P.name ^ " mf=1 through an empty base") s1 (classify ~base 1);
      let metrics = ref Patterns_search.Metrics.zero in
      check_verdict (P.name ^ " mf=1 repeated") s1 (classify ~metrics ~base 1);
      if not s1.Classify.truncated then begin
        check Alcotest.int (P.name ^ " repeated run searches nothing") 0
          !metrics.Patterns_search.Metrics.states_expanded;
        Alcotest.(check bool)
          (P.name ^ " repeated run reuses edges")
          true
          (!metrics.Patterns_search.Metrics.delta_reused_edges > 0)
      end;
      let base0 = Db.create () in
      ignore (classify ~base:base0 0 : Classify.verdict);
      check_verdict (P.name ^ " mf=1 through an mf=0 base") s1 (classify ~base:base0 1))
    Patterns_protocols.Registry.all

(* ----- added input vectors -----

   Facts are per-vector, so growing the vector set reuses the old
   vectors wholesale and explores only the new ones. *)

let test_added_inputs () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  let n = 3 in
  let all = Listx.all_bool_vectors n in
  let half = List.filteri (fun i _ -> i < List.length all / 2) all in
  let scratch =
    Classify.classify ~max_failures:1 ~inputs_choices:all ~rule ~n
      entry.Patterns_protocols.Registry.protocol
  in
  let base = Db.create () in
  let _seed : Classify.verdict =
    Classify.classify ~base ~max_failures:1 ~inputs_choices:half ~rule ~n
      entry.Patterns_protocols.Registry.protocol
  in
  let metrics = ref Patterns_search.Metrics.zero in
  let grown =
    Classify.classify ~metrics ~base ~max_failures:1 ~inputs_choices:all ~rule ~n
      entry.Patterns_protocols.Registry.protocol
  in
  check_verdict "half-then-all ≡ from-scratch" scratch grown;
  Alcotest.(check bool)
    "old vectors were reused" true
    (!metrics.Patterns_search.Metrics.delta_reused_edges > 0)

(* ----- budget gate -----

   A stored fact larger than the current per-vector budget must not be
   reused: the incremental run falls back to a fresh (truncating)
   search and reproduces the from-scratch truncated verdict.  The
   serial breadth-first driver pins the truncation order. *)

let test_budget_gate () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  let n = 3 in
  let base = Db.create () in
  let _big : Classify.verdict =
    Classify.classify ~base ~max_failures:1 ~rule ~n
      entry.Patterns_protocols.Registry.protocol
  in
  let small mf_opts =
    Classify.classify ?base:mf_opts ~max_failures:1 ~max_configs:8_000
      ~par_mode:Patterns_search.Search.Layers ~rule ~n
      entry.Patterns_protocols.Registry.protocol
  in
  let scratch = small None and through_base = small (Some base) in
  Alcotest.(check bool) "small budget truncates" true scratch.Classify.truncated;
  check_verdict "oversized facts are not reused" scratch through_base

(* ----- jobs and driver invariance of reuse -----

   Under every jobs value and driver, a base recorded at one failure
   answers a repeated query wholesale and a two-failure query through
   the fresh fallback, both equal to that driver's from-scratch
   verdict, with jobs-invariant reuse counters. *)

let test_matrix_invariance () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  let n = 3 in
  let combos =
    [
      (1, Patterns_search.Search.Async);
      (4, Patterns_search.Search.Async);
      (1, Patterns_search.Search.Layers);
      (4, Patterns_search.Search.Layers);
    ]
  in
  let counters =
    List.map
      (fun (jobs, par_mode) ->
        let classify ?metrics ?base mf =
          Classify.classify ?metrics ?base ~max_failures:mf ~jobs ~par_mode ~rule ~n
            entry.Patterns_protocols.Registry.protocol
        in
        let label what =
          Printf.sprintf "%s ≡ scratch (jobs=%d mode=%s)" what jobs
            (Patterns_search.Search.par_mode_string par_mode)
        in
        let base = Db.create () in
        let s1 = classify ~base 1 in
        let metrics = ref Patterns_search.Metrics.zero in
        check_verdict (label "reused") s1 (classify ~metrics ~base 1);
        check_verdict (label "mf=2 through an mf=1 base") (classify 2) (classify ~base 2);
        !metrics.Patterns_search.Metrics.delta_reused_edges)
      combos
  in
  match counters with
  | [] -> assert false
  | c0 :: rest ->
    Alcotest.(check bool) "delta_reused_edges > 0" true (c0 > 0);
    List.iter (fun c -> check Alcotest.int "reuse counter invariant" c0 c) rest

(* ----- the driver family is part of the fact key -----

   coop-2pc at one crash has convergence points between
   pattern-distinct paths, so the two drivers visit different counts
   of it.  A base recorded under one driver must not answer a query
   under the other. *)

let test_driver_family_key () =
  let entry = entry_exn "coop-2pc" in
  let rule = rule_of_registry entry in
  let classify ?base par_mode =
    Classify.classify ?base ~max_failures:1 ~par_mode ~rule ~n:3
      entry.Patterns_protocols.Registry.protocol
  in
  let async = classify Patterns_search.Search.Async
  and layers = classify Patterns_search.Search.Layers in
  Alcotest.(check bool)
    "the drivers' counts differ" true
    (async.Classify.configs <> layers.Classify.configs);
  let base = Db.create () in
  check_verdict "async into the base" async (classify ~base Patterns_search.Search.Async);
  check_verdict "layers through an async base" layers
    (classify ~base Patterns_search.Search.Layers);
  check_verdict "async reused" async (classify ~base Patterns_search.Search.Async)

(* ----- the driver family is part of the verdict-fact key -----

   The same split one level up: a whole-sweep verdict recorded into a
   [--db] under the serial breadth-first driver must not answer the
   work-stealing driver's query, and vice versa.  The two counts are
   pinned: they are visit-order answers of the two drivers at one
   worker. *)

let test_verdict_fact_driver () =
  let entry = entry_exn "coop-2pc" in
  let rule = rule_of_registry entry in
  let classify ?metrics ?db par_mode =
    Classify.classify ?metrics ?db ~max_failures:1 ~par_mode ~rule ~n:3
      entry.Patterns_protocols.Registry.protocol
  in
  let db = Db.create () in
  let layers = classify ~db Patterns_search.Search.Layers in
  check Alcotest.int "layers counts 6890" 6890 layers.Classify.configs;
  let metrics = ref Patterns_search.Metrics.zero in
  let async = classify ~metrics ~db Patterns_search.Search.Async in
  check Alcotest.int "async counts 6818, not the layers fact" 6818 async.Classify.configs;
  check Alcotest.bool "async searched" true
    (!metrics.Patterns_search.Metrics.states_expanded > 0);
  let metrics = ref Patterns_search.Metrics.zero in
  check_verdict "layers fact answers layers" layers
    (classify ~metrics ~db Patterns_search.Search.Layers);
  check Alcotest.int "answered with zero expansions" 0
    !metrics.Patterns_search.Metrics.states_expanded;
  check_verdict "async fact answers async" async (classify ~db Patterns_search.Search.Async)

(* ----- corrupt facts fail closed -----

   A [classify_vec] fact whose sealed state-info payload has flipped
   digits (or whose digest no longer matches) is refused before it is
   unmarshalled; the vector is searched afresh and the verdict is the
   from-scratch one. *)

(* flip 64 hex digits inside the sealed payload [field] of every fact
   of [kind]; returns how many facts were touched *)
let corrupt_facts db ~kind ~field =
  let flip_digits s =
    String.mapi
      (fun i c -> if i >= 64 && i < 128 then if c = 'f' then '0' else 'f' else c)
      s
  in
  List.fold_left
    (fun touched (key, fact) ->
      match fact with
      | Json.Obj fields ->
        Db.put_fact db ~kind ~key
          (Json.Obj
             (List.map
                (fun (k, v) ->
                  match v with
                  | Json.String hex when k = field -> (k, Json.String (flip_digits hex))
                  | _ -> (k, v))
                fields));
        touched + 1
      | _ -> Alcotest.fail "fact is not an object")
    0 (Db.facts db ~kind)

let test_corrupt_fact () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  let classify ?metrics ?base () =
    Classify.classify ?metrics ?base ~max_failures:1 ~rule ~n:3
      entry.Patterns_protocols.Registry.protocol
  in
  let scratch = classify () in
  let base = Db.create () in
  ignore (classify ~base () : Classify.verdict);
  Alcotest.(check bool)
    "facts were corrupted" true
    (corrupt_facts base ~kind:"classify_vec" ~field:"smap" > 0);
  let metrics = ref Patterns_search.Metrics.zero in
  check_verdict "corrupt base ≡ scratch" scratch (classify ~metrics ~base ());
  check Alcotest.int "nothing reused" 0 !metrics.Patterns_search.Metrics.delta_reused_edges

(* ----- systematic hunt: memoized prefixes ≡ full replays ----- *)

let test_hunt_memo_oracle () =
  List.iter
    (fun entry ->
      let rule = rule_of_registry entry in
      let n =
        if entry.Patterns_protocols.Registry.fixed_n then
          entry.Patterns_protocols.Registry.default_n
        else min entry.Patterns_protocols.Registry.default_n 3
      in
      let hunt memo =
        Patterns_adversary.Hunt.hunt ~memo ~max_failures:2 ~max_runs:1_200
          ~mode:Patterns_adversary.Hunt.Systematic ~property:Audit.TC ~rule ~n ~seed:0
          entry
      in
      let a = hunt true and b = hunt false in
      Alcotest.(check bool)
        (entry.Patterns_protocols.Registry.name ^ ": memoized ≡ replayed")
        true (a = b))
    Patterns_protocols.Registry.all

let test_hunt_counters_jobs_invariant () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  (* interactive consistency holds for fig3-chain, so the sweep runs to
     its cap — a full sweep, on which the prefix tallies are
     jobs-invariant *)
  let run jobs =
    let metrics = ref Patterns_search.Metrics.zero in
    let r =
      Patterns_adversary.Hunt.hunt ~metrics ~max_failures:2 ~max_runs:2_000 ~jobs
        ~mode:Patterns_adversary.Hunt.Systematic ~property:Audit.IC ~rule ~n:3 ~seed:0
        entry
    in
    (match r with
    | Error tried -> check Alcotest.int "full sweep" 2_000 tried
    | Ok _ -> Alcotest.fail "unexpected IC violation");
    ( !metrics.Patterns_search.Metrics.prefix_hits,
      !metrics.Patterns_search.Metrics.prefix_states_saved )
  in
  let h1, s1 = run 1 and h4, s4 = run 4 in
  Alcotest.(check bool) "prefix_hits > 0" true (h1 > 0);
  Alcotest.(check bool) "prefix_states_saved > 0" true (s1 > 0);
  check Alcotest.int "hits jobs-invariant" h1 h4;
  check Alcotest.int "saved jobs-invariant" s1 s4

let test_random_mode_stream_untouched () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  let hunt memo =
    Patterns_adversary.Hunt.hunt ~memo ~max_failures:2 ~max_runs:3_000
      ~mode:Patterns_adversary.Hunt.Random ~property:Audit.TC ~rule ~n:3 ~seed:42 entry
  in
  (* [memo] must be inert in random mode: same draws, same winner, same
     certificate text *)
  Alcotest.(check bool) "random stream draw-for-draw" true (hunt true = hunt false)

(* ----- scheme memoization ----- *)

let test_scheme_base () =
  let entry = entry_exn "fig3-chain" in
  let (module P : Patterns_sim.Protocol.S) = entry.Patterns_protocols.Registry.protocol in
  let module S = Patterns_pattern.Scheme.Make (P) in
  let n = 3 in
  let inputs = [ true; true; false ] in
  let scratch = S.patterns_for_inputs ~n ~inputs () in
  let base = Db.create () in
  let first = S.patterns_for_inputs ~base ~n ~inputs () in
  let metrics = ref Patterns_search.Metrics.zero in
  let second = S.patterns_for_inputs ~metrics ~base ~n ~inputs () in
  let eq (pa, sa) (pb, sb) = Patterns_pattern.Pattern.Set.equal pa pb && sa = sb in
  Alcotest.(check bool) "first run through base ≡ scratch" true (eq scratch first);
  Alcotest.(check bool) "memoized ≡ scratch" true (eq scratch second);
  Alcotest.(check int) "no expansions on reuse" 0
    !metrics.Patterns_search.Metrics.states_expanded;
  Alcotest.(check bool) "reused derivations counted" true
    (!metrics.Patterns_search.Metrics.delta_reused_edges > 0);
  (* a smaller budget than the stored size must recompute *)
  let tiny = S.patterns_for_inputs ~base ~max_configs:3 ~n ~inputs () in
  Alcotest.(check bool) "undersized budget recomputes (truncated)" true
    (snd tiny).Patterns_pattern.Scheme.truncated;
  (* a corrupt pattern payload is refused and recomputed *)
  Alcotest.(check bool)
    "facts were corrupted" true
    (corrupt_facts base ~kind:"scheme_vec" ~field:"pats" > 0);
  let metrics = ref Patterns_search.Metrics.zero in
  let third = S.patterns_for_inputs ~metrics ~base ~n ~inputs () in
  Alcotest.(check bool) "corrupt fact ≡ scratch" true (eq scratch third);
  Alcotest.(check int) "nothing reused" 0 !metrics.Patterns_search.Metrics.delta_reused_edges

(* ----- descriptor cache: bounded fds, counted reopens ----- *)

let test_fd_reopens () =
  let d = Filename.temp_file "patterns-fd" ".d" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    (fun () ->
      let fp_of i = Fingerprint.feed Fingerprint.seed i in
      let entries i =
        [| (Spill_store.key_of_fingerprint (fp_of i), i land max_int) |]
      in
      (* 70 one-record runs against the 64-slot global descriptor
         cache: probing them all once evicts the first few, so probing
         run 0 again must transparently reopen it — and count it *)
      let runs =
        Array.init 70 (fun i ->
            let r =
              Block_file.create
                ~path:(Filename.concat d (Printf.sprintf "r%02d.blk" i))
                (entries i)
            in
            ignore
              (Block_file.probe r (Spill_store.key_of_fingerprint (fp_of i))
                : int option);
            r)
      in
      Alcotest.(check int) "no reopen on first probe" 0 (Block_file.reopens runs.(69));
      ignore (Block_file.probe runs.(0) (Spill_store.key_of_fingerprint (fp_of 0)) : int option);
      Alcotest.(check int) "evicted run reopened once" 1 (Block_file.reopens runs.(0));
      Array.iter Block_file.close runs)

let () =
  Alcotest.run "delta"
    [
      ( "classify",
        [
          Alcotest.test_case "registry reuse oracle" `Slow test_registry_reuse;
          Alcotest.test_case "added input vectors" `Quick test_added_inputs;
          Alcotest.test_case "budget gate" `Quick test_budget_gate;
          Alcotest.test_case "jobs x driver matrix" `Slow test_matrix_invariance;
          Alcotest.test_case "driver family in the key" `Quick test_driver_family_key;
          Alcotest.test_case "driver family in the verdict key" `Quick
            test_verdict_fact_driver;
          Alcotest.test_case "corrupt fact fails closed" `Quick test_corrupt_fact;
        ] );
      ( "hunt",
        [
          Alcotest.test_case "memo oracle (registry)" `Slow test_hunt_memo_oracle;
          Alcotest.test_case "counters jobs-invariant" `Quick
            test_hunt_counters_jobs_invariant;
          Alcotest.test_case "random stream untouched" `Quick
            test_random_mode_stream_untouched;
        ] );
      ( "scheme", [ Alcotest.test_case "base memo" `Quick test_scheme_base ] );
      ( "fd_cache", [ Alcotest.test_case "reopens counted" `Quick test_fd_reopens ] );
    ]
