(* Unit tests for the instrumented search kernel: strategies, budget
   truncation, goals, pruning, dedup accounting, batched goal search
   and the chain scan. *)

open Patterns_search

let check = Alcotest.check

(* A tiny synthetic graph on ints: successors of [x] are given by a
   table, so tests control branching, sharing and depth exactly. *)
module Graph (G : sig
  val succs : int -> int list
end) =
struct
  include Search.Make (struct
    type state = int

    let compare = Int.compare
    let fingerprint = Patterns_stdx.Fingerprint.of_int
    let expand = G.succs
  end)
end

(* a diamond with a tail: 0 -> {1, 2}, 1 -> 3, 2 -> 3, 3 -> 4 *)
module Diamond = Graph (struct
  let succs = function
    | 0 -> [ 1; 2 ]
    | 1 -> [ 3 ]
    | 2 -> [ 3 ]
    | 3 -> [ 4 ]
    | _ -> []
end)

let record_order strategy =
  let seen = ref [] in
  let module G = Graph (struct
    let succs x =
      seen := x :: !seen;
      match x with 0 -> [ 1; 2 ] | 1 -> [ 3; 4 ] | 2 -> [ 5; 6 ] | _ -> []
  end) in
  let outcome, _ = G.run ~strategy:(match strategy with `Bfs -> G.Bfs | `Dfs -> G.Dfs) ~root:0 () in
  (match outcome with Search.Exhausted -> () | _ -> Alcotest.fail "expected exhausted");
  List.rev !seen

let test_dfs_order () =
  (* DFS is preorder in expand's order *)
  check (Alcotest.list Alcotest.int) "dfs preorder" [ 0; 1; 3; 4; 2; 5; 6 ] (record_order `Dfs)

let test_bfs_order () =
  check (Alcotest.list Alcotest.int) "bfs levels" [ 0; 1; 2; 3; 4; 5; 6 ] (record_order `Bfs)

let test_dedup_hits () =
  let outcome, m = Diamond.run ~root:0 () in
  (match outcome with Search.Exhausted -> () | _ -> Alcotest.fail "expected exhausted");
  check Alcotest.int "expanded each node once" 5 m.Metrics.states_expanded;
  (* node 3 is reachable twice: one of the pushes is answered by the
     visited set *)
  check Alcotest.int "one dedup hit" 1 m.Metrics.dedup_hits;
  check Alcotest.int "budget consumed = expanded" m.Metrics.states_expanded
    m.Metrics.budget_consumed

let test_goal_stops () =
  let expanded_after_goal = ref false in
  let module G = Graph (struct
    let succs x =
      if x = 3 then expanded_after_goal := true;
      match x with 0 -> [ 1 ] | 1 -> [ 2 ] | 2 -> [ 3 ] | _ -> []
  end) in
  let outcome, m = G.run ~is_goal:(fun x -> x = 3) ~root:0 () in
  (match outcome with
  | Search.Goal_found 3 -> ()
  | _ -> Alcotest.fail "expected Goal_found 3");
  Alcotest.(check bool) "goal tested before expansion" false !expanded_after_goal;
  check Alcotest.int "goal counted as visited" 4 m.Metrics.states_expanded;
  Alcotest.(check string) "outcome kind" "goal_found"
    (Metrics.outcome_string m.Metrics.outcome)

let test_budget_truncates () =
  let module G = Graph (struct
    let succs x = [ (2 * x) + 1; (2 * x) + 2 ] (* infinite binary tree *)
  end) in
  let outcome, m = G.run ~budget:10 ~root:0 () in
  (match outcome with
  | Search.Truncated (Search.Budget_exhausted { budget = 10; consumed = 10 }) -> ()
  | _ -> Alcotest.fail "expected Truncated at 10");
  check Alcotest.int "expanded = budget" 10 m.Metrics.states_expanded;
  check Alcotest.int "truncated root counted" 1 m.Metrics.truncated_roots;
  Alcotest.(check bool) "truncated predicate" true (Search.truncated outcome)

let test_deadline_truncates () =
  (* a zero deadline fires at the first pop: no hang on an infinite
     graph, one metrics hit, the reason carries the elapsed time *)
  let module G = Graph (struct
    let succs x = [ (2 * x) + 1; (2 * x) + 2 ]
  end) in
  let outcome, m = G.run ~deadline:0.0 ~root:0 () in
  (match outcome with
  | Search.Truncated (Search.Deadline_exceeded { deadline; elapsed }) ->
    Alcotest.(check (float 1e-9)) "deadline recorded" 0.0 deadline;
    Alcotest.(check bool) "elapsed nonnegative" true (elapsed >= 0.0)
  | _ -> Alcotest.fail "expected Truncated (Deadline_exceeded _)");
  check Alcotest.int "deadline hit recorded" 1 m.Metrics.deadline_hits;
  check Alcotest.int "nothing expanded" 0 m.Metrics.states_expanded

let test_max_live_truncates () =
  let module G = Graph (struct
    let succs x = [ (2 * x) + 1; (2 * x) + 2 ]
  end) in
  let outcome, m = G.run ~max_live:5 ~root:0 () in
  (match outcome with
  | Search.Truncated (Search.Live_limit_exceeded { limit = 5; live }) ->
    Alcotest.(check bool) "live over the limit" true (live > 5)
  | _ -> Alcotest.fail "expected Truncated (Live_limit_exceeded _)");
  check Alcotest.int "live-limit hit recorded" 1 m.Metrics.live_limit_hits;
  (* a generous limit on a finite graph never fires *)
  let outcome, m = Diamond.run ~max_live:1_000 ~root:0 () in
  (match outcome with Search.Exhausted -> () | _ -> Alcotest.fail "expected exhausted");
  check Alcotest.int "no hit on a finite graph" 0 m.Metrics.live_limit_hits

let test_find_first_deadline () =
  (* deadline 0 stops before any batch: Error 0 and the metrics say
     both truncated and deadline-hit *)
  let metrics = ref Metrics.zero in
  (match
     Search.find_first ~metrics ~jobs:2 ~deadline:0.0 ~max_index:1_000_000
       ~f:(fun _ -> None) ()
   with
  | Error 0 -> ()
  | Error k -> Alcotest.failf "expected Error 0, got Error %d" k
  | Ok _ -> Alcotest.fail "expected no goal");
  check Alcotest.int "deadline hit recorded" 1 !metrics.Metrics.deadline_hits;
  Alcotest.(check string) "outcome is truncated" "truncated"
    (Metrics.outcome_string !metrics.Metrics.outcome)

let test_prune () =
  let module G = Graph (struct
    let succs x = if x >= 4 then [] else [ x + 1; x + 10 ]
  end) in
  let outcome, m = G.run ~prune:(fun x -> x >= 10) ~root:0 () in
  (match outcome with Search.Exhausted -> () | _ -> Alcotest.fail "expected exhausted");
  (* visits 0..4; the four reachable x+10 successors are pruned *)
  check Alcotest.int "expanded" 5 m.Metrics.states_expanded;
  check Alcotest.int "pruned" 4 m.Metrics.pruned

let test_find_first_smallest () =
  let f i = if i mod 7 = 0 then Some i else None in
  List.iter
    (fun jobs ->
      match Search.find_first ~jobs ~max_index:100 ~f () with
      | Ok 7 -> ()
      | Ok k -> Alcotest.failf "jobs=%d found %d, wanted 7" jobs k
      | Error _ -> Alcotest.failf "jobs=%d found nothing" jobs)
    [ 1; 2; 4 ];
  let metrics = ref Metrics.zero in
  (match Search.find_first ~metrics ~jobs:4 ~max_index:50 ~f:(fun _ -> None) () with
  | Error 50 -> ()
  | _ -> Alcotest.fail "expected Error 50");
  check Alcotest.int "all indices evaluated" 50 !metrics.Metrics.states_expanded;
  Alcotest.(check string) "no goal is a truncated search" "truncated"
    (Metrics.outcome_string !metrics.Metrics.outcome)

let test_scan () =
  let metrics = ref Metrics.zero in
  (match
     Search.Scan.first_error ~metrics ~len:10
       ~check:(fun i -> if i = 6 then Error i else Ok ())
       ()
   with
  | Error 6 -> ()
  | _ -> Alcotest.fail "expected Error 6");
  check Alcotest.int "stops at the error" 7 !metrics.Metrics.states_expanded;
  let m2 = ref Metrics.zero in
  (match Search.Scan.first_error ~metrics:m2 ~len:5 ~check:(fun _ -> Ok ()) () with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "expected Ok");
  Alcotest.(check string) "clean scan is exhausted" "exhausted"
    (Metrics.outcome_string !m2.Metrics.outcome)

let test_metrics_merge_and_json () =
  let _, m1 = Diamond.run ~root:0 () in
  let m = Metrics.merge (Metrics.merge Metrics.zero m1) m1 in
  check Alcotest.int "merge sums" (2 * m1.Metrics.states_expanded) m.Metrics.states_expanded;
  check Alcotest.int "merge maxes peaks" m1.Metrics.frontier_peak m.Metrics.frontier_peak;
  let json = Metrics.to_json ~shards:false m in
  List.iter
    (fun key ->
      let needle = Printf.sprintf "\"%s\":" key in
      let found =
        let ls = String.length json and ln = String.length needle in
        let rec go i = i + ln <= ls && (String.sub json i ln = needle || go (i + 1)) in
        go 0
      in
      if not found then Alcotest.failf "missing %s in %s" key json)
    [ "schema"; "outcome"; "states_expanded"; "dedup_hits"; "frontier_peak"; "pruned";
      "fingerprint_probes"; "collision_fallbacks"; "intern_bindings"; "budget_consumed";
      "roots"; "truncated_roots" ]

(* The visited store never trusts a 64-bit match alone: with a
   deliberately colliding fingerprint, membership is still resolved by
   structural equality, and the collisions are counted. *)
let test_store_collisions () =
  let store =
    Search.Store.create ~equal:Int.equal
      ~fingerprint:(fun _ -> Patterns_stdx.Fingerprint.of_int 42)
      ()
  in
  Search.Store.add store 1;
  Search.Store.add store 2;
  Search.Store.add store 1;
  check Alcotest.int "distinct states stored" 2 (Search.Store.bindings store);
  Alcotest.(check bool) "member" true (Search.Store.mem store 1);
  Alcotest.(check bool) "colliding non-member" false (Search.Store.mem store 3);
  check Alcotest.int "probes counted" 2 (Search.Store.probes store);
  Alcotest.(check bool) "collisions counted" true
    (Search.Store.collision_fallbacks store > 0)

let test_store_no_false_negatives () =
  let store =
    Search.Store.create ~equal:Int.equal ~fingerprint:Patterns_stdx.Fingerprint.of_int ()
  in
  for i = 0 to 999 do
    Search.Store.add store i
  done;
  for i = 0 to 999 do
    if not (Search.Store.mem store i) then Alcotest.failf "lost %d" i
  done;
  check Alcotest.int "bindings" 1000 (Search.Store.bindings store);
  check Alcotest.int "no collisions on distinct ints" 0
    (Search.Store.collision_fallbacks store)

let () =
  Alcotest.run "search"
    [
      ( "kernel",
        [
          Alcotest.test_case "dfs order" `Quick test_dfs_order;
          Alcotest.test_case "bfs order" `Quick test_bfs_order;
          Alcotest.test_case "dedup hits" `Quick test_dedup_hits;
          Alcotest.test_case "goal stops" `Quick test_goal_stops;
          Alcotest.test_case "budget truncates" `Quick test_budget_truncates;
          Alcotest.test_case "deadline truncates" `Quick test_deadline_truncates;
          Alcotest.test_case "max-live truncates" `Quick test_max_live_truncates;
          Alcotest.test_case "find_first deadline" `Quick test_find_first_deadline;
          Alcotest.test_case "prune" `Quick test_prune;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "find_first smallest" `Quick test_find_first_smallest;
          Alcotest.test_case "scan" `Quick test_scan;
          Alcotest.test_case "metrics merge and json" `Quick test_metrics_merge_and_json;
        ] );
      ( "store",
        [
          Alcotest.test_case "collision fallbacks" `Quick test_store_collisions;
          Alcotest.test_case "no false negatives" `Quick test_store_no_false_negatives;
        ] );
    ]
