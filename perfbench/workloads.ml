(* The four workloads as fixed query pools.

   A pool is a list of slots; a slot is a list of alternative groups,
   and a group is a list of steps that run back to back (a hunt and the
   replay of the certificate it found).  Each pass of a run draws one
   alternative per slot and shuffles the slots, both from the
   workload seed, so the library sees only the generated queries.
   Every step is one query — one public call, or a load and the call
   that uses it — and the unit of latency.  It returns its answer as a
   thunk that is forced after the clock stops, so checking an answer
   never counts as answering it. *)

open Patterns_sim
open Patterns_core
open Patterns_adversary
module Registry = Patterns_protocols.Registry
module Metrics = Patterns_search.Metrics
module Scheme = Patterns_pattern.Scheme
module Pattern = Patterns_pattern.Pattern

type answer = (string * string) list

type step = {
  id : string;  (** unique within the workload *)
  pin : string;  (** the pinned answer this step must reproduce *)
  fields : string list option;  (** compare only these fields; [None]: all *)
  run : unit -> unit -> answer;
  order_check : (unit -> bool) option;
      (** for pin generation: whether the answer's state count depends
          on the search driver's visit order *)
}

type group = step list
type slot = group list

type ctx = { jobs : int; tmp : string }

let step ?pin ?fields ?order_check id run =
  { id; pin = Option.value pin ~default:id; fields; run; order_check }

let render (a : answer) = String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) a)
let b = string_of_bool
let i = string_of_int

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> failwith ("unknown protocol " ^ name)

(* the decision rule the command-line tool classifies each registry
   protocol against *)
let rule_of name =
  let open Patterns_protocols.Decision_rule in
  match name with
  | "ben-or" -> Any_input
  | "reliable-broadcast" -> Broadcast 0
  | "termination" -> Threshold 1
  | "voting-star-thr3-5" -> Threshold 3
  | "voting-star-subset-5" -> Subset [ 0; 1 ]
  | _ -> Unanimity

let protocol name = Wrap.protocol (entry name).Registry.protocol

(* ----- one public call, with its span and per-layer accounting ----- *)

type kind = Search_call | Hunt_call | Other_call

let sum_shards (m : Metrics.t) =
  List.fold_left (fun acc (s : Metrics.shard) -> acc +. s.Metrics.seconds) 0. m.Metrics.shards

let account ~layer ~kind ~jobs ~name ~t0 (d : Wrap.totals) (m : Metrics.t) =
  let open Tracer in
  let dur = Clock.now () - t0 in
  let j = float_of_int jobs in
  add (name ^ "_s") (Clock.seconds dur);
  add "protocols.transitions" (float_of_int d.Wrap.transitions);
  add "protocols.state_compares" (float_of_int d.Wrap.compares);
  (* protocol code runs inside the call; CPU time summed over worker
     domains is divided by [jobs] to express it in wall time *)
  ignore
    (aggregate ~layer:"protocols" "protocols.calls" ~count:(d.Wrap.transitions + d.Wrap.compares)
       (int_of_float ((d.Wrap.step_ns +. d.Wrap.compare_ns) /. j)));
  match kind with
  | Search_call ->
    let busy = sum_shards m in
    add "search.states_expanded" (float_of_int m.Metrics.states_expanded);
    add "search.dedup_hits" (float_of_int m.Metrics.dedup_hits);
    add "search.fingerprint_probes" (float_of_int m.Metrics.fingerprint_probes);
    add "search.busy_s" busy;
    max_ "search.frontier_peak" (float_of_int m.Metrics.frontier_peak);
    add "search.par.expand_s" m.Metrics.expand_seconds;
    add "search.par.idle_s" m.Metrics.idle_seconds;
    add "search.par.steals" (float_of_int m.Metrics.steals);
    add "search.par.cas_retries" (float_of_int m.Metrics.cas_retries);
    add "search.par.lock_contention" (float_of_int m.Metrics.lock_contention);
    if m.Metrics.expand_seconds > 0. then add "search.par.call_s" (j *. Clock.seconds dur);
    add "spill.write_bytes" (float_of_int m.Metrics.spill_write_bytes);
    add "spill.read_bytes" (float_of_int m.Metrics.spill_read_bytes);
    add "spill.probes" (float_of_int m.Metrics.spill_probes);
    add "spill.runs" (float_of_int m.Metrics.spill_runs);
    add "spill.fd_reopens" (float_of_int m.Metrics.spill_fd_reopens);
    add "db.index_scans" (float_of_int m.Metrics.db_index_scans);
    add "db.cache_hits" (float_of_int m.Metrics.db_cache_hits);
    add "db.cache_misses" (float_of_int m.Metrics.db_cache_misses);
    add "db.reused_edges" (float_of_int m.Metrics.delta_reused_edges);
    (* the kernel's own time is what its drivers measured outside
       successor expansion; only the in-memory explore layers are
       split this way — a spilled or recording search's store time
       belongs to the layer that asked for it *)
    if (layer = "core" || layer = "pattern") && m.Metrics.expand_seconds > 0. then
      ignore
        (aggregate ~layer:"search" "search.kernel" ~count:m.Metrics.states_expanded
           (int_of_float (1e9 *. (busy -. (m.Metrics.expand_seconds /. j)))))
  | Hunt_call ->
    add "adversary.runs" (float_of_int m.Metrics.states_expanded);
    add "adversary.prefix_hits" (float_of_int m.Metrics.prefix_hits);
    add "adversary.prefix_states_saved" (float_of_int m.Metrics.prefix_states_saved);
    add "adversary.drops_injected" (float_of_int m.Metrics.drops_injected)
  | Other_call ->
    add "db.index_scans" (float_of_int m.Metrics.db_index_scans);
    add "db.cache_hits" (float_of_int m.Metrics.db_cache_hits);
    add "db.cache_misses" (float_of_int m.Metrics.db_cache_misses)

let call ?(kind = Other_call) ?(jobs = 1) ~layer name f =
  if not !Tracer.on then f (ref Metrics.zero)
  else
    Tracer.span ~layer name (fun () ->
        let before = Wrap.totals () in
        let t0 = Clock.now () in
        let metrics = ref Metrics.zero in
        let r = f metrics in
        account ~layer ~kind ~jobs ~name ~t0 (Wrap.diff (Wrap.totals ()) before) !metrics;
        r)

(* Replay reports its database counters in the metrics it returns;
   queries leave them in the database's own statistics. *)
let replay_call ?db c metrics =
  let v, m = Replay.replay_metrics ?db c in
  Patterns_search.Search.merge_into (Some metrics) m;
  (v, m)

let db_query db f metrics =
  let s0 = Patterns_db.Db.stats db in
  let r = f () in
  let s1 = Patterns_db.Db.stats db in
  let open Patterns_db.Db in
  metrics :=
    Metrics.with_db ~edges:s1.edges ~index_scans:(s1.index_scans - s0.index_scans)
      ~cache_hits:(s1.cache_hits - s0.cache_hits) ~cache_misses:(s1.cache_misses - s0.cache_misses)
      !metrics;
  r

(* ----- explore: scheme, classify, realize ----- *)

let all_ones n = List.init n (fun _ -> true)

let scheme_step ctx name n =
  step (Printf.sprintf "scheme:%s:%d" name n) (fun () ->
      let (module P : Protocol.S) = protocol name in
      let module S = Scheme.Make (P) in
      let pats, st =
        call ~kind:Search_call ~jobs:ctx.jobs ~layer:"pattern" "pattern.scheme" (fun metrics ->
            S.scheme ~metrics ~jobs:ctx.jobs ~n ())
      in
      fun () ->
        let count = Pattern.Set.cardinal pats in
        Tracer.add "pattern.patterns" (float_of_int count);
        (* the traced run answers the same query a second way *)
        if !Tracer.on then begin
          let p = Probe.scheme (protocol name) ~n in
          if p.Probe.patterns <> count || p.Probe.visited <> st.Scheme.configs_visited then
            failwith
              (Printf.sprintf "kernel probe disagrees: %d patterns, %d states" p.Probe.patterns
                 p.Probe.visited)
        end;
        [
          ("patterns", i count);
          ("visited", i st.Scheme.configs_visited);
          ("terminal", i st.Scheme.terminal_configs);
          ("truncated", b st.Scheme.truncated);
        ])

let verdict_answer (v : Classify.verdict) =
  Tracer.add "core.truncated_queries" (if v.Classify.truncated then 1. else 0.);
  [
    ("ic", b v.Classify.ic);
    ("tc", b v.Classify.tc);
    ("wt", b v.Classify.wt);
    ("st", b v.Classify.st);
    ("ht", b v.Classify.ht);
    ("rule", b v.Classify.rule_ok);
    ("validity", b v.Classify.validity_ok);
    ("safe", b v.Classify.all_states_safe);
    ("cor6", b v.Classify.corollary6);
    ("configs", i v.Classify.configs);
    ("truncated", b v.Classify.truncated);
  ]

let classify_id name n mf cap =
  Printf.sprintf "classify:%s:%d:mf%d%s" name n mf
    (match cap with None -> "" | Some c -> Printf.sprintf ":cap%d" c)

let classify_step ctx ?cap name n mf =
  let id = classify_id name n mf cap in
  (* A truncated search under the work-stealing driver visits a
     schedule-dependent subset: only its size and the truncation flag
     are fixed.  On protocols whose state count depends on visit order
     (classify.mli: counts that differ between the two parallel
     drivers) the count at jobs > 1 is schedule-dependent too, so only
     the verdict flags are compared there. *)
  let fields =
    if ctx.jobs = 1 then None
    else if cap <> None then Some [ "configs"; "truncated" ]
    else if List.mem id Pin_table.order_sensitive then
      Some [ "ic"; "tc"; "wt"; "st"; "ht"; "rule"; "validity"; "safe"; "cor6"; "truncated" ]
    else None
  in
  let classify ?par_mode ~jobs metrics =
    Classify.classify ~metrics ~max_failures:mf ?max_configs:cap ~jobs ?par_mode
      ~rule:(rule_of name) ~n (protocol name)
  in
  let order_check () =
    let configs par_mode = (classify ~par_mode ~jobs:1 (ref Metrics.zero)).Classify.configs in
    configs Patterns_search.Search.Async <> configs Patterns_search.Search.Layers
  in
  step ?fields ~order_check id (fun () ->
      let v =
        call ~kind:Search_call ~jobs:ctx.jobs ~layer:"core" "core.classify" (classify ~jobs:ctx.jobs)
      in
      fun () -> verdict_answer v)

let realize_step ctx ?target_of ?(k = 1) ?(cap = 1_000_000) name n =
  let id =
    Printf.sprintf "realize:%s:%d:%s#%d:cap%d" name n (Option.value target_of ~default:name) k cap
  in
  let inputs = all_ones n in
  (* fixture: the target pattern, taken from the serial reference *)
  let target =
    let (module T : Protocol.S) = (entry (Option.value target_of ~default:name)).Registry.protocol in
    let module ST = Scheme.Make (T) in
    List.nth (Pattern.Set.elements (fst (ST.patterns_for_inputs ~n ~inputs ()))) (k - 1)
  in
  step id (fun () ->
      let (module P : Protocol.S) = protocol name in
      let module S = Scheme.Make (P) in
      let r =
        call ~kind:Search_call ~jobs:ctx.jobs ~layer:"pattern" "pattern.realize" (fun metrics ->
            S.realize ~metrics ~jobs:ctx.jobs ~max_configs:cap ~n ~inputs ~target ())
      in
      fun () ->
        match r with
        | Scheme.Realized acts ->
          (* the witness must play back to exactly the target *)
          let c, _ =
            List.fold_left
              (fun (c, k) a -> (fst (S.E.apply_exn ~step:k c a), k + 1))
              (S.E.init ~n ~inputs, 0) acts
          in
          let ok = Pattern.equal (Pattern.make (S.E.triples_of c) (S.E.pattern_edges c)) target in
          [ ("result", "realized"); ("events", i (List.length acts)); ("witness", b ok) ]
        | Scheme.Unrealizable -> [ ("result", "unrealizable") ]
        | Scheme.Truncated -> [ ("result", "truncated") ])

let explore ctx : slot list =
  let one s = [ [ s ] ] in
  List.map one
    [
      scheme_step ctx "fig1-tree" 7;
      scheme_step ctx "tree-2pc" 7;
      scheme_step ctx "fig4-perverse" 4;
      scheme_step ctx "fig4-perverse-st" 4;
      scheme_step ctx "fig2-central" 4;
      scheme_step ctx "fig2-central" 3;
      scheme_step ctx "fig3-chain" 4;
      scheme_step ctx "fig3-chain" 3;
      scheme_step ctx "fig3-chain-st" 4;
      scheme_step ctx "reliable-broadcast" 3;
      scheme_step ctx "d2pc" 3;
      scheme_step ctx "2pc" 3;
      scheme_step ctx "2pc" 5;
      scheme_step ctx "coop-2pc" 3;
      scheme_step ctx "coop-2pc" 4;
      scheme_step ctx "3pc-5" 5;
      scheme_step ctx "tree-2pc-star-5" 5;
      scheme_step ctx "voting-star-thr3-5" 5;
      scheme_step ctx "voting-star-subset-5" 5;
      classify_step ctx "fig3-chain" 3 1;
      classify_step ctx "fig3-chain" 3 2;
      classify_step ctx "2pc" 3 1;
      classify_step ctx "coop-2pc" 3 1;
      classify_step ctx "fig2-central" 3 1;
      classify_step ctx "fig3-chain-st" 3 1;
      classify_step ctx "reliable-broadcast" 3 1;
      (* the one query whose visited set is far larger than the caches *)
      classify_step ctx ~cap:40_000 "fig3-chain" 4 1;
      realize_step ctx "fig3-chain" 3;
      realize_step ctx ~target_of:"fig2-central" "fig3-chain" 3;
      realize_step ctx ~cap:5 "fig2-central" 4;
      realize_step ctx ~k:5 "fig2-central" 4;
      realize_step ctx ~k:9 "fig2-central" 4;
      realize_step ctx ~k:3 "fig4-perverse" 4;
      realize_step ctx "tree-2pc" 7;
      realize_step ctx "fig1-tree" 7;
    ]

(* ----- adversary: hunt, certificate codec, replay, shrink ----- *)

let property_string = Cert.property_string

(* a shrunk certificate must still replay as a violation: checked by a
   live replay once the clock has stopped *)
let shrink_answer = function
  | Ok rep ->
    let c = rep.Shrink.cert in
    [
      ("n", i c.Cert.n);
      ("directives", i (List.length c.Cert.script));
      ("replays", i rep.Shrink.replays);
      ("reproduced", b (match Replay.replay c with Replay.Reproduced _ -> true | _ -> false));
    ]
  | Error e -> [ ("error", e) ]

let hunt_group ?(fault_budget = 2) ~mode ~space ~property ~runs ~seed name n : group =
  let id =
    Printf.sprintf "hunt:%s:%d:%s:%s:%s:b%d:r%d%s" name n (property_string property)
      (Hunt.mode_string mode) (Plan.space_string space) fault_budget runs
      (if mode = Hunt.Random then Printf.sprintf ":s%d" seed else "")
  in
  let cert = ref None in
  let found () = match !cert with Some c -> c | None -> failwith "no certificate to consume" in
  let hunt =
    step id (fun () ->
        let r =
          call ~kind:Hunt_call ~layer:"adversary" "adversary.hunt" (fun metrics ->
              Hunt.hunt ~metrics ~max_failures:fault_budget ~max_runs:runs ~jobs:1 ~mode ~space
                ~property ~rule:(rule_of name) ~n ~seed (Wrap.entry (entry name)))
        in
        (match r with Ok c -> cert := Some c | Error _ -> cert := None);
        fun () ->
          if !Tracer.on then Probe.linear (protocol name) ~n;
          match r with
          | Ok c ->
            let headline = List.hd (String.split_on_char '\n' c.Cert.message) in
            [
              ("found", headline);
              ("message_md5", Digest.to_hex (Digest.string c.Cert.message));
              ("directives", i (List.length c.Cert.script));
            ]
          | Error tried -> [ ("found", "none"); ("tried", i tried) ])
  in
  let codec =
    step (id ^ "/codec") (fun () ->
        let c = found () in
        let doc, back =
          call ~layer:"adversary" "adversary.cert_codec" (fun _ ->
              let doc = Patterns_stdx.Json.to_string (Cert.to_json c) in
              (doc, Result.bind (Patterns_stdx.Json.of_string doc) Cert.of_json))
        in
        fun () ->
          [
            ("bytes", i (String.length doc));
            ("roundtrip", b (match back with Ok c' -> c' = c | Error _ -> false));
          ])
  in
  let replay_answer (v, (m : Metrics.t)) =
    [ ("verdict", Format.asprintf "%a" Replay.pp v); ("plays", i m.Metrics.states_expanded) ]
  in
  let replay =
    step (id ^ "/replay") (fun () ->
        let c = found () in
        let r = call ~layer:"adversary" "adversary.replay" (replay_call c) in
        fun () -> replay_answer r)
  in
  let shrink =
    step (id ^ "/shrink") (fun () ->
        let c = found () in
        let r = call ~layer:"adversary" "adversary.shrink" (fun _ -> Shrink.shrink c) in
        fun () -> shrink_answer r)
  in
  [ hunt; codec; replay; shrink ]

(* groups of hunts that find nothing stop after the hunt *)
let hunt_only ?fault_budget ~mode ~space ~property ~runs ?(seed = 1984) name n : group =
  [ List.hd (hunt_group ?fault_budget ~mode ~space ~property ~runs ~seed name n) ]

let random_seeds = [ 1984; 7; 42 ]

let adversary _ctx : slot list =
  let open Plan in
  let sys = Hunt.Systematic and rnd = Hunt.Random in
  let random_slot ?fault_budget ~space ~property ~runs name n =
    List.map
      (fun seed -> hunt_group ?fault_budget ~mode:rnd ~space ~property ~runs ~seed name n)
      random_seeds
  in
  [
    [ hunt_group ~mode:sys ~space:Crash_only ~property:Audit.TC ~runs:2000 ~seed:0 "2pc" 3 ];
    [ hunt_group ~mode:sys ~space:Crash_only ~property:Audit.WT ~runs:2000 ~seed:0 "coop-2pc" 3 ];
    [ hunt_group ~mode:sys ~space:Crash_only ~property:Audit.TC ~runs:2000 ~seed:0 "fig3-chain" 3 ];
    [ hunt_group ~mode:sys ~space:Omission ~property:Audit.TC ~runs:2000 ~seed:0 "2pc" 4 ];
    random_slot ~space:Crash_only ~property:Audit.TC ~runs:2000 "2pc" 3;
    random_slot ~space:Crash_only ~property:Audit.TC ~runs:2000 "d2pc" 3;
    [ hunt_only ~mode:sys ~space:Crash_only ~property:Audit.IC ~runs:2000 "fig3-chain" 3 ];
    [ hunt_only ~mode:sys ~space:Crash_only ~property:Audit.WT ~runs:2000 "fig2-central" 3 ];
    (* within a few thousand plans the systematic sweep of the wider
       spaces still decodes only crash plans; the random adversary draws
       omission faults from the first run on *)
    [ hunt_only ~mode:sys ~space:Mobile ~property:Audit.Agreement ~runs:2000 "reliable-broadcast" 4 ];
    [ hunt_only ~mode:rnd ~space:Omission ~property:Audit.Agreement ~runs:1000 "reliable-broadcast" 4 ];
    [ hunt_only ~mode:rnd ~space:Mobile ~property:Audit.Agreement ~runs:1000 "reliable-broadcast" 4 ];
    [ hunt_only ~mode:rnd ~space:Mobile ~property:Audit.Agreement ~runs:500 "ben-or" 3 ];
    random_slot ~space:Omission ~property:Audit.WT ~runs:1000 "fig3-chain" 3;
    [ hunt_only ~mode:sys ~space:Crash_only ~property:Audit.TC ~runs:500 "3pc-5" 5 ];
    [ hunt_only ~mode:sys ~space:Omission ~property:Audit.WT ~runs:1000 "fig2-central" 4 ];
    List.map
      (fun seed -> hunt_only ~mode:rnd ~space:Crash_only ~property:Audit.TC ~runs:1000 ~seed "3pc-5" 5)
      random_seeds;
  ]

(* ----- persist: edge database, base facts, spill store, checkpoints ----- *)

let persist ctx : slot list =
  let path f = Filename.concat ctx.tmp f in
  let n = 3 in
  let classify ?db ?base ?spill ?checkpoint ?(mf = 1) name metrics =
    Classify.classify ~metrics ?db ?base ?spill ?checkpoint ~max_failures:mf ~jobs:1
      ~rule:(rule_of name) ~n (protocol name)
  in
  let load file = match Patterns_db.Db.load file with Ok db -> db | Error e -> failwith e in
  let checkpoint file resume = { Patterns_search.Checkpoint.file; resume; kill_after = None } in
  (* fixtures: certificates and a database that has recorded their
     replays, shrinks and certificate facts; a base of per-vector facts;
     a saved edge log; a complete checkpoint *)
  let cert name property =
    match
      Hunt.hunt ~max_failures:2 ~max_runs:2000 ~mode:Hunt.Systematic ~property
        ~rule:(rule_of name) ~n ~seed:0 (entry name)
    with
    | Ok c -> c
    | Error _ -> failwith ("fixture hunt found nothing on " ^ name)
  in
  let certs = [ ("2pc", cert "2pc" Audit.TC); ("coop-2pc", cert "coop-2pc" Audit.WT) ] in
  let replay_db = Patterns_db.Db.create () in
  let shrunk =
    List.map
      (fun (name, c) ->
        ignore (Replay.replay ~db:replay_db c);
        Patterns_db.Db.put_fact replay_db ~kind:"cert" ~key:name
          (Patterns_stdx.Json.Obj
             [
               ( "crashes",
                 Patterns_stdx.Json.List (List.map (fun p -> Patterns_stdx.Json.Int p) (Cert.crashes c)) );
               ("cert", Cert.to_json c);
             ]);
        match Shrink.shrink ~db:replay_db c with
        | Ok rep ->
          ignore (Replay.replay ~db:replay_db rep.Shrink.cert);
          (name, rep.Shrink.cert)
        | Error e -> failwith e)
      certs
  in
  (* base facts for fig2-central: small enough for a read query, and its
     state count does not depend on visit order, so reuse and widening
     are bit-identical to from-scratch under the default driver
     (classify.mli) *)
  let base_proto = "fig2-central" in
  let base_file = path "base.jsonl" in
  let base = Patterns_db.Db.create () in
  ignore (classify ~base base_proto (ref Metrics.zero));
  Patterns_db.Db.save base base_file;
  let edges_file = path "edges.jsonl" in
  let edges_db = Patterns_db.Db.create () in
  ignore (classify ~db:edges_db "coop-2pc" (ref Metrics.zero));
  Patterns_db.Db.save edges_db edges_file;
  let fps =
    match Patterns_db.Db.edges edges_db () with
    | [] -> failwith "fixture edge log is empty"
    | es ->
      let srcs = Array.of_list (List.sort_uniq compare (List.map (fun (s, _, _) -> s) es)) in
      List.map (fun k -> srcs.(k * (Array.length srcs - 1) / 3)) [ 0; 1; 2 ]
  in
  let pairs =
    List.map
      (fun src ->
        let r = Patterns_db.Query.reachable edges_db src in
        (src, List.nth r (List.length r / 2)))
      fps
  in
  let ckpt_file = path "full.ckpt" in
  ignore (classify ~checkpoint:(checkpoint ckpt_file false) "fig3-chain" (ref Metrics.zero));
  let scratch name mf = classify_id name n mf None in
  let single s = [ [ s ] ] in
  let reads =
    [
      step "db.load:edges" (fun () ->
          let db = call ~layer:"db" "db.load" (fun _ -> load edges_file) in
          fun () -> [ ("edges", i (Patterns_db.Db.stats db).Patterns_db.Db.edges) ]);
      step "db.load:base" (fun () ->
          let db = call ~layer:"db" "db.load" (fun _ -> load base_file) in
          fun () -> [ ("facts", i (List.length (Patterns_db.Db.facts db ~kind:"classify_vec"))) ]);
      (* wholesale reuse of a base recorded at the same fault bound *)
      step ~pin:(scratch base_proto 1) "db.base-reuse" (fun () ->
          let base = call ~layer:"db" "db.load" (fun _ -> load base_file) in
          let v = call ~kind:Search_call ~layer:"db" "db.classify_base" (classify ~base ~mf:1 base_proto) in
          fun () -> verdict_answer v);
      (* the semi-naive widening rung: base at one failure, query at two *)
      step ~pin:(scratch base_proto 2) "db.base-widen" (fun () ->
          let base = call ~layer:"db" "db.load" (fun _ -> load base_file) in
          let v = call ~kind:Search_call ~layer:"db" "db.classify_base" (classify ~base ~mf:2 base_proto) in
          fun () -> verdict_answer v);
      step ~pin:(scratch "fig3-chain" 1) "spill.resume" (fun () ->
          let v =
            call ~kind:Search_call ~layer:"spill" "spill.checkpoint"
              (classify ~checkpoint:(checkpoint ckpt_file true) "fig3-chain")
          in
          fun () -> verdict_answer v);
    ]
    @ List.mapi
        (fun k src ->
          step (Printf.sprintf "db.reachable:%d" k) (fun () ->
              let r = call ~layer:"db" "db.query" (db_query edges_db (fun () -> Patterns_db.Query.reachable edges_db src)) in
              fun () -> [ ("reachable", i (List.length r)) ]))
        fps
    @ List.mapi
        (fun k (src, dst) ->
          step (Printf.sprintf "db.path:%d" k) (fun () ->
              let r = call ~layer:"db" "db.query" (db_query edges_db (fun () -> Patterns_db.Query.path edges_db ~src ~dst)) in
              fun () -> [ ("length", match r with Some p -> i (List.length p) | None -> "none") ]))
        pairs
    @ [
        step "db.successors" (fun () ->
            let r = call ~layer:"db" "db.query" (db_query edges_db (fun () -> Patterns_db.Query.successors edges_db (List.hd fps))) in
            fun () -> [ ("successors", i (List.length r)) ]);
      ]
    @ List.map
        (fun p ->
          step (Printf.sprintf "db.certs-touching:p%d" p) (fun () ->
              let r = call ~layer:"db" "db.query" (db_query replay_db (fun () -> Patterns_db.Query.certs_touching replay_db p)) in
              fun () -> [ ("certs", String.concat "," (List.map fst r)) ]))
        [ 0; 1; 2 ]
    @ List.concat_map
        (fun (name, c) ->
          let hunt_id =
            Printf.sprintf "hunt:%s:3:%s:systematic:crash:b2:r2000" name (property_string c.Cert.property)
          in
          let indexed id pin c =
            (* an indexed replay agrees with the live one and plays no
               engine step *)
            step ~pin ~fields:[ "verdict" ] id (fun () ->
                let v, (m : Metrics.t) =
                  call ~layer:"db" "db.replay" (replay_call ~db:replay_db c)
                in
                fun () ->
                  if m.Metrics.states_expanded <> 0 then failwith "indexed replay played the engine";
                  [ ("verdict", Format.asprintf "%a" Replay.pp v) ])
          in
          [
            indexed ("db.replay:" ^ name) (hunt_id ^ "/replay") c;
            indexed ("db.replay-shrunk:" ^ name) ("db.replay-shrunk:" ^ name) (List.assoc name shrunk);
            step ~pin:(hunt_id ^ "/shrink") ("db.shrink:" ^ name) (fun () ->
                let r = call ~layer:"db" "db.shrink" (fun _ -> Shrink.shrink ~db:replay_db c) in
                fun () -> shrink_answer r);
          ])
        certs
  in
  let writes =
    [
      (let db = ref None in
       [
         step ~pin:(scratch "coop-2pc" 1) "db.record" (fun () ->
             let fresh = Patterns_db.Db.create () in
             let v = call ~kind:Search_call ~layer:"db" "db.record" (classify ~db:fresh "coop-2pc") in
             db := Some fresh;
             fun () ->
               Tracer.add "db.edges" (float_of_int (Patterns_db.Db.stats fresh).Patterns_db.Db.edges);
               verdict_answer v);
         step "db.save" (fun () ->
             let d = match !db with Some d -> d | None -> failwith "nothing recorded" in
             let file = path "written.jsonl" in
             call ~layer:"db" "db.save" (fun _ -> Patterns_db.Db.save d file);
             fun () ->
               let bytes = (Unix.stat file).Unix.st_size in
               Tracer.add "db.bytes" (float_of_int bytes);
               [ ("bytes", i bytes) ]);
       ]);
      [
        step ~pin:(scratch "fig3-chain" 1) "spill.classify" (fun () ->
            let spill = { Patterns_search.Search.dir = path "spill"; mem_budget = 2048 } in
            let v = call ~kind:Search_call ~layer:"spill" "spill.classify" (classify ~spill "fig3-chain") in
            fun () -> verdict_answer v);
      ];
      [
        step ~pin:(scratch "fig3-chain" 1) "spill.checkpoint-write" (fun () ->
            let v =
              call ~kind:Search_call ~layer:"spill" "spill.checkpoint"
                (classify ~checkpoint:(checkpoint (path "written.ckpt") false) "fig3-chain")
            in
            fun () -> verdict_answer v);
      ];
    ]
  in
  List.map single reads @ List.map (fun g -> [ g ]) writes

(* From-scratch answers that only cross-path steps refer to: answered
   when pins are generated, never timed. *)
let references () = [ classify_step { jobs = 1; tmp = "" } "fig2-central" 3 2 ]

let names = [ "explore"; "explore-par"; "adversary"; "persist" ]

let build ~tmp = function
  | "explore" -> explore { jobs = 1; tmp }
  | "explore-par" -> explore { jobs = 2; tmp }
  | "adversary" -> adversary { jobs = 1; tmp }
  | "persist" -> persist { jobs = 1; tmp }
  | w -> invalid_arg ("unknown workload " ^ w)
