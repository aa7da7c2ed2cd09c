(* Benchmark runner.  One process runs one workload: it builds the
   workload's query pool and fixtures (set-up), then answers seeded
   passes over the pool as one closed-loop client — the next query is
   sent when the previous answer is back — until [--seconds] have
   passed, checking every answer against its pin.  It prints one JSON
   line of raw metric values; run.py turns it into the result line.

   With [--trace 1] passes alternate between untraced and traced; the
   traced ones record spans and counters (tracer.ml, wrap.ml,
   probe.ml) from which the per-layer metrics are reduced, and the
   untraced ones give the base for the tracing overhead. *)

open Workloads

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let tmp = ref ""
let setup_only = ref false
let print_pins = ref false
let slow_ns = ref 0.
let calibrate = ref false
let spans_file = ref ""

let usage = "perfbench --workload W --seed N --seconds S --trace 0|1 --tmp DIR"

let specs =
  [
    ("--workload", Arg.Set_string workload, "W one of: " ^ String.concat ", " Workloads.names);
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S how long to measure");
    ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or the traced per-layer run");
    ("--tmp", Arg.Set_string tmp, "DIR scratch directory for fixtures and written files");
    ("--setup-only", Arg.Set setup_only, " build the pool and fixtures, then exit");
    ("--print-pins", Arg.Set print_pins, " answer every pool query serially and print pins.ml");
    ("--slow-ns", Arg.Set_float slow_ns, "NS spin this long in every protocol transition");
    ("--calibrate", Arg.Set calibrate, " print protocol transitions per pass and the raw pass wall");
    ("--spans", Arg.Set_string spans_file, "FILE write the traced run's spans as JSON lines");
  ]

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* ----- statistics ----- *)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    (* linear interpolation between closest ranks *)
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ----- passes ----- *)

(* [latency] is scaled to the reference host speed (reference.ml);
   [raw] is the wall-clock latency as read *)
type sample = { latency : float; raw : float; ok : bool }

let shuffle rng l =
  let a = Array.of_list l in
  for k = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let failures = ref []

(* the host-speed factor of every pass, for the provenance line *)
let factors = ref []

(* real time the last pass took, everything included: what the next
   one is expected to take *)
let last_pass_s = ref 0.

(* time spent checking answers, the probes included: the benchmark's
   own work, left out of the traced pass wall *)
let checking = ref 0

let check (s : step) answer =
  let project a =
    match s.fields with None -> a | Some fs -> List.filter (fun (k, _) -> List.mem k fs) a
  in
  match Pins.find s.pin with
  | None -> Error ("no pin for " ^ s.pin)
  | Some expected ->
    let got = render (project answer) in
    let want = render (project expected) in
    if got = want then Ok () else Error (Printf.sprintf "%s: got {%s}, pinned {%s}" s.id got want)

let run_step s =
  let t0 = Clock.now () in
  let outcome = try Ok (s.run ()) with e -> Error (Printexc.to_string e) in
  let t1 = Clock.now () in
  let latency = Clock.seconds (t1 - t0) in
  let verdict =
    match outcome with
    | Error e -> Error (s.id ^ ": raised " ^ e)
    | Ok answer -> ( try check s (answer ()) with e -> Error (s.id ^ ": " ^ Printexc.to_string e))
  in
  checking := !checking + (Clock.now () - t1);
  (match verdict with
  | Ok () -> ()
  | Error e -> if List.length !failures < 5 then failures := e :: !failures);
  incr Tracer.query;
  { latency; raw = latency; ok = Result.is_ok verdict }

(* One pass over the pool: seeded order and draws, or pool order and
   first alternatives when [canonical].  Each group starts from a
   collected heap, as each command-line query starts in a fresh
   process: otherwise a query would pay for the major collection of
   whatever the queries drawn before it left behind, and its latency
   would depend on the draw order.  The host-speed sample is taken on
   that collected heap, so the library's leftover garbage cannot slow
   the reference loop.  Neither the collection nor the sample is timed.
   Returns each slot's scaled and raw latency (its group's summed step
   latencies), the step samples, and the pass's elapsed time without
   the collections and the answer checks. *)
let pass ?(canonical = false) ~jobs rng slots =
  let indexed = List.mapi (fun k s -> (k, s)) slots in
  let order = if canonical then indexed else shuffle rng indexed in
  let collecting = ref 0 in
  let checked = !checking in
  let refs = ref [] in
  let t0 = Clock.now () in
  let per_slot =
    List.map
      (fun (k, alternatives) ->
        let group =
          if canonical then List.hd alternatives
          else List.nth alternatives (Random.State.int rng (List.length alternatives))
        in
        let c0 = Clock.now () in
        Gc.full_major ();
        refs := Reference.sample ~jobs :: !refs;
        collecting := !collecting + (Clock.now () - c0);
        (k, List.map run_step group))
      order
  in
  (* one host-speed factor per pass: the drift it corrects lasts
     seconds, and a median over the pass's reference samples is steadier
     than any single one *)
  let factor = Reference.factor !refs in
  factors := factor :: !factors;
  let per_slot =
    List.map (fun (k, ss) -> (k, List.map (fun s -> { s with latency = s.raw *. factor }) ss)) per_slot
  in
  let samples = List.concat_map snd per_slot in
  let slot_latency =
    List.map
      (fun (k, ss) -> (k, List.fold_left (fun a s -> a +. s.latency) 0. ss, List.fold_left (fun a s -> a +. s.raw) 0. ss))
      per_slot
  in
  (* elapsed time less the runner's own collections and checks: the
     base of the traced run's per-layer split *)
  let total = Clock.now () - t0 in
  last_pass_s := Clock.seconds total;
  (slot_latency, samples, Clock.seconds (total - !collecting - (!checking - checked)))

(* A pass's wall time is the sum of its slot latencies.  The run's
   [wall_s] sums each slot's median latency over the passes: the time
   to answer the whole list once, robust to a pass that overlapped a
   burst of load from outside the process, which a median of whole
   pass walls is not when bursts last seconds. *)
let pass_wall slot_latency = List.fold_left (fun a (_, l, _) -> a +. l) 0. slot_latency

let slot_median_wall ?(raw = false) passes =
  let by_slot = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, l, r) ->
         let l = if raw then r else l in
         Hashtbl.replace by_slot k (l :: Option.value (Hashtbl.find_opt by_slot k) ~default:[])))
    passes;
  Hashtbl.fold (fun _ ls acc -> acc +. median ls) by_slot 0.

(* ----- per-layer reduction of the traced passes ----- *)

(* The program's layers.  Engine steps run inside the library's calls,
   where no public callback exposes them, so [sim] has no self time of
   its own here: it stays in the layer whose call ran it, and the
   probes' [probe.sim] share shows its weight. *)
let layers = [ "protocols"; "search"; "pattern"; "core"; "adversary"; "db"; "spill" ]

(* the probes' layers, reported as shares of the probes' own time *)
let probe_layers = [ "search"; "sim"; "protocols"; "pattern" ]

let per_layer ~jobs ~traced_walls ~untraced_walls ~gc ~top_heap_words =
  let t = float_of_int (List.length traced_walls) in
  let wall = List.fold_left ( +. ) 0. traced_walls in
  let g = Tracer.get in
  let per x = x /. t in
  let ratio a b = if b > 0. then a /. b else 0. in
  let self = Tracer.self_by_layer () in
  let self_s l = Clock.seconds (Option.value (Hashtbl.find_opt self l) ~default:0) in
  let attributed = List.fold_left (fun acc l -> acc +. self_s l) 0. layers in
  let probe_self l = self_s ("probe." ^ l) in
  (* the probe's spans are all in probe layers, its instrument included *)
  let probe_s = List.fold_left (fun acc l -> acc +. probe_self l) (probe_self "trace") probe_layers in
  let untraced = List.fold_left ( +. ) 0. untraced_walls /. float_of_int (List.length untraced_walls) in
  let states = g "search.states_expanded" in
  let runs = g "adversary.runs" in
  let mean_ns calls ns = ratio (g ns) (g calls) in
  List.map (fun l -> (l ^ ".self_s", per (self_s l))) layers
  @ ("probe.wall_s", per probe_s)
    :: List.map (fun l -> ("probe." ^ l ^ "_share", ratio (probe_self l) probe_s)) probe_layers
  @ [
      ("sim.apply_calls", per (g "sim.apply_calls"));
      ("sim.apply_ns", mean_ns "sim.apply_calls" "probe.apply_ns");
      ("sim.applicable_ns", mean_ns "probe.applicable_calls" "probe.applicable_ns");
      ("sim.fingerprint_ns", mean_ns "probe.fingerprint_calls" "probe.fingerprint_ns");
      ("protocols.transitions", per (g "protocols.transitions"));
      ("protocols.state_compares", per (g "protocols.state_compares"));
      ("search.states_expanded", per states);
      ("search.dedup_ratio", ratio (g "search.dedup_hits") (g "search.dedup_hits" +. states));
      ("search.fingerprint_probes", per (g "search.fingerprint_probes"));
      ("search.states_per_busy_s", ratio states (g "search.busy_s"));
      ("search.frontier_peak", g "search.frontier_peak");
      ( "search.par.busy_share",
        if jobs > 1 then ratio (g "search.par.expand_s") (g "search.par.call_s") else 0. );
      ("search.par.idle_s", per (g "search.par.idle_s"));
      ("search.par.steals", per (g "search.par.steals"));
      ("search.par.cas_retries", per (g "search.par.cas_retries"));
      ("search.par.lock_contention", per (g "search.par.lock_contention"));
      ("pattern.extract_s", per (g "pattern.extract_s"));
      ("pattern.scheme_s", per (g "pattern.scheme_s" +. g "pattern.realize_s"));
      ("pattern.patterns", per (g "pattern.patterns"));
      ("core.classify_s", per (g "core.classify_s"));
      ("core.truncated_queries", per (g "core.truncated_queries"));
      ("adversary.runs", per runs);
      ("adversary.runs_per_s", ratio runs (g "adversary.hunt_s"));
      ("adversary.prefix_hit_ratio", ratio (g "adversary.prefix_hits") runs);
      ("adversary.prefix_states_saved", per (g "adversary.prefix_states_saved"));
      ("adversary.drops_injected", per (g "adversary.drops_injected"));
      ("adversary.hunt_s", per (g "adversary.hunt_s"));
      ("adversary.replay_s", per (g "adversary.replay_s"));
      ("adversary.shrink_s", per (g "adversary.shrink_s"));
      ("adversary.cert_codec_s", per (g "adversary.cert_codec_s"));
      ("db.record_s", per (g "db.record_s"));
      ("db.save_s", per (g "db.save_s"));
      ("db.bytes", per (g "db.bytes"));
      ("db.edges", per (g "db.edges"));
      ("db.load_s", per (g "db.load_s"));
      ("db.index_scans", per (g "db.index_scans"));
      ("db.cache_hit_ratio", ratio (g "db.cache_hits") (g "db.cache_hits" +. g "db.cache_misses"));
      ("db.replay_s", per (g "db.replay_s"));
      ("db.query_s", per (g "db.query_s"));
      ("db.reused_edges", per (g "db.reused_edges"));
      ("spill.write_bytes", per (g "spill.write_bytes"));
      ("spill.read_bytes", per (g "spill.read_bytes"));
      ("spill.probes", per (g "spill.probes"));
      ("spill.runs", per (g "spill.runs"));
      ("spill.fd_reopens", per (g "spill.fd_reopens"));
      ("spill.classify_s", per (g "spill.classify_s"));
      ("spill.checkpoint_s", per (g "spill.checkpoint_s"));
      ("gc.minor_words_per_state", ratio (gc "minor_words") states);
      ("gc.minor_collections", per (gc "minor_collections"));
      ("gc.major_collections", per (gc "major_collections"));
      ("gc.promoted_words", per (gc "promoted_words"));
      ("gc.top_heap_mb", float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.);
      ("trace.wall_s", per wall);
      ("trace.unattributed_s", per (wall -. attributed));
      ("trace.overhead_ratio", ratio (per wall) untraced -. 1.);
    ]

(* ----- output ----- *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

let emit ~attempted ~failed ~walls ~raw_wall ~samples metrics =
  let fields = List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_number v)) metrics in
  let fails = List.map (fun e -> Printf.sprintf "%S" e) (List.rev !failures) in
  Printf.printf
    "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"pass_walls\": [%s], \"raw_wall_s\": %s, \"host_factor\": %s, \"raw_p50_ms\": %s, \"raw_p90_ms\": %s, \"attempted\": %d, \"failed\": %d, \"ocaml\": %S, \"failures\": [%s], \"metrics\": {%s}}\n%!"
    !workload !seed !trace
    (String.concat ", " (List.rev_map json_number walls))
    (json_number raw_wall) (json_number (median !factors))
    (json_number (quantile 0.5 (List.map (fun s -> s.raw *. 1000.) samples)))
    (json_number (quantile 0.9 (List.map (fun s -> s.raw *. 1000.) samples)))
    attempted failed Sys.ocaml_version (String.concat ", " fails)
    (String.concat ", " fields)

(* at least this many latency samples, so the p90 has ten beyond it *)
let min_samples = 100

(* per-slot medians need a few passes *)
let min_passes = 3

(* never measure past this, whatever [--seconds] says *)
let hard_cap_s = 150.

let () =
  Arg.parse specs (fun a -> die ("unexpected argument " ^ a)) usage;
  if !print_pins then begin
    if !tmp = "" then die "--tmp is required";
    mkdir_p !tmp;
    Pins.print_all ~tmp:!tmp;
    exit 0
  end;
  if not (List.mem !workload Workloads.names) then die ("unknown workload " ^ !workload);
  if !tmp = "" then die "--tmp is required";
  mkdir_p !tmp;
  if !slow_ns > 0. then
    Wrap.mode := Wrap.Slowed (int_of_float (!slow_ns *. Lazy.force Clock.spins_per_ns));
  let slow_mode = !Wrap.mode in
  let slots = Workloads.build ~tmp:!tmp !workload in
  if !setup_only then begin
    (* run.py scales the set-up time it measures by this factor *)
    Printf.printf "{\"host_factor\": %s}\n" (json_number (Reference.factor [ Reference.sample ~jobs:1 ]));
    exit 0
  end;
  let jobs = if !workload = "explore-par" then 2 else 1 in
  let rng = Random.State.make [| !seed |] in
  if !calibrate then begin
    (* one counted pass, then untraced passes for the raw wall time: the
       self-test derives its per-transition slowdown from these *)
    Wrap.mode := Wrap.Counted;
    Tracer.on := true;
    ignore (pass ~jobs rng slots);
    Tracer.on := false;
    let transitions = Tracer.get "protocols.transitions" in
    Wrap.mode := Wrap.Raw;
    let raw_walls =
      List.init 3 (fun _ ->
          let sl, _, _ = pass ~jobs rng slots in
          List.fold_left (fun a (_, _, r) -> a +. r) 0. sl)
    in
    Printf.printf "{\"transitions\": %s, \"raw_wall_s\": %s}\n" (json_number transitions)
      (json_number (median raw_walls));
    exit 0
  end;
  let start = Clock.now () in
  let elapsed () = Clock.seconds (Clock.now () - start) in
  let walls = ref [] and samples = ref [] and slot_passes = ref [] in
  let rss = ref nan in
  let traced_walls = ref [] and untraced_walls = ref [] in
  (* Gc counter deltas summed over the traced passes *)
  let gc_delta = Hashtbl.create 4 in
  let top_heap_words = ref 0 in
  (* start another pass while it is expected to end within [--seconds]
     (a pass takes about as long as the last one), and in any case
     until the samples and passes the metrics need are in *)
  let continue_ () =
    let t = elapsed () in
    let next = !last_pass_s in
    t < hard_cap_s
    && (t +. next <= !seconds
       || List.length !samples < min_samples
       || List.length !walls < min_passes
       || (!trace = 1 && (!traced_walls = [] || !untraced_walls = [])))
  in
  while continue_ () do
    if !trace = 1 && List.length !walls mod 2 = 1 then begin
      (* a traced pass: Gc deltas are summed over traced passes only *)
      Wrap.mode := Wrap.Counted;
      Tracer.on := true;
      let g0 = Gc.quick_stat () in
      let sl, s, elapsed = pass ~jobs rng slots in
      let g1 = Gc.quick_stat () in
      Tracer.on := false;
      Wrap.mode := slow_mode;
      List.iter
        (fun (k, f) ->
          Hashtbl.replace gc_delta k
            (f g1 -. f g0 +. Option.value (Hashtbl.find_opt gc_delta k) ~default:0.))
        [
          ("minor_words", fun g -> g.Gc.minor_words);
          ("promoted_words", fun g -> g.Gc.promoted_words);
          ("minor_collections", fun g -> float_of_int g.Gc.minor_collections);
          ("major_collections", fun g -> float_of_int g.Gc.major_collections);
        ];
      top_heap_words := g1.Gc.top_heap_words;
      traced_walls := elapsed :: !traced_walls;
      walls := pass_wall sl :: !walls;
      slot_passes := sl :: !slot_passes;
      samples := s @ !samples
    end
    else begin
      let sl, s, elapsed = pass ~canonical:(!walls = []) ~jobs rng slots in
      if !trace = 1 then untraced_walls := elapsed :: !untraced_walls;
      walls := pass_wall sl :: !walls;
      slot_passes := sl :: !slot_passes;
      samples := s @ !samples
    end;
    (* The peak resident set over set-up and the first pass, which
       answers the pool in pool order: a fixed sequence of work, so the
       figure neither depends on the draw nor grows with the number of
       passes a host happens to fit into the run. *)
    if List.length !walls = 1 then rss := peak_rss_mb ()
  done;
  let attempted = List.length !samples in
  let failed = List.length (List.filter (fun s -> not s.ok) !samples) in
  let latencies_ms = List.map (fun s -> s.latency *. 1000.) !samples in
  let metrics =
    if !trace = 0 then
      [
        ("wall_s", slot_median_wall !slot_passes);
        ("query_p50_ms", quantile 0.5 latencies_ms);
        ("query_p90_ms", quantile 0.9 latencies_ms);
        ("peak_rss_mb", !rss);
        ("correct_share", float_of_int (attempted - failed) /. float_of_int attempted);
      ]
    else begin
      if !spans_file <> "" then Tracer.write_jsonl !spans_file;
      per_layer ~jobs ~traced_walls:!traced_walls ~untraced_walls:!untraced_walls
        ~gc:(fun k -> Option.value (Hashtbl.find_opt gc_delta k) ~default:0.)
        ~top_heap_words:!top_heap_words
    end
  in
  emit ~attempted ~failed ~walls:!walls ~raw_wall:(slot_median_wall ~raw:true !slot_passes)
    ~samples:!samples metrics
