open Patterns_sim
open Patterns_search

type stats = {
  configs_visited : int;
  terminal_configs : int;
  truncated : bool;
}

let pp_stats ppf s =
  Format.fprintf ppf "visited=%d terminal=%d%s" s.configs_visited s.terminal_configs
    (if s.truncated then " (TRUNCATED)" else "")

type realization =
  | Realized of Action.t list
  | Unrealizable
  | Truncated

module Make (P : Protocol.S) = struct
  module E = Engine.Make (P)

  (* One root per input vector; all bookkeeping (frontier, visited
     set, budget, counters) lives in the kernel — this layer only
     says how a configuration expands and what to collect at
     terminals. *)

  module Pr = struct
    type state = E.config

    let compare = E.compare_config
    let fingerprint = E.fingerprint

    (* expansion without observation, shared by every driver below:
       reversed, because the historical stack discipline explored the
       last applicable action first, and truncated counts are pinned
       to that order by the jobs-invariance tests *)
    let successors c actions = List.rev_map (fun a -> fst (E.apply_exn ~step:0 c a)) actions
    let expand c = successors c (E.applicable c)
  end

  module K = Search.Make (Pr)

  (* Observation accumulator: one per serial search, one per
     work-stealing worker.  [seen_pats] is the terminal-pattern cache:
     distinct terminal configurations mostly repeat a handful of
     patterns, and extraction ([Pattern.make]) is far more expensive
     than a fingerprint probe.  Keyed by [E.pattern_fp]; a hit is only
     trusted when [E.same_pattern_rep] confirms it on the interned
     representation, so a fingerprint collision merely costs one
     redundant extraction.  The cache is accumulator-local (dropped
     at merge), so it never leaks observations across accumulators —
     [Pattern.Set.union] dedups structurally either way. *)
  type obs = {
    mutable pats : Pattern.Set.t;
    mutable terminal : int;
    mutable edges : int;
        (* successor derivations performed — exact and
           driver-independent, recorded into the base fact so a reuse
           can report how much work it skipped *)
    seen_pats : (int, E.config list) Hashtbl.t;
  }

  let obs_expand =
    {
      K.empty =
        (fun () ->
          {
            pats = Pattern.Set.empty;
            terminal = 0;
            edges = 0;
            seen_pats = Hashtbl.create 16;
          });
      merge =
        (fun a b ->
          a.pats <- Pattern.Set.union a.pats b.pats;
          a.terminal <- a.terminal + b.terminal;
          a.edges <- a.edges + b.edges;
          a);
      expand =
        (fun o c ->
          match E.applicable c with
          | [] ->
            o.terminal <- o.terminal + 1;
            let key = Patterns_stdx.Fingerprint.to_int (E.pattern_fp c) in
            let bucket = Option.value (Hashtbl.find_opt o.seen_pats key) ~default:[] in
            if not (List.exists (E.same_pattern_rep c) bucket) then begin
              Hashtbl.replace o.seen_pats key (c :: bucket);
              o.pats <-
                Pattern.Set.add (Pattern.make (E.triples_of c) (E.pattern_edges c)) o.pats
            end;
            []
          | actions ->
            let succs = Pr.successors c actions in
            o.edges <- o.edges + List.length succs;
            succs);
    }

  (* ----- per-vector base facts, kind ["scheme_vec"] -----

     The failure-free pattern enumeration injects no failures, so the
     base database is a pure memo: a fact stores the pattern set
     (sealed, {!Patterns_stdx.Hex.seal}), the stats and the exact
     derivation count of one fully enumerated vector, and a later run
     with the same (protocol, n, vector) and a budget at least as
     large reuses it wholesale.  Deadline- or live-limited runs
     neither store nor consume facts. *)

  let scheme_vec_key ~n ~inputs =
    Printf.sprintf "%s|%d|vec=%s" P.name n
      (String.concat "" (List.map (fun b -> if b then "1" else "0") inputs))

  let scheme_vec_fact ~configs ~terminal ~edges pats =
    let module Json = Patterns_stdx.Json in
    Json.Obj
      [
        ("configs", Json.Int configs);
        ("terminal", Json.Int terminal);
        ("edges_gen", Json.Int edges);
        ("pats", Json.String (Patterns_stdx.Hex.seal (Array.of_list (Pattern.Set.elements pats))));
      ]

  let scheme_vec_of_fact j =
    let module Json = Patterns_stdx.Json in
    let exception Bad in
    let get k = match Json.member k j with Some v -> v | None -> raise Bad in
    let int k = match Json.to_int (get k) with Ok i -> i | Error _ -> raise Bad in
    let str k = match Json.to_str (get k) with Ok s -> s | Error _ -> raise Bad in
    try
      let pats : Pattern.t array =
        match Patterns_stdx.Hex.unseal (str "pats") with Some a -> a | None -> raise Bad
      in
      Some
        ( int "configs",
          int "terminal",
          int "edges_gen",
          Array.fold_left (fun acc p -> Pattern.Set.add p acc) Pattern.Set.empty pats )
    with Bad | Invalid_argument _ | Failure _ -> None

  (* [obs] merging is union/sum — commutative as well as associative —
     so the async driver's worker-order fold collects the same pattern
     set and terminal count as the serial driver's visitation-order
     fold. *)
  let patterns_for_inputs_m ?pool ?(par_mode = Search.Async)
      ?(max_configs = 1_000_000) ?deadline ?max_live ?spill ?base ~n ~inputs () =
    let base =
      match base with
      | Some db when deadline = None && max_live = None -> Some db
      | _ -> None
    in
    let cached =
      Option.bind base (fun db ->
          Option.bind
            (Patterns_db.Db.get_fact db ~kind:"scheme_vec" ~key:(scheme_vec_key ~n ~inputs))
            scheme_vec_of_fact)
    in
    match cached with
    | Some (configs, terminal, edges, pats) when configs <= max_configs ->
      ( ( pats,
          { configs_visited = configs; terminal_configs = terminal; truncated = false } ),
        Metrics.with_incremental ~delta_reused_edges:edges Metrics.zero )
    | _ ->
      let root = E.init ~n ~inputs in
      let outcome, o, m =
        K.run_driver ~par_mode ?pool ~budget:max_configs ?deadline ?max_live ?spill
          ~expand:obs_expand ~root ()
      in
      let m = Metrics.with_intern_bindings (E.intern_bindings root) m in
      let truncated = Search.truncated outcome in
      (match base with
      | Some db when (not truncated) && m.Metrics.deadline_hits = 0 ->
        Patterns_db.Db.put_fact db ~kind:"scheme_vec" ~key:(scheme_vec_key ~n ~inputs)
          (scheme_vec_fact ~configs:m.Metrics.states_expanded ~terminal:o.terminal
             ~edges:o.edges o.pats)
      | _ -> ());
      ( ( o.pats,
          {
            configs_visited = m.Metrics.states_expanded;
            terminal_configs = o.terminal;
            truncated;
          } ),
        m )

  let patterns_for_inputs ?metrics ?(jobs = 1) ?par_mode ?max_configs ?deadline ?max_live
      ?spill ?base ~n ~inputs () =
    let result, m =
      Patterns_stdx.Domain_pool.with_pool ~jobs (fun pool ->
          patterns_for_inputs_m ~pool ?par_mode ?max_configs ?deadline ?max_live ?spill
            ?base ~n ~inputs ())
    in
    Search.merge_into metrics m;
    result

  (* The checkpoint header encodes everything a per-root payload
     depends on: protocol, n, the per-root budget knobs, the driver
     family, the spill budget (which shifts the /7 counters inside
     recorded metrics) and any extra client key (realization targets).
     [jobs] and [deadline] are deliberately absent — jobs never
     changes a payload, and deadline-truncated roots are never
     recorded. *)
  let checkpoint_header ~kind ?max_configs ?max_live ?par_mode ?spill ?(extra = "") ~n ()
      =
    let opt = function None -> "-" | Some i -> string_of_int i in
    Printf.sprintf "%s/1|%s|n=%d|mc=%s|ml=%s|mode=%s|spill=%s%s" kind P.name n
      (opt max_configs) (opt max_live)
      (Search.par_mode_string (Option.value par_mode ~default:Search.Async))
      (opt (Option.map (fun s -> s.Search.mem_budget) spill))
      (if extra = "" then "" else "|" ^ extra)

  let open_checkpoint spec ~header =
    Option.map
      (fun spec ->
        match Checkpoint.create spec ~header with
        | Ok t -> t
        | Error e -> failwith e)
      spec

  (* Realization runs on the serial breadth-first driver: the
     documented shortest-witness guarantee needs its first-generation
     visiting order, and realization is prune-heavy, which the
     work-stealing driver would pay for on every duplicate generation.
     [jobs] is accepted for interface stability and ignored. *)
  let realize ?metrics ?jobs:_ ?(max_configs = 1_000_000) ?deadline ?max_live ?spill
      ?checkpoint ~n ~inputs ~target () =
    (* the accumulated pattern must be a prefix of the target: its
       triples a subset, and the orders in agreement *)
    let prefix_ok c =
      let here = Pattern.make (E.triples_of c) (E.pattern_edges c) in
      Pattern.is_prefix_consistent here target
    in
    let module R = struct
      (* A configuration plus the reversed event path that reached it;
         dedup ignores the path, exactly like the old recursive DFS.
         [acts] memoizes [E.applicable], which both the goal test and
         the expansion need; both run on the domain that visits the
         state, so the lazy is never forced concurrently. *)
      type state = { c : E.config; path : Action.t list; acts : Action.t list Lazy.t }

      let make c path = { c; path; acts = lazy (E.applicable c) }
      let compare a b = E.compare_config a.c b.c
      let fingerprint s = E.fingerprint s.c
      let expand _ = assert false
    end in
    let module K = Search.Make (R) in
    let expand =
      {
        K.empty = Fun.id;
        merge = (fun () () -> ());
        expand =
          (fun () s ->
            List.map
              (fun a -> R.make (fst (E.apply_exn ~step:0 s.R.c a)) (a :: s.R.path))
              (Lazy.force s.R.acts));
      }
    in
    let is_goal s =
      Lazy.force s.R.acts = []
      && Pattern.equal (Pattern.make (E.triples_of s.R.c) (E.pattern_edges s.R.c)) target
    in
    let prune s = not (prefix_ok s.R.c) in
    (* the target (and input vector) are part of what the recorded
       answer depends on; a structural digest keys them into the
       header *)
    let header =
      checkpoint_header ~kind:"realize" ~max_configs:max_configs ?max_live
        ~par_mode:Search.Layers ?spill
        ~extra:
          (Printf.sprintf "key=%s"
             (Digest.to_hex (Digest.string (Marshal.to_string (inputs, target) []))))
        ~n ()
    in
    let ckpt = open_checkpoint checkpoint ~header in
    match Option.bind ckpt (fun t -> Checkpoint.find t 0) with
    | Some (r, m) ->
      Search.merge_into metrics m;
      r
    | None ->
      let root_config = E.init ~n ~inputs in
      let outcome, (), m =
        K.run_serial ~strategy:K.Bfs ~budget:max_configs ?deadline ?max_live ?spill
          ~is_goal ~prune ~expand ~root:(R.make root_config []) ()
      in
      let m = Metrics.with_intern_bindings (E.intern_bindings root_config) m in
      Search.merge_into metrics m;
      let r =
        match outcome with
        | Search.Goal_found s -> Realized (List.rev s.R.path)
        | Search.Exhausted -> Unrealizable
        | Search.Truncated _ -> Truncated
      in
      if m.Metrics.deadline_hits = 0 then
        Option.iter (fun t -> Checkpoint.record t 0 (r, m)) ckpt;
      r

  let merge_stats a b =
    {
      configs_visited = a.configs_visited + b.configs_visited;
      terminal_configs = a.terminal_configs + b.terminal_configs;
      truncated = a.truncated || b.truncated;
    }

  (* Input vectors are part of every configuration, so no configuration
     is reachable from two different vectors: the roots partition the
     state space.  The parallelism is *intra*-root — the work-stealing
     driver spreads each root's search across the pool — so the outer
     loop over vectors stays on the pool-owning domain (nested pool
     maps are not supported) and merges payloads and metrics in vector
     order, bit-identical for every [jobs]. *)
  let scheme ?metrics ?max_configs ?deadline ?max_live ?(jobs = 1) ?par_mode ?spill
      ?checkpoint ~n () =
    (* [deadline] bounds the whole sweep, so each root receives the
       time remaining when its turn comes; a root starting past the
       deadline gets a zero allowance and truncates immediately *)
    let t_end = Option.map (fun d -> Search.now () +. d) deadline in
    let remaining () = Option.map (fun te -> Float.max 0. (te -. Search.now ())) t_end in
    let header = checkpoint_header ~kind:"scheme" ?max_configs ?max_live ?par_mode ?spill ~n () in
    let ckpt = open_checkpoint checkpoint ~header in
    let result, m =
      Patterns_stdx.Domain_pool.with_pool ~jobs (fun pool ->
          List.fold_left
            (fun ((acc, st), ms) (i, inputs) ->
              let (pats, st'), m =
                match Option.bind ckpt (fun t -> Checkpoint.find t i) with
                | Some payload -> payload
                | None ->
                  let ((_, _), m) as fresh =
                    patterns_for_inputs_m ~pool ?par_mode ?max_configs
                      ?deadline:(remaining ()) ?max_live ?spill ~n ~inputs ()
                  in
                  (* deadline truncation is wall-clock-dependent;
                     recording it would bake nondeterminism into a
                     resumed sweep, so such roots re-run instead *)
                  if m.Metrics.deadline_hits = 0 then
                    Option.iter (fun t -> Checkpoint.record t i fresh) ckpt;
                  fresh
              in
              ( (Pattern.Set.union acc pats, merge_stats st st'),
                Metrics.merge ms (Metrics.with_root_index i m) ))
            ( ( Pattern.Set.empty,
                { configs_visited = 0; terminal_configs = 0; truncated = false } ),
              Metrics.zero )
            (List.mapi
               (fun i v -> (i, v))
               (Patterns_stdx.Listx.all_bool_vectors n)))
    in
    Search.merge_into metrics m;
    result
end

let subscheme a b = Pattern.Set.subset a b

let equal_schemes a b = Pattern.Set.equal a b

let pp_scheme ppf s =
  let pats = Pattern.Set.elements s in
  Format.fprintf ppf "@[<v>%d pattern(s):@," (List.length pats);
  List.iteri (fun i p -> Format.fprintf ppf "-- pattern %d --@,%a@," (i + 1) Pattern.pp p) pats;
  Format.fprintf ppf "@]"
