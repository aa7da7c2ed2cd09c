open Patterns_sim
module Db = Patterns_db.Db
module Json = Patterns_stdx.Json

type verdict = {
  name : string;
  n : int;
  ic : bool;
  tc : bool;
  wt : bool;
  st : bool;
  ht : bool;
  rule_ok : bool;
  validity_ok : bool;
  all_states_safe : bool;
  corollary6 : bool;
  configs : int;
  truncated : bool;
  details : string list;
}

(* ----- execution-database facts for classification sweeps ----- *)

(* The fact key names every parameter the verdict depends on,
   including the driver family: the sweep is jobs-invariant, but the
   two drivers can visit different numbers of nodes on one space
   (explore.mli), so a verdict recorded under one must not answer the
   other.  Facts of the default driver ([Async]) keep the key they had
   before the driver was part of it, so databases recorded at the
   default stay valid (and saved databases stay byte-identical); the
   serial reference's facts carry [|mode=layers].  Databases written
   with the old layered driver used the unmarked key too, so their
   facts still answer [Async] queries (classify.mli).  The deadline is excluded, but deadline-bounded
   sweeps are never *stored* — their truncation point is wall-clock
   dependent, so their verdicts are not reproducible facts. *)
let fact_key ~name ~rule ~n ~max_failures ~max_configs ~fifo_notices ~max_live ~par_mode
    ~inputs_choices =
  let vec v = String.concat "" (List.map (fun b -> if b then "1" else "0") v) in
  Printf.sprintf "%s|%d|%s|mf=%d|mc=%d|fifo=%b|ml=%s%s|iv=%s" name n
    (Format.asprintf "%a" Patterns_protocols.Decision_rule.pp rule)
    max_failures max_configs fifo_notices
    (match max_live with None -> "-" | Some l -> string_of_int l)
    (match par_mode with
    | Patterns_search.Search.Async -> ""
    | Patterns_search.Search.Layers -> "|mode=layers")
    (String.concat "," (List.map vec inputs_choices))

let verdict_to_fact v =
  Json.Obj
    [
      ("name", Json.String v.name);
      ("n", Json.Int v.n);
      ("ic", Json.Bool v.ic);
      ("tc", Json.Bool v.tc);
      ("wt", Json.Bool v.wt);
      ("st", Json.Bool v.st);
      ("ht", Json.Bool v.ht);
      ("rule_ok", Json.Bool v.rule_ok);
      ("validity_ok", Json.Bool v.validity_ok);
      ("all_states_safe", Json.Bool v.all_states_safe);
      ("corollary6", Json.Bool v.corollary6);
      ("configs", Json.Int v.configs);
      ("truncated", Json.Bool v.truncated);
      ("details", Json.List (List.map (fun s -> Json.String s) v.details));
    ]

let verdict_of_fact j =
  let ( let* ) = Option.bind in
  let b k = Option.bind (Json.member k j) (fun v -> Result.to_option (Json.to_bool v)) in
  let* name = Option.bind (Json.member "name" j) (fun v -> Result.to_option (Json.to_str v)) in
  let* n = Option.bind (Json.member "n" j) (fun v -> Result.to_option (Json.to_int v)) in
  let* ic = b "ic" in
  let* tc = b "tc" in
  let* wt = b "wt" in
  let* st = b "st" in
  let* ht = b "ht" in
  let* rule_ok = b "rule_ok" in
  let* validity_ok = b "validity_ok" in
  let* all_states_safe = b "all_states_safe" in
  let* corollary6 = b "corollary6" in
  let* configs =
    Option.bind (Json.member "configs" j) (fun v -> Result.to_option (Json.to_int v))
  in
  let* truncated = b "truncated" in
  let* details =
    Option.bind (Json.member "details" j) (fun v ->
        match v with
        | Json.List xs ->
          List.fold_left
            (fun acc x ->
              match (acc, x) with
              | Some acc, Json.String s -> Some (s :: acc)
              | _ -> None)
            (Some []) xs
          |> Option.map List.rev
        | _ -> None)
  in
  Some
    {
      name;
      n;
      ic;
      tc;
      wt;
      st;
      ht;
      rule_ok;
      validity_ok;
      all_states_safe;
      corollary6;
      configs;
      truncated;
      details;
    }

let classify ?metrics ?db ?base ?max_failures ?max_configs ?inputs_choices
    ?(fifo_notices = false) ?(jobs = 1) ?par_mode ?deadline ?max_live ?spill
    ?checkpoint ~rule ~n (module P : Protocol.S) =
  let module X = Explore.Make (P) in
  let defaults = X.default_options ~n in
  let max_failures = Option.value max_failures ~default:defaults.X.max_failures in
  let max_configs = Option.value max_configs ~default:defaults.X.max_configs in
  let inputs_choices = Option.value inputs_choices ~default:defaults.X.inputs_choices in
  let par_mode = Option.value par_mode ~default:defaults.X.par_mode in
  let key =
    fact_key ~name:P.name ~rule ~n ~max_failures ~max_configs ~fifo_notices ~max_live
      ~par_mode ~inputs_choices
  in
  let merge_db_metrics db s0 =
    let s1 = Db.stats db in
    Patterns_search.Search.merge_into metrics
      (Patterns_search.Metrics.with_db ~edges:s1.Db.edges
         ~index_scans:(s1.Db.index_scans - s0.Db.index_scans)
         ~cache_hits:(s1.Db.cache_hits - s0.Db.cache_hits)
         ~cache_misses:(s1.Db.cache_misses - s0.Db.cache_misses)
         Patterns_search.Metrics.zero)
  in
  let cached =
    match db with
    | None -> None
    | Some db ->
      let s0 = Db.stats db in
      let v = Option.bind (Db.get_fact db ~kind:"classify" ~key) verdict_of_fact in
      (* a hit answers the sweep with zero kernel expansions: only the
         database counters move *)
      if v <> None then merge_db_metrics db s0;
      v
  in
  match cached with
  | Some v -> v
  | None ->
    let s0 = Option.map Db.stats db in
    let edge_sink =
      Option.map (fun db ~src ~event ~dst -> Db.add_edge db ~src ~event ~dst) db
    in
    let options =
      {
        X.max_failures;
        max_configs;
        inputs_choices;
        fifo_notices;
        jobs;
        par_mode;
        deadline;
        max_live;
        edge_sink;
        spill;
        checkpoint;
        base;
      }
    in
    let r = X.explore ?metrics ~options ~rule ~n () in
    let detail name = Option.map (fun v -> name ^ ": " ^ v) in
    let v =
      {
        name = P.name;
        n;
        ic = r.X.ic_violation = None;
        tc = r.X.tc_violation = None;
        wt = r.X.wt_violation = None;
        st = r.X.st_violation = None;
        ht = r.X.ht_violation = None;
        rule_ok = r.X.rule_violation = None;
        validity_ok = r.X.validity_violation = None;
        all_states_safe = X.unsafe_states r = [];
        corollary6 = X.corollary6_holds r;
        configs = r.X.configs_visited;
        truncated = r.X.truncated;
        details =
          List.filter_map Fun.id
            [
              detail "IC" r.X.ic_violation;
              detail "TC" r.X.tc_violation;
              detail "WT" r.X.wt_violation;
              detail "ST" r.X.st_violation;
              detail "HT" r.X.ht_violation;
              detail "rule" r.X.rule_violation;
              detail "validity" r.X.validity_violation;
            ];
      }
    in
    (match (db, s0) with
    | Some db, Some s0 ->
      (* deadline-bounded sweeps are recorded (their edges are real)
         but their verdicts are not stored: the truncation point is
         wall-clock dependent *)
      if deadline = None then Db.put_fact db ~kind:"classify" ~key (verdict_to_fact v);
      merge_db_metrics db s0
    | _ -> ());
    v

let solves v (problem : Taxonomy.t) =
  let consistency_ok =
    match problem.Taxonomy.consistency with Taxonomy.IC -> v.ic | Taxonomy.TC -> v.tc
  in
  let termination_ok =
    match problem.Taxonomy.termination with
    | Taxonomy.WT -> v.wt
    | Taxonomy.ST -> v.st
    | Taxonomy.HT -> v.ht
  in
  consistency_ok && termination_ok && v.rule_ok && v.validity_ok

let best_problem v =
  let candidates =
    (* strongest first *)
    Taxonomy.
      [ make TC HT; make IC HT; make TC ST; make IC ST; make TC WT; make IC WT ]
  in
  List.find_opt (solves v) candidates

let pp ppf v =
  let b ppf x = Format.pp_print_string ppf (if x then "yes" else "NO") in
  Format.fprintf ppf
    "@[<v>%s (n=%d, %d configs%s)@,\
    \  IC=%a TC=%a  WT=%a ST=%a HT=%a  rule=%a validity=%a safe-states=%a cor6=%a@,\
    \  strongest problem solved: %s@]"
    v.name v.n v.configs
    (if v.truncated then ", truncated" else "")
    b v.ic b v.tc b v.wt b v.st b v.ht b v.rule_ok b v.validity_ok b v.all_states_safe
    b v.corollary6
    (match best_problem v with None -> "none" | Some p -> Taxonomy.short_name p)
