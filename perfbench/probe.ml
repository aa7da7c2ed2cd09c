(* Probes: benchmark-side re-runs of a query's work through the
   library's public parts, with every callback timed.

   The kernel probe is a benchmark-side scheme enumeration built from the
   same public parts the library's own uses — [Search.Make] over
   [Engine.Make (P)]'s [applicable], [apply_exn], [fingerprint],
   [compare_config] and pattern extraction — with every callback
   timed.  The kernel's self time is the probe span minus its callback
   spans, which separates [search] from [sim] and [pattern] without a
   span inside the library.  The probe's pattern and state counts must
   equal the public [Scheme.scheme] answer for the same query, so it
   also checks that answer a second way.

   A probe is the benchmark's work, not the program's: it runs while an
   answer is checked, outside the traced pass wall, and its spans carry
   [probe.]-prefixed layers, which the program's layer totals leave out.
   What it yields is ratios within the probe — each layer's share of the
   probe's time, mean nanoseconds per engine callback. *)

open Patterns_sim
open Patterns_pattern

type acc = { mutable n : int; mutable ns : int }

let acc () = { n = 0; ns = 0 }

let[@inline] stop a t0 =
  a.n <- a.n + 1;
  a.ns <- a.ns + max 0 (Clock.now () - t0 - Clock.overhead)

type result = { patterns : int; visited : int }

(* Charge the timed engine callbacks to [probe.sim] as aggregate spans
   under the open probe span, the protocol time [d] measured meanwhile
   to [probe.protocols] under the callbacks it ran in, and two clock
   reads per timed callback — outside the corrected intervals — to
   [probe.trace], the instrument. *)
let charge ~apply ~applicable ?(cmp = acc ()) ?(fp = acc ()) ?(extract = acc ()) (d : Wrap.totals) =
  let agg ?under layer name a = Tracer.aggregate ?under ~layer name ~count:a.n a.ns in
  let under span name count ns =
    Option.iter
      (fun under -> ignore (Tracer.aggregate ~under ~layer:"probe.protocols" name ~count (int_of_float ns)))
      span
  in
  (* protocol transitions and state hashing run inside apply, state
     comparison inside compare_config *)
  under (agg "probe.sim" "sim.apply" apply) "protocols.step" d.Wrap.transitions d.Wrap.step_ns;
  under (agg "probe.sim" "sim.compare" cmp) "protocols.compare" d.Wrap.compares d.Wrap.compare_ns;
  ignore (agg "probe.sim" "sim.applicable" applicable);
  ignore (agg "probe.sim" "sim.fingerprint" fp);
  ignore (agg "probe.pattern" "pattern.extract" extract);
  let timed = applicable.n + apply.n + fp.n + cmp.n + extract.n in
  ignore (Tracer.aggregate ~layer:"probe.trace" "trace.instrument" ~count:timed (2 * timed * Clock.overhead));
  Tracer.add "sim.apply_calls" (float_of_int apply.n);
  Tracer.add "probe.apply_ns" (float_of_int apply.ns);
  Tracer.add "probe.applicable_calls" (float_of_int applicable.n);
  Tracer.add "probe.applicable_ns" (float_of_int applicable.ns);
  Tracer.add "probe.fingerprint_calls" (float_of_int fp.n);
  Tracer.add "probe.fingerprint_ns" (float_of_int fp.ns);
  Tracer.add "pattern.extract_s" (Clock.seconds extract.ns)

let scheme (module P : Protocol.S) ~n =
  let module E = Engine.Make (P) in
  let applicable = acc () and apply = acc () and fp = acc () and cmp = acc () and extract = acc () in
  let pats = ref Pattern.Set.empty in
  let seen : (int, E.config list) Hashtbl.t = Hashtbl.create 64 in
  let module Pr = struct
    type state = E.config

    let compare a b =
      let t0 = Clock.now () in
      let r = E.compare_config a b in
      stop cmp t0;
      r

    let fingerprint c =
      let t0 = Clock.now () in
      let r = E.fingerprint c in
      stop fp t0;
      r

    (* the library's terminal-pattern cache: extract a pattern only the
       first time its interned representation is seen *)
    let observe c =
      let t0 = Clock.now () in
      let key = Patterns_stdx.Fingerprint.to_int (E.pattern_fp c) in
      let bucket = Option.value (Hashtbl.find_opt seen key) ~default:[] in
      if not (List.exists (E.same_pattern_rep c) bucket) then begin
        Hashtbl.replace seen key (c :: bucket);
        pats := Pattern.Set.add (Pattern.make (E.triples_of c) (E.pattern_edges c)) !pats
      end;
      stop extract t0

    let expand c =
      let t0 = Clock.now () in
      let acts = E.applicable c in
      stop applicable t0;
      match acts with
      | [] ->
        observe c;
        []
      | acts ->
        List.map
          (fun a ->
            let t0 = Clock.now () in
            let c', _ = E.apply_exn ~step:0 c a in
            stop apply t0;
            c')
          acts
  end in
  let module K = Patterns_search.Search.Make (Pr) in
  let before = Wrap.totals () in
  let visited =
    Tracer.span ~layer:"probe.search" "search.probe" (fun () ->
        let visited = ref 0 in
        for v = 0 to (1 lsl n) - 1 do
          Hashtbl.reset seen;
          let inputs = List.init n (fun i -> v land (1 lsl i) <> 0) in
          let _, m = K.run ~root:(E.init ~n ~inputs) () in
          visited := !visited + m.Patterns_search.Metrics.states_expanded
        done;
        charge ~apply ~applicable ~cmp ~fp ~extract (Wrap.diff (Wrap.totals ()) before);
        !visited)
  in
  { patterns = Pattern.Set.cardinal !pats; visited }

(* The linear probe, for the adversary's hunts: the failure-free FIFO
   run of every input vector, stepped by hand through [applicable] and
   [apply_exn] on an untracked root — how [Engine.run] steps a hunt's
   runs — with both callbacks timed.  Its final configuration must
   equal [Engine.run]'s. *)
let linear (module P : Protocol.S) ~n =
  let module E = Engine.Make (P) in
  let applicable = acc () and apply = acc () in
  let before = Wrap.totals () in
  Tracer.span ~layer:"probe.sim" "sim.probe" (fun () ->
      let vectors = List.init (1 lsl n) (fun v -> List.init n (fun i -> v land (1 lsl i) <> 0)) in
      let finals =
        List.map
          (fun inputs ->
            let rec go step c =
              let t0 = Clock.now () in
              let acts = E.applicable c in
              stop applicable t0;
              match E.fifo_scheduler ~step c acts with
              | None -> c
              | Some a ->
                let t0 = Clock.now () in
                let c', _ = E.apply_exn ~step c a in
                stop apply t0;
                go (step + 1) c'
            in
            (inputs, go 0 (E.init_untracked ~n ~inputs)))
          vectors
      in
      let d = Wrap.diff (Wrap.totals ()) before in
      List.iter
        (fun (inputs, final) ->
          let r = E.run ~scheduler:E.fifo_scheduler ~n ~inputs () in
          if E.compare_config final r.E.final <> 0 then failwith "linear probe disagrees with Engine.run")
        finals;
      charge ~apply ~applicable d)
