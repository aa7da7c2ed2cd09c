(* In-memory spans and counters for the traced run.

   A span is a named interval on the main domain with a layer, a
   parent and the id of the query that caused it.  Public calls get
   real spans.  Hot callbacks (engine steps, protocol transitions)
   would cost more to record one by one than they take, so they are
   folded into one aggregate child span per (parent, name) whose
   duration is their summed time and whose [count] is the number of
   calls.  A layer's self time is the summed duration of its spans
   minus the part covered by their children; whatever no layer covers
   is reported as unattributed.

   With tracing off every function here is a no-op apart from running
   the wrapped code. *)

type span = {
  sid : int;
  parent : int;  (** -1 for a top-level span *)
  query : int;
  name : string;
  layer : string;
  start_ns : int;  (** 0 for an aggregate span *)
  mutable dur_ns : int;
  mutable child_ns : int;
  count : int;
}

let on = ref false
let query = ref 0
let recorded : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let fresh ~parent ~name ~layer ~start_ns ~dur_ns ~count =
  let s =
    { sid = !next_id; parent; query = !query; name; layer; start_ns; dur_ns; child_ns = 0; count }
  in
  incr next_id;
  recorded := s :: !recorded;
  s

let span ~layer name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.sid | [] -> -1 in
    let s = fresh ~parent ~name ~layer ~start_ns:(Clock.now ()) ~dur_ns:0 ~count:1 in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.dur_ns <- Clock.now () - s.start_ns;
        stack := List.tl !stack;
        match !stack with p :: _ -> p.child_ns <- p.child_ns + s.dur_ns | [] -> ())
      f
  end

(* An aggregate child of [under] (default: the innermost open span). *)
let aggregate ?under ~layer name ~count ns =
  if !on && ns > 0 then begin
    let p = match under with Some p -> Some p | None -> List.nth_opt !stack 0 in
    match p with
    | None -> None
    | Some p ->
      p.child_ns <- p.child_ns + ns;
      Some (fresh ~parent:p.sid ~name ~layer ~start_ns:0 ~dur_ns:ns ~count)
  end
  else None

(* ----- counters ----- *)

let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  if !on then
    Hashtbl.replace counters name
      (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.)

let max_ name v =
  if !on then
    Hashtbl.replace counters name
      (Float.max v (Option.value (Hashtbl.find_opt counters name) ~default:0.))

let get name = Option.value (Hashtbl.find_opt counters name) ~default:0.

(* ----- reduction ----- *)

let self_by_layer () =
  let t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.dur_ns - s.child_ns in
      Hashtbl.replace t s.layer (self + Option.value (Hashtbl.find_opt t s.layer) ~default:0))
    !recorded;
  t

let write_jsonl file =
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"query\":%d,\"name\":%S,\"layer\":%S,\"start_ns\":%d,\"dur_ns\":%d,\"count\":%d}\n"
        s.sid s.parent s.query s.name s.layer s.start_ns s.dur_ns s.count)
    (List.rev !recorded);
  close_out oc
