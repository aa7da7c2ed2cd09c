(* A [Protocol.S] wrapper that keeps the wrapped protocol's [name] (so
   database fact keys and certificates are unchanged) and, depending on
   [mode]:

   - [Counted]: counts every [send]/[receive]/[compare_state]/
     [hash_state] call and times every [sample_every]-th one, so the
     time spent inside protocol code can be estimated as the sampled
     mean times the call count;
   - [Slowed k]: spins [k] loop iterations inside every [send] and
     [receive] — the sensitivity self-test's calibrated slowdown of the
     protocols layer.

   Counters live in domain-local records so the parallel drivers'
   worker domains never share a cache line; [totals] sums them. *)

open Patterns_sim

type mode = Raw | Counted | Slowed of int

let mode = ref Raw
let sample_every = 32

(* call kinds *)
let k_send = 0
let k_receive = 1
let k_compare = 2
let k_hash = 3

type counters = {
  calls : int array;
  sampled : int array;
  sampled_ns : int array;
  mutable tick : int;
}

let all : counters list ref = ref []
let lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let c =
        { calls = Array.make 4 0; sampled = Array.make 4 0; sampled_ns = Array.make 4 0; tick = 0 }
      in
      Mutex.protect lock (fun () -> all := c :: !all);
      c)

type totals = {
  transitions : int;  (** send + receive calls *)
  compares : int;
  step_ns : float;  (** estimated time inside send, receive and hash_state *)
  compare_ns : float;  (** estimated time inside compare_state *)
}

let totals () =
  Mutex.protect lock (fun () ->
      let sum f = List.fold_left (fun acc c -> acc + f c) 0 !all in
      let calls k = sum (fun c -> c.calls.(k)) in
      let est k =
        let s = sum (fun c -> c.sampled.(k)) in
        if s = 0 then 0.
        else float_of_int (sum (fun c -> c.sampled_ns.(k))) *. float_of_int (calls k) /. float_of_int s
      in
      {
        transitions = calls k_send + calls k_receive;
        compares = calls k_compare;
        step_ns = est k_send +. est k_receive +. est k_hash;
        compare_ns = est k_compare;
      })

let diff a b =
  {
    transitions = a.transitions - b.transitions;
    compares = a.compares - b.compares;
    step_ns = a.step_ns -. b.step_ns;
    compare_ns = a.compare_ns -. b.compare_ns;
  }

(* counts a call; [Some] counters when it is one of the timed samples *)
let[@inline] count k =
  let c = Domain.DLS.get key in
  c.calls.(k) <- c.calls.(k) + 1;
  c.tick <- c.tick + 1;
  if c.tick land (sample_every - 1) = 0 then Some c else None

let[@inline] record c k t0 =
  c.sampled.(k) <- c.sampled.(k) + 1;
  c.sampled_ns.(k) <- c.sampled_ns.(k) + max 0 (Clock.now () - t0 - Clock.overhead)

module Counted (P : Protocol.S) : Protocol.S = struct
  include P

  let send ~n ~me s =
    match count k_send with
    | None -> P.send ~n ~me s
    | Some c ->
      let t0 = Clock.now () in
      let r = P.send ~n ~me s in
      record c k_send t0;
      r

  let receive ~n ~me s m =
    match count k_receive with
    | None -> P.receive ~n ~me s m
    | Some c ->
      let t0 = Clock.now () in
      let r = P.receive ~n ~me s m in
      record c k_receive t0;
      r

  let compare_state a b =
    match count k_compare with
    | None -> P.compare_state a b
    | Some c ->
      let t0 = Clock.now () in
      let r = P.compare_state a b in
      record c k_compare t0;
      r

  let hash_state s =
    match count k_hash with
    | None -> P.hash_state s
    | Some c ->
      let t0 = Clock.now () in
      let r = P.hash_state s in
      record c k_hash t0;
      r
end

module Slowed (P : Protocol.S) (K : sig
  val iters : int
end) : Protocol.S = struct
  include P

  let send ~n ~me s =
    Clock.spin K.iters;
    P.send ~n ~me s

  let receive ~n ~me s m =
    Clock.spin K.iters;
    P.receive ~n ~me s m
end

let protocol (p : (module Protocol.S)) : (module Protocol.S) =
  match !mode with
  | Raw -> p
  | Counted ->
    let (module P) = p in
    (module Counted (P))
  | Slowed iters ->
    let (module P) = p in
    (module Slowed (P) (struct let iters = iters end))

let entry (e : Patterns_protocols.Registry.entry) =
  { e with Patterns_protocols.Registry.protocol = protocol e.Patterns_protocols.Registry.protocol }
