(* Lock-free open-addressing visited table.

   A flat array of [int Atomic.t] slots indexed by linear probing on
   the state's fingerprint key.  0 marks an empty slot; an occupied
   slot stores [lnot key] — keys are nonnegative ([Fingerprint.to_int]
   is 62-bit), so the stored form is always negative and never
   collides with the empty marker.  Insertion claims an empty slot
   with a single compare-and-set; the state itself is published
   through a parallel ['a option Atomic.t] array after the claim, and
   readers that see a claimed slot spin until the value appears (the
   window is two instructions wide).

   Memory-ordering argument: every cross-domain access — slot, value
   cell, count, the buffer pointer, the resize handshake flags — is an
   OCaml [Atomic.t], and OCaml atomics are sequentially consistent.
   The two places that need more than per-cell atomicity:

   - {b claim/publish}: a reader that observed [lnot key] in slot [i]
     observed a store SC-after the claimer's CAS; the claimer's value
     store follows its CAS program-order, so the reader's spin
     terminates and yields the claimer's state, not a stale one.

   - {b resize handshake} (Dekker-style): a claimer sets its active
     flag, then reads [resizing]; the resizer sets [resizing], then
     reads the active flags.  Under any SC interleaving at least one
     side observes the other: a claimer that read [resizing = false]
     made its flag visible before the resizer's scan, so the resizer
     waits for it; otherwise the claimer backs off and retries against
     the published new table.  Migration therefore runs with no
     concurrent insertions and needs no CAS.

   Two same-state claimers racing for the same key converge on the
   same first-empty probe slot — the probe path over occupied slots is
   identical for an identical key — so exactly one CAS wins and the
   loser re-examines the slot, finds its own key, and reports a
   duplicate.  This is why a full table must {e resize and retry},
   never route the overflow elsewhere: splitting the probe path would
   let both racers succeed.

   A fingerprint hit is still never trusted on its own.  The slot
   match is confirmed structurally against the published state, and a
   true 63-bit collision — a different state with the same key — is
   routed to a single-mutex list, exactly like the serial kernel's
   bucket fallback.  Collisions are ~10^-6 per million states, so the
   mutex path is cold by construction; the driver's [lock_contention]
   metric stays 0 unless a collision actually occurred. *)

type counters = {
  mutable probes : int;
  mutable cas_retries : int;
  mutable collisions : int;
}

(* the collision fallback: every state whose key the table already
   holds for a structurally different state *)
type 'a fallback = { lock : Mutex.t; mutable items : 'a list; mutable contention : int }

type 'a inner = { slots : int Atomic.t array; values : 'a option Atomic.t array }

type 'a t = {
  equal : 'a -> 'a -> bool;
  fingerprint : 'a -> Fingerprint.t;
  inner : 'a inner Atomic.t;
  count : int Atomic.t;
  resizing : bool Atomic.t;
  active : bool Atomic.t array;
  resize_lock : Mutex.t;
  fallback : 'a fallback;
  counters : counters array;
  initial_bits : int;
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)
let bits_of cap = int_of_float (Float.round (Float.log2 (float_of_int cap)))

let make_inner cap =
  {
    slots = Array.init cap (fun _ -> Atomic.make 0);
    values = Array.init cap (fun _ -> Atomic.make None);
  }

let create ?(capacity = 4096) ~workers ~equal ~fingerprint () =
  if workers < 1 then invalid_arg "Atomic_table.create: workers must be positive";
  let cap = pow2 (max 64 capacity) 64 in
  {
    equal;
    fingerprint;
    inner = Atomic.make (make_inner cap);
    count = Atomic.make 0;
    resizing = Atomic.make false;
    active = Array.init workers (fun _ -> Atomic.make false);
    resize_lock = Mutex.create ();
    fallback = { lock = Mutex.create (); items = []; contention = 0 };
    counters =
      Array.init workers (fun _ -> { probes = 0; cas_retries = 0; collisions = 0 });
    initial_bits = bits_of cap;
  }

let capacity t = Array.length (Atomic.get t.inner).slots
let initial_bits t = t.initial_bits
let key_of t x = Fingerprint.to_int (t.fingerprint x)

let with_fallback t f =
  let fb = t.fallback in
  if not (Mutex.try_lock fb.lock) then begin
    fb.contention <- fb.contention + 1;
    Mutex.lock fb.lock
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock fb.lock) (fun () -> f fb)

let fallback_mem t x = with_fallback t (fun fb -> List.exists (t.equal x) fb.items)

let fallback_add t x =
  with_fallback t (fun fb ->
      if List.exists (t.equal x) fb.items then false
      else begin
        fb.items <- x :: fb.items;
        true
      end)

(* spin out the claim/publish window *)
let rec value_of cell =
  match Atomic.get cell with
  | Some v -> v
  | None ->
    Domain.cpu_relax ();
    value_of cell

(* Migration runs exclusively (see the handshake below): plain probe
   to the first empty slot, plain stores. *)
let migrate old_inner new_inner =
  let n = Array.length old_inner.slots in
  let m = Array.length new_inner.slots in
  for i = 0 to n - 1 do
    let s = Atomic.get old_inner.slots.(i) in
    if s <> 0 then begin
      let v = value_of old_inner.values.(i) in
      let key = lnot s in
      let j = ref (key land (m - 1)) in
      while Atomic.get new_inner.slots.(!j) <> 0 do
        j := (!j + 1) land (m - 1)
      done;
      Atomic.set new_inner.slots.(!j) s;
      Atomic.set new_inner.values.(!j) (Some v)
    end
  done

(* Grow the table.  Caller must have cleared its own active flag.
   The lock serialises resizers; the capacity re-check under the lock
   deduplicates concurrent attempts triggered at the same level. *)
let resize t ~trigger_cap =
  Mutex.lock t.resize_lock;
  let cur = Atomic.get t.inner in
  if Array.length cur.slots <= trigger_cap then begin
    Atomic.set t.resizing true;
    (* wait for every in-flight insertion to retire *)
    Array.iter
      (fun flag ->
        while Atomic.get flag do
          Domain.cpu_relax ()
        done)
      t.active;
    let grown = make_inner (2 * Array.length cur.slots) in
    migrate cur grown;
    Atomic.set t.inner grown;
    Atomic.set t.resizing false
  end;
  Mutex.unlock t.resize_lock

(* true = fresh insertion (we own the state), false = already present *)
let add_if_absent t ~worker x =
  let c = t.counters.(worker) in
  c.probes <- c.probes + 1;
  let key = key_of t x in
  let stored = lnot key in
  let flag = t.active.(worker) in
  let rec attempt () =
    Atomic.set flag true;
    if Atomic.get t.resizing then begin
      Atomic.set flag false;
      while Atomic.get t.resizing do
        Domain.cpu_relax ()
      done;
      attempt ()
    end
    else begin
      let inner = Atomic.get t.inner in
      let cap = Array.length inner.slots in
      if 2 * Atomic.get t.count >= cap then begin
        (* load factor cap 1/2: grow before probing.  Every insertion
           re-checks at entry, so overshoot past the trigger is
           bounded by the worker count — far below full, and probe
           loops always terminate on an empty slot. *)
        Atomic.set flag false;
        resize t ~trigger_cap:cap;
        attempt ()
      end
      else begin
        let mask = cap - 1 in
        let rec probe i =
          let s = Atomic.get inner.slots.(i) in
          if s = 0 then
            if Atomic.compare_and_set inner.slots.(i) 0 stored then begin
              Atomic.set inner.values.(i) (Some x);
              Atomic.incr t.count;
              true
            end
            else begin
              (* lost the claim; the winner may hold our key — look
                 at the same slot again *)
              c.cas_retries <- c.cas_retries + 1;
              probe i
            end
          else if s = stored then begin
            let v = value_of inner.values.(i) in
            if t.equal v x then false
            else begin
              (* true fingerprint collision: the mutex fallback keeps
                 the structural-confirmation guarantee *)
              c.collisions <- c.collisions + 1;
              fallback_add t x
            end
          end
          else probe ((i + 1) land mask)
        in
        let r = probe (key land mask) in
        Atomic.set flag false;
        r
      end
    end
  in
  attempt ()

let mem t ~worker x =
  let c = t.counters.(worker) in
  c.probes <- c.probes + 1;
  let key = key_of t x in
  let stored = lnot key in
  (* reads never join the handshake: the published buffer is always a
     complete snapshot (slots are claimed, never cleared), and a read
     racing a migration simply sees the pre-migration table *)
  let inner = Atomic.get t.inner in
  let mask = Array.length inner.slots - 1 in
  let rec probe i =
    let s = Atomic.get inner.slots.(i) in
    if s = 0 then false
    else if s = stored then
      let v = value_of inner.values.(i) in
      t.equal v x || fallback_mem t x
    else probe ((i + 1) land mask)
  in
  probe (key land mask)

let bindings t = Atomic.get t.count + List.length t.fallback.items

let occupancy t =
  float_of_int (Atomic.get t.count) /. float_of_int (capacity t)

let sum f t = Array.fold_left (fun acc c -> acc + f c) 0 t.counters
let probes t = sum (fun c -> c.probes) t
let cas_retries t = sum (fun c -> c.cas_retries) t

let collision_fallbacks t = sum (fun c -> c.collisions) t
let lock_contention t = t.fallback.contention
