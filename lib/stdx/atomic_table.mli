(** Lock-free open-addressing visited table.

    The asynchronous search driver's visited set: a flat atomic slot
    array keyed by state fingerprint, linear probing, one
    compare-and-set per fresh insertion — no mutex anywhere on the hit
    path.  A fingerprint hit is confirmed structurally against the
    published state, and a true 63-bit collision (different state,
    same key) is routed to an internal single-mutex list exactly like
    the serial kernel's bucket fallback, so the certainty contract of
    the other stores is preserved bit for bit.

    The table grows by cooperative migration: an insertion that finds
    the load factor at 1/2 stops the world for insertions only — a
    Dekker-style handshake between per-worker active flags and a
    [resizing] flag — migrates into a doubled array, and republishes.
    Reads never participate in the handshake.

    Thread-safety: all operations may be called from any domain.
    [~worker] identifies the calling worker (0 ≤ worker < [workers])
    and must not be used concurrently from two domains — it indexes
    the per-worker counter cells and the handshake flag. *)

type 'a t

val create :
  ?capacity:int ->
  workers:int ->
  equal:('a -> 'a -> bool) ->
  fingerprint:('a -> Fingerprint.t) ->
  unit ->
  'a t
(** [capacity] (default 4096, rounded up to a power of two, min 64) is
    the initial slot count; the table holds [capacity / 2] states
    before its first migration, so presizing from a known budget makes
    resizes never happen.  Raises [Invalid_argument] if [workers < 1]. *)

val add_if_absent : 'a t -> worker:int -> 'a -> bool
(** [true] exactly once per distinct state, no matter how many workers
    race to insert it — the winner of the slot CAS.  One fingerprint
    probe is charged per call. *)

val mem : 'a t -> worker:int -> 'a -> bool

val bindings : 'a t -> int
(** Distinct states stored (table + collision fallback).  Exact in
    quiescence; monotone and at most the true count during a race. *)

val capacity : 'a t -> int
(** Current slot count (may have grown since [create]). *)

val initial_bits : 'a t -> int
(** log2 of the presized capacity — a create-time constant, reported
    as the async driver's [shard_bits] so the deterministic metrics
    never depend on racy resize timing. *)

val occupancy : 'a t -> float
(** Load factor [bindings / capacity] of the open-addressed array —
    volatile near a migration boundary. *)

val probes : 'a t -> int
(** One per [mem]/[add_if_absent] call: deterministic for a
    deterministic operation sequence. *)

val cas_retries : 'a t -> int
(** Slot claims lost to a racing worker — volatile by nature. *)

val collision_fallbacks : 'a t -> int
(** True fingerprint collisions routed to the mutex fallback. *)

val lock_contention : 'a t -> int
(** Contention observed by the fallback store: 0 unless a fingerprint
    collision actually occurred, i.e. the CAS path itself is
    lock-free. *)
