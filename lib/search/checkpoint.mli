(** Root-granular checkpoint/resume for long sweeps.

    Every long sweep here is a fold over independent roots (input
    vectors, hunt index chunks) merged in root order, so the state
    that makes a killed run resumable is the map from completed root
    index to that root's finished payload.  A checkpoint file is one
    plain-text header line — [patterns-checkpoint/2] followed by a
    client header string encoding everything the payloads depend on
    (protocol, n, budgets, seeds, …) — then the MD5 digest of a
    [Marshal] blob of the sorted (index, payload) entries, and the
    blob.  Every {!record} atomically
    rewrites the file (temporary + rename), so a kill at any moment
    leaves the previous complete checkpoint, never a torn one.

    Recording policy (enforced by the clients, documented here): a
    root is recorded only when its own metrics carry
    [deadline_hits = 0] — deadline truncation is wall-clock-dependent,
    so resuming over such a payload would bake a nondeterministic
    result into a deterministic sweep.  Budget and live-limit
    truncations are deterministic and recordable. *)

val schema : string
(** ["patterns-checkpoint/2"]. *)

type spec = {
  file : string;
  resume : bool;
      (** [true]: load existing entries from [file] (a missing file is
          a fresh start, so wrappers can pass [--resume]
          unconditionally); [false]: start fresh, overwriting [file]
          on the first record. *)
  kill_after : int option;
      (** Test hook: after this many fresh records, print a notice and
          [exit 99], leaving the checkpoint for a resume. *)
}

type 'a t

val create : spec -> header:string -> ('a t, string) result
(** [Error] when resuming against a file that is not a checkpoint,
    whose header line differs from [header], or whose payload fails
    its digest (corrupt or truncated) — incompatible or damaged
    payloads are refused, not mixed, and the digest is checked before
    anything is unmarshalled.  The payload is only ever read from
    files this module wrote. *)

val find : 'a t -> int -> 'a option
(** The recorded payload of root [i], if a previous process (or this
    one) completed it. *)

val record : 'a t -> int -> 'a -> unit
(** Record root [i]'s payload and atomically rewrite the file.  A
    second record of the same index is ignored.  Thread-safe. *)

val completed : 'a t -> int
(** Number of recorded roots. *)
