(** Lowercase hexadecimal codec for binary blobs.

    The persistence layer is line-oriented JSON, which cannot carry
    raw [Marshal] bytes (newlines, control characters); hex doubles
    the size but keeps every fact a single printable line.  [encode]
    is total; [decode] raises [Invalid_argument] on odd length or a
    non-hex digit (uppercase digits are accepted). *)

val encode : string -> string
val decode : string -> string

val seal : 'a -> string
(** [seal v]: [v] marshalled (no sharing flags) and hex-encoded behind
    the MD5 of the marshalled bytes. *)

val unseal : string -> 'a option
(** The inverse of {!seal}, failing closed: [None] on bad hex, a short
    payload or a digest mismatch, decided before [Marshal.from_string]
    runs — so corrupted bytes are refused instead of crashing the
    unmarshaller.  The digest guards against corruption, not against a
    forger, and the result type is unchecked, as with any [Marshal]
    read: callers must only unseal what they sealed at that type. *)
