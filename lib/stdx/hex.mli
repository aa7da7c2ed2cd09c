(** Lowercase hexadecimal codec for binary blobs.

    The persistence layer is line-oriented JSON, which cannot carry
    raw [Marshal] bytes (newlines, control characters); hex doubles
    the size but keeps every fact a single printable line.  [encode]
    is total; [decode] raises [Invalid_argument] on odd length or a
    non-hex digit (uppercase digits are accepted). *)

val encode : string -> string
val decode : string -> string

val seal_raw : 'a -> string
(** [seal_raw v]: [v] marshalled (no sharing flags) behind the 16-byte
    MD5 of the marshalled bytes — binary, for callers that write raw
    files. *)

val unseal_raw : string -> 'a option
(** The inverse of {!seal_raw}, failing closed: [None] on a payload of
    16 bytes or fewer or a digest mismatch, decided before
    [Marshal.from_string] runs — so corrupted or truncated bytes are
    refused instead of crashing the unmarshaller.  The digest guards
    against corruption, not against a forger, and the result type is
    unchecked, as with any [Marshal] read: callers must only unseal
    what they sealed at that type. *)

val seal : 'a -> string
(** {!seal_raw}, hex-encoded so it fits in a JSON string. *)

val unseal : string -> 'a option
(** The inverse of {!seal}: [None] on bad hex, else {!unseal_raw}. *)
