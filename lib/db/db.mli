(** The execution database: a triple-encoded edge log with covering
    indexes, a fact store, and a query-result cache.

    Every recorded kernel expansion is one [(src, event, dst)] triple:
    [src]/[dst] are canonical config fingerprints
    ({!Patterns_stdx.Fingerprint.to_int}) and [event] is a descriptor
    string (a rendered {!Patterns_sim.Script.directive}, or a
    successor ordinal for anonymous kernel expansions).  Fingerprints
    and descriptors are interned into global dictionaries
    ({!Patterns_stdx.Dict}); the dense ids form 24-byte big-endian
    keys stored in the three covering indexes of {!Index}, so every
    bound/variable access pattern is a prefix scan of exactly one
    index.  Query results are memoised in an LRU cache invalidated
    wholesale on every write.

    Alongside edges the database stores generic {e facts} — JSON
    values keyed by [(kind, key)] — used by the consumers for
    violation certificates ([kind = "cert"]), replay verdicts
    ([kind = "verdict"]) and classification sweeps
    ([kind = "classify"]).  The database itself knows nothing about
    those schemas, which keeps [Patterns_db] dependent on
    [Patterns_stdx] only.

    All operations are thread-safe (one internal mutex): the
    asynchronous search driver's workers may record edges
    concurrently. *)

type t

type stats = {
  edges : int;  (** distinct triples stored *)
  index_scans : int;  (** prefix scans actually performed *)
  cache_hits : int;
  cache_misses : int;
}

val schema : string
(** ["patterns-edge-db/2"] — the persisted JSONL schema written by
    {!save}: a schema marker line, then one compact record per line
    (["c"] config fingerprints in id order, ["e"] event descriptors in
    id order, ["t"] edge id-triples in SEO key order, ["f"] facts
    sorted by (kind, key)).  {!load} also reads the original
    monolithic /1 JSON document. *)

val create : ?cache_capacity:int -> unit -> t
(** Fresh empty database; [cache_capacity] bounds the query-result
    cache (default 128 entries). *)

(** {1 Edges} *)

val add_edge : t -> src:int -> event:string -> dst:int -> unit
(** Record one triple (idempotent — the indexes are sets).  [src] and
    [dst] are config fingerprints, [event] a descriptor string.
    Invalidates the query cache. *)

val edges : t -> ?src:int -> ?event:string -> ?dst:int -> unit -> (int * string * int) list
(** All stored triples matching the bound components, via a prefix
    scan of the index chosen by {!Index.select} (memoised in the
    cache).  Results are sorted by [(src, event, dst)] — fingerprint,
    then descriptor, then fingerprint — so they are independent of
    insertion order and hence of the worker count and the search
    driver. *)

val mem_config : t -> int -> bool
(** Whether a config fingerprint appears in the dictionary (i.e. some
    recorded edge touches it). *)

val stats : t -> stats

(** {1 Facts} *)

val put_fact : t -> kind:string -> key:string -> Patterns_stdx.Json.t -> unit
(** Insert or replace the fact [(kind, key)].  Invalidates the query
    cache. *)

val get_fact : t -> kind:string -> key:string -> Patterns_stdx.Json.t option

val facts : t -> kind:string -> (string * Patterns_stdx.Json.t) list
(** All facts of a kind, sorted by key. *)

(** {1 Persistence} *)

val to_json : t -> Patterns_stdx.Json.t
(** Stable /1 JSON document: dictionaries in id order, edges in SEO
    key order, facts sorted by [(kind, key)] — one value, for clients
    that want the whole database in memory. *)

val of_json : Patterns_stdx.Json.t -> (t, string) result
(** Rebuild a database from a /1 document (dictionaries re-interned
    in id order, all three indexes reconstructed). *)

val save : t -> string -> unit
(** Stream the database to a file in the /2 JSONL form, one record
    rendered and written at a time — saving never materialises the
    whole database as a string, so [--db] does not double peak memory
    on large edge logs. *)

val load : string -> (t, string) result
(** Read a database from a file: a /2 stream (recognised by its first
    line) is applied record by record, anything else is parsed as a
    /1 document.  A missing file is an empty database (so [--db FILE]
    works on first use); a malformed one is [Error] naming the
    offending line. *)
