module Fp_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Fingerprint.to_int
end)

type 'a shard = {
  lock : Mutex.t;
  tbl : ('a * int) list Fp_tbl.t; (* fp -> (state, dense id) bucket *)
  mutable resident : int; (* bindings currently in memory *)
  mutable total : int; (* cumulative distinct bindings, never reset *)
  mutable probes : int;
  mutable disk_probes : int;
  mutable collision_fallbacks : int;
  mutable contention : int;
}

type 'a t = {
  equal : 'a -> 'a -> bool;
  fingerprint : 'a -> Fingerprint.t;
  shards : 'a shard array;
  dir : string; (* this store's private subdirectory *)
  mem_budget : int;
  next_id : int Atomic.t; (* dense dictionary ids, in insertion order *)
  evict_lock : Mutex.t;
  (* the fields below are written only under [evict_lock] + all shard
     locks; readers hold at least one shard lock (probes) or take the
     shard locks themselves (counter snapshots) *)
  mutable runs : Block_file.t list; (* newest first *)
  mutable runs_written : int;
  mutable shards_evicted : int;
  mutable spilled_write_bytes : int;
}

(* [Fingerprint.t] is a native int; xor-ing the sign bit of its Int64
   image gives an order-preserving unsigned image, so the big-endian
   bytes sort like the fingerprints themselves — the full 63 bits,
   not the folded [to_int] projection the shard index uses. *)
let key_of_fingerprint fp =
  let buf = Bytes.create Block_file.key_width in
  Bytes.set_int64_be buf 0 (Int64.logxor (Int64.of_int (fp : Fingerprint.t)) Int64.min_int);
  Bytes.unsafe_to_string buf

(* 16 shards: the eviction granularity, a constant so the spill
   counters never depend on the worker count *)
let shard_bits = 4

let store_seq = Atomic.make 0

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let create ?(size = 256) ~equal ~fingerprint ~dir ~mem_budget () =
  ensure_dir dir;
  (* a private subdirectory per store: concurrent per-root stores
     share [dir] without sharing file names, and [dispose] can remove
     the whole thing *)
  let sub =
    Filename.concat dir (Printf.sprintf "store-%06d" (Atomic.fetch_and_add store_seq 1))
  in
  Sys.mkdir sub 0o755;
  let shards =
    Array.init (1 lsl shard_bits) (fun _ ->
        {
          lock = Mutex.create ();
          tbl = Fp_tbl.create size;
          resident = 0;
          total = 0;
          probes = 0;
          disk_probes = 0;
          collision_fallbacks = 0;
          contention = 0;
        })
  in
  {
    equal;
    fingerprint;
    shards;
    dir = sub;
    mem_budget = max 1 mem_budget;
    next_id = Atomic.make 0;
    evict_lock = Mutex.create ();
    runs = [];
    runs_written = 0;
    shards_evicted = 0;
    spilled_write_bytes = 0;
  }


(* the high bits of the folded projection pick the shard,
   independently of the low bits the per-shard hashtable hashes on *)
let shard_of fp = Fingerprint.to_int fp lsr (62 - shard_bits)

let with_lock sh f =
  if Mutex.try_lock sh.lock then ()
  else begin
    sh.contention <- sh.contention + 1;
    Mutex.lock sh.lock
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.lock) f

(* in-memory membership keeps the structural-confirmation discipline
   of the other stores; a bucket member that fails it is a certified
   collision *)
let bucket_mem t sh x bucket =
  if List.exists (fun (y, _) -> not (t.equal x y)) bucket then
    sh.collision_fallbacks <- sh.collision_fallbacks + 1;
  List.exists (fun (y, _) -> t.equal x y) bucket

(* Disk membership trusts the 63-bit fingerprint alone: the spilled
   state is gone, so there is nothing to confirm against.  This is
   the one place the store's answer rests on collision-freeness —
   the same assumption [collision_fallbacks] certifies (≈ 0 on every
   workload here) for the in-memory half. *)
let disk_mem t sh fp =
  match t.runs with
  | [] -> false
  | runs ->
    sh.disk_probes <- sh.disk_probes + 1;
    let key = key_of_fingerprint fp in
    List.exists (fun run -> Block_file.probe run key <> None) runs

let mem t x =
  let fp = t.fingerprint x in
  let sh = t.shards.(shard_of fp) in
  with_lock sh (fun () ->
      sh.probes <- sh.probes + 1;
      let in_mem =
        match Fp_tbl.find_opt sh.tbl fp with
        | None -> false
        | Some bucket -> bucket_mem t sh x bucket
      in
      in_mem || disk_mem t sh fp)

let insert t sh fp x bucket =
  let id = Atomic.fetch_and_add t.next_id 1 in
  Fp_tbl.replace sh.tbl fp ((x, id) :: bucket);
  sh.resident <- sh.resident + 1;
  sh.total <- sh.total + 1

(* Uncounted insert for the serial driver, whose [add] follows a
   counted [mem] that already established absence (including on
   disk); only the in-memory bucket is re-checked, as in
   [Search.Store.add]. *)
let add t x =
  let fp = t.fingerprint x in
  let sh = t.shards.(shard_of fp) in
  with_lock sh (fun () ->
      let bucket = match Fp_tbl.find_opt sh.tbl fp with Some b -> b | None -> [] in
      if not (List.exists (fun (y, _) -> t.equal x y) bucket) then insert t sh fp x bucket)

let add_if_absent t x =
  let fp = t.fingerprint x in
  let sh = t.shards.(shard_of fp) in
  with_lock sh (fun () ->
      sh.probes <- sh.probes + 1;
      let bucket = match Fp_tbl.find_opt sh.tbl fp with Some b -> b | None -> [] in
      if bucket_mem t sh x bucket || disk_mem t sh fp then false
      else begin
        insert t sh fp x bucket;
        true
      end)

(* ----- eviction ----- *)

let sum f t = Array.fold_left (fun acc sh -> acc + f sh) 0 t.shards

let resident t = sum (fun sh -> sh.resident) t
let bindings t = sum (fun sh -> sh.total) t
let probes t = sum (fun sh -> sh.probes) t
let collision_fallbacks t = sum (fun sh -> sh.collision_fallbacks) t
let lock_contention t = sum (fun sh -> sh.contention) t

let spill_probes t = sum (fun sh -> sh.disk_probes) t
let spill_runs t = t.runs_written
let spill_evictions t = t.shards_evicted
let spill_write_bytes t = t.spilled_write_bytes
let spill_read_bytes t = List.fold_left (fun acc r -> acc + Block_file.read_bytes r) 0 t.runs
let spill_fd_reopens t = List.fold_left (fun acc r -> acc + Block_file.reopens r) 0 t.runs

let lock_all t = Array.iter (fun sh -> Mutex.lock sh.lock) t.shards
let unlock_all t = Array.iter (fun sh -> Mutex.unlock sh.lock) t.shards

(* Eviction policy: when the resident count reaches the high-water
   mark, flush whole shards — largest resident count first, lower
   index on ties — until at most half the budget remains resident
   (shard size is the deterministic coldness proxy: routing is a hash
   of the state, so every shard is probed at the same rate and the
   largest shard holds the most states that will never be probed
   again).  All flushed bindings go to disk as one sorted run of
   (fingerprint key, dense id) records; the flushed shards drop to
   zero resident but keep their cumulative totals, so [bindings]
   reads the same with or without spilling. *)
let evict_locked t =
  let order = Array.init (Array.length t.shards) Fun.id in
  Array.sort
    (fun a b ->
      match compare t.shards.(b).resident t.shards.(a).resident with
      | 0 -> compare a b
      | c -> c)
    order;
  let low_water = t.mem_budget / 2 in
  let live = ref (resident t) in
  let chosen = ref [] in
  Array.iter
    (fun i ->
      if !live > low_water && t.shards.(i).resident > 0 then begin
        chosen := i :: !chosen;
        live := !live - t.shards.(i).resident
      end)
    order;
  let chosen = List.rev !chosen in
  let entries = ref [] in
  List.iter
    (fun i ->
      let sh = t.shards.(i) in
      Fp_tbl.iter
        (fun fp bucket ->
          (* one record per fingerprint: the payload is the dense id of
             the first state interned under it (the bucket is
             newest-first) *)
          match List.rev bucket with
          | (_, id) :: _ -> entries := (key_of_fingerprint fp, id) :: !entries
          | [] -> ())
        sh.tbl)
    chosen;
  (match !entries with
  | [] -> ()
  | es ->
    let arr = Array.of_list es in
    Array.sort (fun (a, _) (b, _) -> String.compare a b) arr;
    let path = Filename.concat t.dir (Printf.sprintf "run-%04d.blk" t.runs_written) in
    let run = Block_file.create ~path arr in
    t.runs <- run :: t.runs;
    t.runs_written <- t.runs_written + 1;
    t.spilled_write_bytes <- t.spilled_write_bytes + Block_file.write_bytes run);
  List.iter
    (fun i ->
      let sh = t.shards.(i) in
      Fp_tbl.reset sh.tbl;
      sh.resident <- 0;
      t.shards_evicted <- t.shards_evicted + 1)
    chosen

let maybe_evict t =
  (* cheap unsynchronized high-water check first; the exact decision
     re-reads the counts under every shard lock *)
  if resident t >= t.mem_budget then begin
    Mutex.lock t.evict_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.evict_lock)
      (fun () ->
        lock_all t;
        Fun.protect
          ~finally:(fun () -> unlock_all t)
          (fun () -> if resident t >= t.mem_budget then evict_locked t))
  end

let dispose t =
  List.iter Block_file.delete t.runs;
  t.runs <- [];
  try Sys.rmdir t.dir with Sys_error _ -> ()
