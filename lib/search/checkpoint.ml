(* Root-granular checkpoint files.

   Every long sweep in this repository is a fold over independent
   roots (input vectors, hunt chunks) merged in root order, so the
   minimal state that makes a killed run resumable is the map from
   completed root index to that root's finished payload — pattern
   sets, reports, cumulative hunt metrics.  The file is one plain-text
   header line

     patterns-checkpoint/2 <client header>

   followed by the sorted (index, payload) list, sealed by
   {!Patterns_stdx.Hex.seal_raw} (an MD5 digest, then the [Marshal]
   blob).
   The client header encodes everything the payloads depend on
   (protocol, n, budgets, seeds, …); a resume against a file whose
   header differs is refused rather than silently mixing
   incompatible payloads.  Rewrites go through a temporary file and
   [Sys.rename], so a kill mid-write leaves the previous complete
   checkpoint, never a torn one.

   The digest is checked before [Marshal.from_string] sees a byte, so a
   corrupt or truncated payload is a clean error, not a crash of the
   unmarshaller.  It guards against corruption, not a forger: blobs
   are only ever read back from files this module wrote, the usual
   trust boundary for OCaml snapshots. *)

let schema = "patterns-checkpoint/2"

type spec = { file : string; resume : bool; kill_after : int option }

type 'a t = {
  spec : spec;
  header : string;
  lock : Mutex.t;
  mutable entries : (int * 'a) list; (* sorted by index, ascending *)
  mutable fresh : int; (* records made by this process (kill_after hook) *)
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let header_line header = Printf.sprintf "%s %s" schema header

let load_entries ~file ~header =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match input_line ic with
      | exception End_of_file -> Error (Printf.sprintf "%s: empty checkpoint file" file)
      | line ->
        if not (String.length line >= String.length schema
                && String.sub line 0 (String.length schema) = schema) then
          Error (Printf.sprintf "%s: not a %s file" file schema)
        else if line <> header_line header then
          Error
            (Printf.sprintf "%s: checkpoint header mismatch\n  file:     %s\n  expected: %s"
               file line (header_line header))
        else
          let raw = really_input_string ic (in_channel_length ic - pos_in ic) in
          match (Patterns_stdx.Hex.unseal_raw raw : (int * 'a) list option) with
          | Some entries -> Ok entries
          | None -> Error (Printf.sprintf "%s: truncated or corrupt checkpoint payload" file))

let create spec ~header =
  let fresh_t entries =
    { spec; header; lock = Mutex.create (); entries; fresh = 0 }
  in
  if not spec.resume then Ok (fresh_t [])
  else if not (Sys.file_exists spec.file) then
    (* --resume before any checkpoint was written: a fresh start, so a
       wrapper script can pass --resume unconditionally *)
    Ok (fresh_t [])
  else Result.map fresh_t (load_entries ~file:spec.file ~header)

let find t i = with_lock t (fun () -> List.assoc_opt i t.entries)
let completed t = with_lock t (fun () -> List.length t.entries)

let write_locked t =
  let tmp = t.spec.file ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (header_line t.header);
      output_char oc '\n';
      output_string oc (Patterns_stdx.Hex.seal_raw t.entries));
  Sys.rename tmp t.spec.file

let record t i v =
  with_lock t (fun () ->
      if not (List.mem_assoc i t.entries) then begin
        t.entries <-
          List.merge (fun (a, _) (b, _) -> compare a b) [ (i, v) ] t.entries;
        write_locked t;
        t.fresh <- t.fresh + 1;
        match t.spec.kill_after with
        | Some k when t.fresh >= k ->
          (* test hook: die abruptly after k fresh records, leaving the
             checkpoint on disk for a --resume to pick up *)
          Printf.eprintf "checkpoint: killed after %d fresh records (test hook)\n%!" k;
          exit 99
        | _ -> ()
      end)
