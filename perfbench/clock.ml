(* Nanosecond monotonic clock, and the cost of reading it.  Hot
   callbacks are timed with two reads; [overhead] is subtracted from
   every such interval so per-call costs are not inflated by the
   instrument itself. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let seconds ns = float_of_int ns *. 1e-9

(* median of back-to-back read pairs: the part of a timed interval that
   is the clock, not the callback *)
let overhead =
  let k = 2001 in
  let d =
    Array.init k (fun _ ->
        let t0 = now () in
        let t1 = now () in
        t1 - t0)
  in
  Array.sort compare d;
  d.(k / 2)

(* A busy loop whose length the compiler cannot shorten, and how many
   iterations make one nanosecond on this host — the sensitivity
   self-test slows a layer with it. *)
let spin iters =
  let r = ref 0 in
  for i = 1 to iters do
    r := !r + Sys.opaque_identity i
  done;
  ignore (Sys.opaque_identity !r)

let spins_per_ns =
  lazy
    (let iters = 2_000_000 in
     let best = ref max_int in
     for _ = 1 to 5 do
       let t0 = now () in
       spin iters;
       best := min !best (now () - t0)
     done;
     float_of_int iters /. float_of_int (max 1 !best))
