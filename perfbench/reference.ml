(* Host-speed reference.

   The machines this benchmark runs on share their cores, caches and
   memory bandwidth with other tenants, and their speed changes by up to
   twice for minutes at a time: far more than the regressions the
   benchmark must catch.  So every query's latency is scaled to a fixed
   host speed: just before the query's group runs, a fixed
   allocation-heavy loop (hash-table inserts of fresh cons cells) is
   timed, and the latency is multiplied by [nominal_ns] over the loop's
   time.  Over two sets of ten runs per workload on a 2-core shared
   host, the second set on a host twice as fast, unscaled pass walls
   moved by 48-53% between the sets and scaled ones by at most 10.7%.

   A sample is the mean of three runs of the loop, not the best of
   them.  The second run triggers a slice of major collection (it takes
   about twice as long as the others), and that slice is the part of
   the loop that slows most with the host, as the library's own
   collections do: over 150 passes taken across several minutes of host
   drift, pass walls scaled by the mean of three spread 4.8% (explore),
   6.2% (adversary) and 8.6% (persist), against 7.7%, 7.3% and 12.8%
   when scaled by the best of three.

   The loop uses only the standard library, so no change to the library
   can move it: a slower library still reads slower, a busier host
   does not.  It does depend on the runtime's GC settings, which the
   library never changes; the factor applied is reported with every
   result. *)

let inserts = 10_000

let once () =
  let t0 = Clock.now () in
  let h = Hashtbl.create 16 in
  for i = 1 to inserts do
    Hashtbl.replace h (i * 7919 land 0xffff) [ i ]
  done;
  ignore (Sys.opaque_identity h);
  Clock.now () - t0

(* Scaled times are seconds at a host speed where one sample of the loop
   takes this long (on the 2-vCPU Xeon VMs the benchmark was built on it
   takes 2-3.5 ms).  A constant, so that runs stay comparable. *)
let nominal_ns = 2_000_000.

let three () = (once () + once () + once ()) / 3

(* A workload that runs [jobs] domains depends on that many cores, so
   the loop then runs on as many domains at once (their minor
   collections synchronise, as the workload's do) and the sample is the
   mean of their times. *)
let sample ~jobs =
  if jobs <= 1 then three ()
  else begin
    let others = List.init (jobs - 1) (fun _ -> Domain.spawn three) in
    let mine = three () in
    List.fold_left (fun acc d -> acc + Domain.join d) mine others / jobs
  end

(* the factor to scale latencies by, from samples taken around them *)
let factor samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  nominal_ns /. float_of_int a.(Array.length a / 2)
