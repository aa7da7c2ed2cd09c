#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The script builds the runner
(perfbench/perfbench.exe) from source into .bench_build, times the
workload's set-up in separate processes, runs the workload in a fresh
process, and prints a provenance line and then the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (perfbench/metrics.json declares both, with their class);
a traced run also writes its spans, one JSON object a line, to
.perfbench_out/spans-WORKLOAD-SEED.jsonl.  The traced explore run takes
its search.par.* metrics from a second traced process that answers the
same pool at jobs=2 (the explore-par workload).
It exits non-zero without a result when the build fails, the runner
fails, or the runner's metrics do not match the declared set.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
TMP_ROOT = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"

# set-up is timed over this many separate processes; the median is reported
SETUP_REPS = 5

# a benchmark run must end within 180 s; this leaves a margin
DEADLINE_S = 170.0


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def declared():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join("perfbench", "dune")):
        fail("run from the root of the source tree")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "--cache", "disabled", "--display", "quiet", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                           timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout[-4000:])
        fail("build failed")


def source_digest():
    """A digest of the sources the runner is built from, standing in for
    a commit id where the tree is not a git checkout."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    p = os.path.join(dirpath, name)
                    h.update(p.encode())
                    with open(p, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args, ocaml):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "ocaml": ocaml,
        "commit": commit(),
        "source_digest": source_digest(),
        "loadavg": list(os.getloadavg()),
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
        "slow_ns": args.slow_ns,
    }


def driver_cmd(args, tmp, *extra):
    return [EXE, "--workload", args.workload, "--seed", str(args.seed), "--tmp", tmp] + list(extra)


def time_setup(args, start):
    """Process start to first timed query, as the median of separate
    set-up-only processes, each scaled by its host-speed factor."""
    times = []
    for k in range(SETUP_REPS):
        tmp = os.path.join(TMP_ROOT, "%d-setup-%d" % (os.getpid(), k))
        t0 = time.perf_counter()
        r = subprocess.run(driver_cmd(args, tmp, "--setup-only"), capture_output=True, text=True,
                           timeout=max(1.0, DEADLINE_S / 3 - (time.monotonic() - start)))
        elapsed = time.perf_counter() - t0
        shutil.rmtree(tmp, ignore_errors=True)
        if r.returncode != 0:
            sys.stderr.write(r.stderr[-4000:])
            fail("set-up failed")
        # scaled to the reference host speed, like every timed query
        times.append(elapsed * json.loads(r.stdout.strip().splitlines()[-1])["host_factor"])
    return statistics.median(times)


# the per-layer metrics of the parallel drivers, idle at jobs=1
PAR_METRICS = ["search.par.busy_share", "search.par.idle_s", "search.par.steals",
               "search.par.cas_retries", "search.par.lock_contention"]


def measure(args, workload, seconds, start):
    """Run [workload] in a fresh runner process; its raw result line."""
    tmp = os.path.join(TMP_ROOT, "%d-%s" % (os.getpid(), workload))
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed), "--tmp", tmp,
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.slow_ns > 0:
        cmd += ["--slow-ns", str(args.slow_ns)]
    if args.trace == 1:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (workload, args.seed))]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        fail("workload did not finish in time")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        fail("runner failed")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full record (provenance and result) to this file")
    p.add_argument("--slow-ns", type=float, default=0.0,
                   help="spin this long in every protocol transition (sensitivity self-test)")
    args = p.parse_args()
    start = time.monotonic()

    spec = declared()
    build()

    os.makedirs(TMP_ROOT, exist_ok=True)
    try:
        setup_s = time_setup(args, start) if args.trace == 0 else None
        raw = measure(args, args.workload, args.seconds, start)
        if args.trace == 1 and args.workload == "explore":
            # the parallel drivers run only at jobs=2: their layer comes
            # from the same pool answered there, in a process of its own
            par = measure(args, "explore-par", args.seconds / 3, start)
            for name in PAR_METRICS:
                raw["metrics"][name] = par["metrics"][name]
            raw["failed"] += par["failed"]
            raw["attempted"] += par["attempted"]
            raw["failures"] += par["failures"]
    finally:
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    kind = "end_to_end" if args.trace == 0 else "per_layer"
    values = dict(raw["metrics"])
    if setup_s is not None:
        values["setup_s"] = setup_s
    want = [m["name"] for m in spec[kind]]
    if sorted(values) != sorted(want):
        fail("metrics %s do not match the declared %s" % (sorted(set(values) ^ set(want)), kind))
    units = {m["name"]: m["unit"] for m in spec[kind]}
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in want},
    }
    prov = provenance(args, raw["ocaml"])
    for k in ("pass_walls", "raw_wall_s", "raw_p50_ms", "raw_p90_ms", "host_factor"):
        prov[k] = raw[k]
    for f in raw["failures"]:
        print("failure: " + f.replace("\n", " "), file=sys.stderr)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"provenance": prov, "result": result}) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
