#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py [--seconds S] [--seeds 1,2,3]

1. Declarations: BENCHMARK.json and perfbench/metrics.json name the same
   metrics with the same units and directions, every metric has a class,
   every bound is within the contract.
2. Sensitivity: slow the protocols layer through the benchmark's own
   Protocol.S wrapper and check that the benchmark sees it where, and
   only where, it should.  The slowdown is a spin inside every send and
   receive, calibrated so that it adds about 25% to the explore
   workload's pass wall: explore's raw pass wall times 0.25, divided by
   the transitions one pass makes.  The same per-transition delay is
   then applied to every workload, so each one slows by as much protocol
   work as it really does.  Expected: wall_s leaves its bound on explore
   and adversary, whose work is protocol transitions and engine steps,
   while query_p50_ms on persist stays within its bound, because
   persist's typical query is an index read that runs no protocol code.
   Every other pairing is printed for information.

Run from the root of the source tree.  Exits 0 when every check holds.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

OUT = ".perfbench_out"
EXE = os.path.join(".bench_build", "default", "perfbench", "perfbench.exe")
CLASSES = {"deterministic", "driver-dependent", "volatile"}


def check_declarations():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join("perfbench", "metrics.json")) as f:
        spec = json.load(f)
    problems = []
    for kind in ("end_to_end", "per_layer"):
        b = {m["name"]: (m["unit"], m["better"]) for m in bench[kind]}
        s = {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}
        if b != s:
            problems.append("%s: BENCHMARK.json and metrics.json differ on %s"
                            % (kind, sorted(set(b.items()) ^ set(s.items()))))
        for m in spec[kind]:
            if m.get("class") not in CLASSES:
                problems.append("%s has no valid class" % m["name"])
    for m in bench["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append("%s: bound %s outside (0, 0.25]" % (m["name"], m["bound"]))
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        problems.append("setup_s must exist and carry the largest bound")
    return problems


def run(workload, seed, seconds, slow_ns, out):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--out", out]
    if slow_ns:
        cmd += ["--slow-ns", str(slow_ns)]
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit("run failed: " + " ".join(cmd))


def calibrate():
    tmp = os.path.join(".perfbench_tmp", "calibrate-%d" % os.getpid())
    try:
        r = subprocess.run([EXE, "--workload", "explore", "--seed", "1", "--tmp", tmp, "--calibrate"],
                           capture_output=True, text=True, check=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    c = json.loads(r.stdout.strip().splitlines()[-1])
    return 0.25 * c["raw_wall_s"] / c["transitions"] * 1e9


def main():
    p = argparse.ArgumentParser(description="the benchmark's own tests")
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--seeds", default="101,102,103")
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    problems = check_declarations()
    for msg in problems:
        print("declarations: " + msg)
    print("declarations: %s" % ("FAIL" if problems else "ok"))

    os.makedirs(OUT, exist_ok=True)
    base_out = os.path.join(OUT, "selftest-base.jsonl")
    slow_out = os.path.join(OUT, "selftest-slow.jsonl")
    for f in (base_out, slow_out):
        if os.path.exists(f):
            os.remove(f)
    # run.py builds the runner; the first run makes sure it exists
    run("explore", seeds[0], args.seconds, 0, base_out)
    slow_ns = calibrate()
    print("sensitivity: %.0f ns spin per protocol transition" % slow_ns)
    for w in ("explore", "adversary", "persist"):
        for k, seed in enumerate(seeds):
            if w == "explore" and k == 0:
                run(w, seed, args.seconds, slow_ns, slow_out)
                continue
            # alternate which side runs first
            if k % 2:
                run(w, seed, args.seconds, slow_ns, slow_out)
                run(w, seed, args.seconds, 0, base_out)
            else:
                run(w, seed, args.seconds, 0, base_out)
                run(w, seed, args.seconds, slow_ns, slow_out)

    rows = compare.judge(compare.load_records(base_out), compare.load_records(slow_out))
    expect = {("explore", "wall_s"): True, ("adversary", "wall_s"): True,
              ("persist", "query_p50_ms"): False}
    ok = not problems
    for w, name, b, n, d, verdict in rows:
        key = (w, name)
        flagged = verdict == "REGRESSED"
        mark = ""
        if key in expect:
            good = flagged == expect[key]
            ok = ok and good
            mark = "  <- expected %s: %s" % ("flagged" if expect[key] else "within bound",
                                             "ok" if good else "FAIL")
        print("%-10s %-14s base %12.6g  slowed %12.6g  %+7.1f%%  %s%s"
              % (w, name, b, n, 100 * d, verdict, mark))
    print("selftest: %s" % ("ok" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
