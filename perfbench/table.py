#!/usr/bin/env python3
"""Per-layer cost table from traced runs.

    python3 perfbench/table.py [--seconds S] [--seed N]

Runs every workload once with --trace 1 (explore-par too, which is not
a gated workload: the pool at jobs=2) and prints a Markdown table of
each program layer's self time per traced pass, the unattributed
remainder, their sum against the traced pass wall, and the tracing
overhead; then, on separate rows outside those totals, the probes'
time and each layer's share of it.  Run from the root of the source
tree.
"""

import argparse
import json
import os
import subprocess

WORKLOADS = ["explore", "explore-par", "adversary", "persist"]
LAYERS = ["protocols", "search", "pattern", "core", "adversary", "db", "spill"]
PROBE_LAYERS = ["search", "sim", "protocols", "pattern"]
OUT = ".perfbench_out"


def traced(seconds, seed):
    os.makedirs(OUT, exist_ok=True)
    out = os.path.join(OUT, "layers.jsonl")
    if os.path.exists(out):
        os.remove(out)
    for w in WORKLOADS:
        subprocess.run(["python3", "perfbench/run.py", "--workload", w, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "1", "--out", out],
                       check=True, capture_output=True)
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    src = traced(args.seconds, args.seed)
    by_w = {}
    with open(src) as f:
        for line in f:
            r = json.loads(line)
            by_w[r["provenance"]["workload"]] = (r["provenance"], r["result"]["metrics"])
    ws = [w for w in WORKLOADS if w in by_w]

    def v(w, name):
        return by_w[w][1][name]["value"]

    print("| seconds per traced pass | " + " | ".join(ws) + " |")
    print("|---|" + "---:|" * len(ws))
    for layer in LAYERS:
        print("| %s | " % layer + " | ".join("%.4f" % v(w, layer + ".self_s") for w in ws) + " |")
    print("| *unattributed* | " + " | ".join("%.4f" % v(w, "trace.unattributed_s") for w in ws) + " |")
    sums = {w: sum(v(w, l + ".self_s") for l in LAYERS) + v(w, "trace.unattributed_s") for w in ws}
    print("| **sum** | " + " | ".join("%.4f" % sums[w] for w in ws) + " |")
    print("| **traced pass wall** (`trace.wall_s`) | " + " | ".join("%.4f" % v(w, "trace.wall_s") for w in ws) + " |")
    print("| tracing overhead (`trace.overhead_ratio`) | "
          + " | ".join("%+.1f%%" % (100 * v(w, "trace.overhead_ratio")) for w in ws) + " |")
    print("| *probes, outside the totals:* seconds (`probe.wall_s`) | "
          + " | ".join("%.4f" % v(w, "probe.wall_s") for w in ws) + " |")
    for layer in PROBE_LAYERS:
        print("| &nbsp; share in %s | " % layer
              + " | ".join("%.1f%%" % (100 * v(w, "probe.%s_share" % layer)) for w in ws) + " |")
    prov = by_w[ws[0]][0]
    print()
    print("Host: %d CPUs, %s, OCaml %s, seed %d, %s s per run, load average %s."
          % (prov["nproc"], prov["cpu"], prov["ocaml"], prov["seed"], prov["seconds"],
             " ".join("%.2f" % x for x in prov["loadavg"])))


if __name__ == "__main__":
    main()
