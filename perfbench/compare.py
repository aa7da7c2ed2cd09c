#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by `run.py --out FILE`, any number of
runs per workload.  For every workload and metric the script compares
the median of NEW against the median of BASE:

- end-to-end metrics are judged against their bound in BENCHMARK.json:
  a median worse by more than the bound is a regression;
- per-layer metrics have no bound and are reported as changes;
- metrics declared volatile or driver-dependent in metrics.json are
  wall-clock or schedule figures: they are compared only when both sets
  ran on matching hosts (same processor count, processor model and
  OCaml version).  Deterministic counts are compared everywhere.

Exits 1 when any end-to-end metric regressed, else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def host_key(prov):
    return (prov["nproc"], prov["cpu"], prov["ocaml"])


def declared():
    with open(os.path.join(HERE, "metrics.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    return {m["name"]: dict(m, bound=bounds.get(m["name"])) for m in spec["end_to_end"] + spec["per_layer"]}


def medians(records):
    """{(workload, metric): median} and the set of host keys per workload."""
    values, hosts = {}, {}
    for r in records:
        w = r["provenance"]["workload"]
        hosts.setdefault(w, set()).add(host_key(r["provenance"]))
        for name, m in r["result"]["metrics"].items():
            values.setdefault((w, name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in values.items()}, hosts


def worse_by(meta, base, new):
    """How much worse NEW is than BASE, as a share of BASE (negative:
    better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if meta["better"] == "lower" else -change


def judge(base_records, new_records):
    """Rows of (workload, metric, base, new, worse_by, verdict)."""
    spec = declared()
    base, base_hosts = medians(base_records)
    new, new_hosts = medians(new_records)
    rows = []
    for (w, name) in sorted(set(base) & set(new)):
        meta = spec[name]
        same_host = base_hosts.get(w) == new_hosts.get(w) and len(base_hosts[w]) == 1
        b, n = base[(w, name)], new[(w, name)]
        d = worse_by(meta, b, n)
        if meta["class"] != "deterministic" and not same_host:
            verdict = "skipped: hosts differ"
        elif meta["bound"] is not None:
            verdict = "REGRESSED" if d > meta["bound"] else "within bound"
        elif meta["class"] == "deterministic":
            verdict = "equal" if b == n else "changed"
        else:
            verdict = "changed" if b != n else "equal"
        rows.append((w, name, b, n, d, verdict))
    return rows


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    rows = judge(load_records(sys.argv[1]), load_records(sys.argv[2]))
    for w, name, b, n, d, verdict in rows:
        print("%-12s %-30s %14.6g %14.6g %+8.1f%%  %s" % (w, name, b, n, 100 * d, verdict))
    sys.exit(1 if any(r[5] == "REGRESSED" for r in rows) else 0)


if __name__ == "__main__":
    main()
