#!/usr/bin/env python3
"""Compare two sets of perfbench result records.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds the JSON records perfbench writes under
.bench_build/results (one per run). For every workload and end-to-end metric
the script prints both sides' medians and quartiles and the change, and
marks a change worse than the metric's bound in BENCHMARK.json. Runs whose
host fingerprints differ are flagged and the script exits 3 without
comparing.
"""
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "gomaxprocs", "cpu_model", "go_version", "kernel", "goos", "goarch")


def load(d):
    recs = []
    for name in sorted(os.listdir(d)):
        if name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                rec = json.load(f)
            if rec.get("schema") == "perfbench/record/v1":
                recs.append(rec)
    return recs


def fingerprint(rec):
    return tuple((k, str(rec["host"].get(k))) for k in HOST_KEYS)


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], statistics.median(vals), q[2]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    if not old or not new:
        print("compare: no perfbench records in one of the directories", file=sys.stderr)
        return 2
    hosts = {fingerprint(r) for r in old + new}
    if len(hosts) > 1:
        print("compare: HOST MISMATCH - the runs come from different hosts:")
        for h in sorted(hosts):
            print("   ", dict(h))
        return 3
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    worse = 0
    for wl in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            o = [r["metrics"][m["name"]]["value"] for r in old
                 if r["workload"] == wl and not r["traced"] and m["name"] in r["metrics"]]
            n = [r["metrics"][m["name"]]["value"] for r in new
                 if r["workload"] == wl and not r["traced"] and m["name"] in r["metrics"]]
            if not o or not n:
                continue
            oq, nq = quartiles(o), quartiles(n)
            change = (nq[1] - oq[1]) / oq[1] if oq[1] else 0.0
            bad = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse += bad
            print("%-14s %-16s old %10.4g [%.4g..%.4g] n=%d  new %10.4g [%.4g..%.4g] n=%d  %+6.1f%%%s" % (
                wl, m["name"], oq[1], oq[0], oq[2], len(o), nq[1], nq[0], nq[2], len(n),
                100 * change, "  WORSE THAN BOUND" if bad else ""))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
