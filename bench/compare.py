"""Compare two result sets of the benchmark, metric by metric.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --save FILE`` appended, one per run.
Runs are paired in file order within each workload, so alternate the
two commits when collecting them.  For every (workload, end-to-end
metric) pair the verdict is:

  better      the change wins at least 9 of every 10 pairs (ties count
              for neither side), at least 10 pairs were run, and the
              medians differ by more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json, and the spread of
              the runs is within the bound or every change run is worse
              than every parent run;
  unresolved  the spread of either side is wider than the bound and the
              runs do not separate;
  same        none of these: within the bound.

Exits 1 if any pair is worse.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def spread(values):
    """Interquartile range and its share of the median."""
    if len(values) < 2:
        return float("inf"), float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q3 - q1, (q3 - q1) / med if med else float("inf")


def verdict(parent, change, better, bound):
    def improves(c, p):
        return c > p if better == "higher" else c < p

    pairs = list(zip(parent, change))
    wins = sum(improves(c, p) for p, c in pairs)
    mp, mc = statistics.median(parent), statistics.median(change)
    iqr_p, rel_p = spread(parent)
    _, rel_c = spread(change)
    worse_by = (mp - mc if better == "higher" else mc - mp) / mp
    noisy = max(rel_p, rel_c) > bound
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(mc - mp) > iqr_p):
        out = "better"
    elif worse_by > bound and (not noisy or all(
            improves(p, c) for p in parent for c in change)):
        out = "worse"
    elif noisy and not all(improves(c, p) for p in parent for c in change):
        out = "unresolved"
    else:
        out = "same"
    return out, {"parent": mp, "change": mc, "wins": wins,
                 "pairs": len(pairs), "worse_by": worse_by,
                 "spread": max(rel_p, rel_c)}


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    parent, change = load(argv[0]), load(argv[1])
    worse = False
    print("%-8s %-16s %12s %12s %7s %8s %7s  %s" % (
        "workload", "metric", "parent", "change", "wins", "worse_by",
        "spread", "verdict"))
    for wl in spec["workloads"]:
        name = wl["name"]
        if name not in parent or name not in change:
            print("%-8s missing from %s" % (
                name, "parent" if name not in parent else "change"))
            continue
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in parent[name]]
            c = [r["metrics"][m["name"]]["value"] for r in change[name]]
            v, info = verdict(p, c, m["better"], m["bound"])
            worse |= v == "worse"
            print("%-8s %-16s %12.5g %12.5g %3d/%-3d %+8.3f %7.3f  %s" % (
                name, m["name"], info["parent"], info["change"],
                info["wins"], info["pairs"], info["worse_by"],
                info["spread"], v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
