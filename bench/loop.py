"""The workload process: set up, then replay whole passes of the op list.

Started by ``run.py`` as a fresh child so that its peak resident memory
is the workload's own.  One process, one closed-loop client, no threads:
the next op starts when the previous one has returned.

Pass 1 is the correctness pass: every output is checked in full and its
digest (exit code and stdout bytes) kept; for the default seed the
digests must equal the ones recorded in ``digests.json``.  Timed passes
follow until ``--seconds`` have elapsed, and each of their outputs must
repeat pass 1 byte for byte.

With ``--trace 1`` one untraced pass is timed as the baseline and the
passes after it are traced: counters come from the first traced pass,
self times are medians over traced passes, the first traced pass's spans
are written to ``--spans``, and the overhead is the traced passes'
median time over the baseline, minus one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
from collections import Counter


def _digest(code, out):
    return hashlib.sha256(b"%d\n" % code + out.encode()).hexdigest()


class Runner:
    def __init__(self, ops, expected):
        self.ops = ops
        self.expected = expected    # op id -> recorded digest, or {}
        self.digests = {}
        self.verdicts = Counter()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _fail(self, op, why):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append("%s: %s" % (op.id, why))

    def run_pass(self, check, mark=None):
        """Run every op once; return the per-op wall times.  ``mark(i)`` is
        called before the i-th op."""
        from workloads import call
        times = []
        for i, op in enumerate(self.ops):
            if mark is not None:
                mark(i)
            t0 = time.perf_counter()
            try:
                code, out = call(op.argv)
            except (Exception, SystemExit) as exc:
                times.append(time.perf_counter() - t0)
                self.attempted += 1
                self._fail(op, "raised " + "".join(
                    traceback.format_exception_only(type(exc), exc)).strip())
                continue
            times.append(time.perf_counter() - t0)
            self.attempted += 1
            digest = _digest(code, out)
            if check:
                try:
                    self.verdicts.update(op.check(code, out))
                except Exception as exc:
                    # any error while reading the output means it is wrong
                    self._fail(op, "exit %r: %r" % (code, exc))
                    continue
                self.digests[op.id] = digest
                want = self.expected.get(op.id)
                if want is not None and want != digest:
                    self._fail(op, "output differs from the recorded digest")
            elif self.digests.get(op.id) != digest:
                self._fail(op, "output differs from pass 1")
        return times


def _trace_hooks():
    """Counters read off the values the layers return."""
    def graph(counts, g):
        counts["dynamics.graph_builds"] += 1
        counts["dynamics.nodes"] += len(g)
        counts["dynamics.edges"] += sum(len(outs) for outs in g.out)
        counts["dynamics.flagged"] += len(g.flagged)
        counts["dynamics.tops"] += len({p.end for p in g.nodes})

    def path(counts, _):
        counts["order.paths_enumerated"] += 1

    return {"dynamics.cylinder_graph": graph,
            "order.enumerate_paths": path}


# plain accessors and value constructors: a walk pass calls them about
# five million times, so they are counted, not timed
COUNTED_ONLY = (
    "diagram.Diagram.level", "diagram.Diagram.fiber",
    "diagram.Diagram.label", "diagram.Diagram.vertices",
    "diagram.Diagram.has_level", "diagram.Diagram.component",
    "diagram.Diagram.others", "order.Path.__init__", "order.Path.key",
    "order.MarkerTable.rep", "order.MarkerTable.landing",
    "vershik.StepImage.__init__", "vershik.Maximal.__init__",
    "vershik.Minimal.__init__", "realize.Multigraph.deg",
    "realize.Multigraph.deg_in", "realize.Multigraph.deg_out",
    "realize.Multigraph.touched",
)


def _layer_metrics(tracer):
    """Per-layer counters of the passes since the last reset."""
    from tracer import LAYERS
    calls, self_s, errors, by_name = tracer.per_layer()

    def ncalls(name):
        return by_name.get(name, (0, 0.0))[0]

    out = {}
    for layer in LAYERS:
        out[layer + ".calls"] = calls[layer]
        out[layer + ".self_s"] = self_s[layer]
        out[layer + ".errors"] = errors[layer]
    counts = tracer.counts
    for name in ("graph_builds", "nodes", "edges", "flagged"):
        out["dynamics." + name] = counts["dynamics." + name]
    steps = ncalls("vershik.vershik_step")
    out["dynamics.tops_per_step"] = (counts["dynamics.tops"] / steps
                                     if steps else 0.0)
    out["vershik.step_calls"] = steps
    out["vershik.successor_calls"] = ncalls("vershik.successor")
    out["vershik.predecessor_calls"] = ncalls("vershik.predecessor")
    out["order.paths_enumerated"] = counts["order.paths_enumerated"]
    out["order.marker_tables"] = ncalls("order.MarkerTable.__init__")
    out["diagram.incidence_calls"] = ncalls("diagram.Diagram.incidence")
    out["diagram.path_counts_calls"] = ncalls("diagram.Diagram.path_counts")
    out["diagram.parse_s"] = by_name.get("diagram.parse_diagram",
                                         (0, 0.0))[1]
    return out


def _reference_s():
    """Wall time of a fixed pure-Python loop.  It does not depend on the
    program, so it shows how fast the host ran during the passes."""
    t0 = time.perf_counter()
    total = 0
    for i in range(300000):
        total += (i * i) % 7
    return time.perf_counter() - t0


def timed(runner, seconds):
    """Timed passes until ``seconds`` have elapsed; at least one.  Returns
    every op's wall time, pass after pass, and the reference loop's time
    after each pass."""
    latencies, reference = [], []
    start = time.perf_counter()
    while True:
        latencies += runner.run_pass(check=False)
        reference.append(_reference_s())
        if time.perf_counter() - start >= seconds:
            break
    return {"passes": len(reference), "latencies": latencies,
            "reference_s": reference}


def traced(runner, seconds, spans_path):
    """One untraced pass as the baseline, then traced passes until
    ``seconds`` have elapsed; at least one."""
    from tracer import Tracer
    untraced_s = sum(runner.run_pass(check=False))
    tracer = Tracer()
    tracer.install(_trace_hooks(), COUNTED_ONLY)
    per_pass, pass_s = [], []
    start = time.perf_counter()

    def mark(i):
        tracer.op = i

    while True:
        tracer.reset()
        tracer.keep = not per_pass
        pass_s.append(sum(runner.run_pass(check=False, mark=mark)))
        per_pass.append(_layer_metrics(tracer))
        if time.perf_counter() - start >= seconds:
            break
    first = per_pass[0]
    metrics = dict(first)
    for key in first:
        if key.endswith("_s"):
            metrics[key] = statistics.median(p[key] for p in per_pass)
    overhead = statistics.median(pass_s) / untraced_s - 1
    tracer.write(spans_path, {"ops": [op.id for op in runner.ops],
                              "untraced_pass_s": untraced_s,
                              "traced_pass_s": pass_s,
                              "overhead": overhead})
    return {"layers": metrics, "passes": len(per_pass),
            "overhead": overhead}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--digests", default=None,
                    help="recorded digests to compare pass 1 against")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import bratteli
    if not os.path.abspath(bratteli.__file__).startswith(args.src + os.sep):
        sys.exit("bratteli imported from %s, not from %s"
                 % (bratteli.__file__, args.src))
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload](args.seed, args.work)
    expected = {}
    if args.digests:
        with open(args.digests) as fh:
            expected = json.load(fh).get(args.workload, {})
    runner = Runner(ops, expected)
    runner.run_pass(check=True)
    result = {"ops": len(ops), "verdicts": dict(runner.verdicts),
              "digests": runner.digests}
    if args.trace:
        result.update(traced(runner, args.seconds, args.spans))
    else:
        result.update(timed(runner, args.seconds))
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
