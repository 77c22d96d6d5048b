"""Benchmark of the bratteli command line, end to end and per layer.

    python3 bench/run.py --workload chain --seed 1 --seconds 30 --trace 0
    for w in chain walk check; do python3 bench/run.py --workload $w; done

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  Workloads are ``chain``, ``walk`` and
``check`` (see ``workloads.py`` for why each exists).  Each op is one
``bratteli.cli.main(argv)`` call on files generated from ``--seed``.

The workload runs in a fresh child process (``loop.py``): set-up, one
pass whose outputs are all checked, then whole passes timed until
``--seconds`` have elapsed.  This process then measures set-up time in
fresh interpreters and prints the metrics: a table for people, then as
the last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones from a traced
run, whose spans go to ``.bench_out/``.

Timings are not pinned: the benchmark takes no CPU pinning and no
frequency control, so they carry the host's noise.  Medians over whole
passes, and inputs whose sizes the seed does not change, keep runs
comparable; ``host_reference_ms`` in the report shows how fast the host
ran a fixed loop during the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_RUNS = 21
CHILD_TIMEOUT_S = 160
TAIL_BEYOND = 10        # samples the tail percentile must leave above it

# a fresh interpreter reaches the state where the first op can run:
# the CLI module imported and main() through argument parsing, stopped
# by a missing input file before any work
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bratteli.cli
bratteli.cli.main(["validate", sys.argv[2]])
print(time.perf_counter() - t0)
"""

UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "decided_share": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform(),
            "note": "no CPU pinning or frequency control is available; "
                    "timings include the host's scheduling noise"}


def run_child(argv, deadline_s):
    """Run the workload child; return (exit code, peak RSS in MB).

    String hashing is fixed in the child.  Some outputs list dict keys in
    set-iteration order (the extreme-path witness of ``validate
    --ordered``), so their bytes otherwise change from one process to the
    next and no recorded digest could match them.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(argv, stdout=sys.stderr, env=env)
    end = time.monotonic() + deadline_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > end:
            proc.kill()
            proc.wait()
            return None, 0.0
        time.sleep(0.02)


def setup_seconds(src, missing):
    samples = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", _SETUP_CODE, src,
                              missing], capture_output=True, text=True,
                             timeout=60)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def tail(times):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile)."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(res, rss_mb, setup_s):
    lat = res["latencies"]
    ops = res["ops"]
    tail_s, pct = tail(lat)
    verdicts = res["verdicts"]
    total = sum(verdicts.values())
    # an op's time is its median over the passes; the pass those times
    # add up to is the throughput at the workload's input size
    op_medians = [statistics.median(lat[i::ops]) for i in range(ops)]
    metrics = {
        "ops_per_s": ops / sum(op_medians),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_tail_ms": tail_s * 1000,
        "decided_share": (total - verdicts.get("Unknown", 0)) / total,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }
    notes = {"samples": len(lat), "tail_percentile": pct,
             "passes": res["passes"],
             "host_reference_ms": statistics.median(res["reference_s"]) * 1000,
             "error_share": res["failed"] / res["attempted"],
             "unknown_share": verdicts.get("Unknown", 0) / total,
             "verdicts": verdicts}
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, \
        notes


def per_layer(res):
    layers = res["layers"]
    units = {}
    for key in layers:
        if key.endswith("_s"):
            units[key] = "s"
        elif key.endswith("_per_step"):
            units[key] = "ratio"
        else:
            units[key] = "count"
    notes = {"trace_overhead": res["overhead"], "passes": res["passes"]}
    return ({k: {"value": v, "unit": units[k]} for k, v in layers.items()},
            notes)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("chain", "walk", "check"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", metavar="FILE",
                    help="append the result with its environment as one "
                    "JSON line, for compare.py")
    ap.add_argument("--record-digests", action="store_true",
                    help="store pass 1 output digests of this workload in "
                    "digests.json (default seed only)")
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bratteli", "cli.py")):
        sys.exit("error: no src/bratteli/cli.py under %s; run from the root "
                 "of a bratteli checkout" % root)
    if args.record_digests and args.seed != DEFAULT_SEED:
        sys.exit("error: digests are recorded for seed %d only"
                 % DEFAULT_SEED)

    tag = "%s-seed%d" % (args.workload, args.seed)
    work = os.path.join(root, ".bench_work", tag)
    out_dir = os.path.join(root, ".bench_out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    child = [sys.executable, os.path.join(HERE, "loop.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--src", src, "--work", work, "--result", result_path]
    if args.trace:
        os.makedirs(out_dir, exist_ok=True)
        child += ["--spans", os.path.join(out_dir, "spans-%s.json.gz" % tag)]
    if args.seed == DEFAULT_SEED and not args.record_digests:
        child += ["--digests", DIGESTS]
    try:
        code, rss_mb = run_child(child, CHILD_TIMEOUT_S)
        if code != 0:
            sys.exit("error: workload process %s" % (
                "timed out" if code is None else "exited %d" % code))
        with open(result_path) as fh:
            res = json.load(fh)
        if not args.trace:
            setup_s = setup_seconds(src, os.path.join(work, "missing.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_digests:
        recorded = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS) as fh:
                recorded = json.load(fh)
        recorded[args.workload] = res["digests"]
        with open(DIGESTS, "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")

    if args.trace:
        metrics, notes = per_layer(res)
    else:
        metrics, notes = end_to_end(res, rss_mb, setup_s)
    env = environment()
    correct = res["failed"] == 0
    print("bratteli benchmark: workload %s, seed %d, %s run"
          % (args.workload, args.seed, "traced" if args.trace else "timed"))
    print("  %d ops per pass, %d ops attempted, %d failed"
          % (res["ops"], res["attempted"], res["failed"]))
    for problem in res["problems"]:
        print("  FAILED %s" % problem)
    for key, val in notes.items():
        print("  %s: %s" % (key, val))
    for name, m in sorted(metrics.items()):
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  environment: %s" % json.dumps(env, sort_keys=True))
    if args.save:
        with open(args.save, "a") as fh:
            fh.write(json.dumps({"workload": args.workload,
                                 "seed": args.seed,
                                 "seconds": args.seconds,
                                 "trace": args.trace, "env": env,
                                 "notes": notes, "correct": correct,
                                 "metrics": metrics}) + "\n")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
