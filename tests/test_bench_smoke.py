"""The benchmark's correctness pass runs as a test.

Core claim:
    - a one-second run of the check workload reports "correct": true, so
      an op whose output no longer matches its recorded digest fails the
      test suite, not only the benchmark
"""

import json
import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_check_workload_matches_its_digests():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "check", "--seconds", "1"], cwd=_ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
