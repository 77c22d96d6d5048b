import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from bratteli import Level, load_diagram

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_FIXTURES = os.path.join(_ROOT, "fixtures")

# runs cli.main on each argv read from stdin; prints [code, stdout] pairs
_DRIVER = """
import contextlib, io, json, sys
from bratteli.cli import main
res = []
for argv in json.loads(sys.stdin.read()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    res.append([code, out.getvalue()])
print(json.dumps(res))
"""


def fixture_path(name):
    return os.path.join(_FIXTURES, name)


def runs_under_hash_seeds(forms):
    """Per PYTHONHASHSEED, the [exit code, stdout] of each command line
    in forms, run in a fresh interpreter on the source tree."""
    runs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(_ROOT, "src")]
                       + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run([sys.executable, "-c", _DRIVER],
                              input=json.dumps(forms), capture_output=True,
                              text=True, env=env, check=True)
        runs.append(json.loads(proc.stdout))
    return runs


def make_level(ids, labels, edges):
    """A Level built from its edges, each fiber in edge order."""
    fibers = {v: tuple(s for s, r in edges if r == v) for v in ids}
    return Level(ids, labels, edges, fibers)


def to_json(d):
    """The JSON document of a diagram, as the command line prints it."""
    return json.loads(d.to_json_text())


@pytest.fixture(scope="session")
def ex57():
    return load_diagram(fixture_path("example-5-7.json"))


@pytest.fixture(scope="session")
def ex57_unordered():
    return load_diagram(fixture_path("example-5-7-unordered.json"))


@pytest.fixture(scope="session")
def ex82():
    return load_diagram(fixture_path("example-8-2.json"))


@pytest.fixture(scope="session")
def five_vertex():
    return load_diagram(fixture_path("five-vertex.json"))


@pytest.fixture(scope="session")
def odometer():
    return load_diagram(fixture_path("odometer.json"))


@pytest.fixture(scope="session")
def two_odometers():
    return load_diagram(fixture_path("two-odometers.json"))


@pytest.fixture(scope="session")
def fuzz_corpus():
    from fuzzgen import corpus
    return corpus()
