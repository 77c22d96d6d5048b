"""Floor texts listed window by window agree with the floor walker.

Core claims:
    - tower_texts gives, for any window of any tower, the path_text of
      the paths the floor walker lists there, on every fixture at depths
      1-8 and on every fifth corpus diagram at depths 1-5
    - orbit texts, in both directions and where the walk stops at a top
      or a ground floor, are the path_text of the Path-mode orbit
    - TowerGraph.paths lists the cylinders of any floor sequence, across
      tower tops, repeats and backward jumps
    - deep orbits on the odometer print the Path-mode bytes quickly and
      without meeting the recursion limit
    - listings print the same bytes under every hash seed
"""

import json
import random
import time

import pytest

from bratteli import (enumerate_paths, load_diagram, make_path, orbit,
                      path_text, tower_graph, tower_texts)
from bratteli.cli import main
from conftest import fixture_path, runs_under_hash_seeds

FIXTURES = ["ex57", "ex57_unordered", "ex82", "five_vertex", "odometer",
            "two_odometers"]


def _windows(h, rng):
    """Every window of a low tower, else the ends and seeded samples."""
    if h <= 40:
        return [(lo, hi) for lo in range(h) for hi in range(lo + 1, h + 1)]
    return ([(0, h), (0, 1), (h - 1, h)]
            + [tuple(sorted(rng.sample(range(h + 1), 2))) for _ in range(20)])


def _check_towers(d, n, rng):
    for v in d.vertices(n):
        want = [path_text(p) for p in enumerate_paths(d, v, n)]
        assert tower_texts(d, n, v) == want
        for lo, hi in _windows(len(want), rng):
            assert tower_texts(d, n, v, lo, hi) == want[lo:hi], (v, lo, hi)


def test_tower_windows_match_the_walker(request, fuzz_corpus):
    rng = random.Random(1)
    for name in FIXTURES:
        d = request.getfixturevalue(name)
        for n in range(1, 9):
            _check_towers(d, n, rng)
    for _, d, _ in fuzz_corpus[::5]:
        for n in range(1, 6):
            _check_towers(d, n, rng)


def _random_path(d, n, rng, v=None):
    """A uniformly drawn edge per level, from the top down."""
    verts, ranks = [v or rng.choice(d.vertices(n))], []
    for lvl in range(n, 0, -1):
        r = rng.randrange(len(d.fiber(lvl, verts[-1])))
        ranks.append(r)
        verts.append(d.fiber(lvl, verts[-1])[r])
    return make_path(d, verts[0], ranks[::-1])


def test_orbit_texts_match_path_mode(request):
    rng = random.Random(2)
    for name in FIXTURES:
        d = request.getfixturevalue(name)
        for n in range(1, 9):
            for v in d.vertices(n):
                floors = list(enumerate_paths(d, v, n))
                starts = [floors[0], floors[-1]] + [_random_path(d, n, rng, v)
                                                    for _ in range(3)]
                for p in starts:
                    for steps in (0, 3, len(floors)):
                        for reverse in (False, True):
                            paths, end = orbit(d, p, steps, reverse)
                            assert orbit(d, p, steps, reverse, text=True) \
                                == ([path_text(q) for q in paths], end)


def test_tower_graph_paths_on_any_floor_sequence(request):
    rng = random.Random(3)
    for name in FIXTURES:
        d = request.getfixturevalue(name)
        for n in range(1, 6):
            g = tower_graph(d, n)
            size = g.size
            seqs = [list(range(size)), list(range(size - 1, -1, -1)),
                    [rng.randrange(size) for _ in range(60)],
                    [0, 0, 1, 1, 2, size - 1, size - 2, size - 1]]
            for t in range(len(g.vertices)):
                # up to a top, then on into the next tower
                seqs.append(list(range(g.ground[t], min(g.ground[t + 1] + 2,
                                                        size))))
            for seq in seqs:
                seq = [v for v in seq if 0 <= v < size]
                want = [path_text(g.path(v)) for v in seq]
                assert list(g.paths(seq, text=True)) == want
                assert [path_text(p) for p in g.paths(seq)] == want


def _deep_start(depth, low, rng):
    """Odometer path with ``low`` ranks at the bottom, random above."""
    return [low] * 9 + [rng.randrange(2) for _ in range(depth - 9)]


@pytest.mark.parametrize("depth,steps,reverse,low", [
    (3000, 5, False, None), (1000, 300, False, 1), (1000, 300, True, 0),
    (1000, 300, False, None), (1000, 300, True, None)])
def test_deep_orbit_prints_the_walker_bytes(capsys, depth, steps, reverse,
                                            low):
    rng = random.Random(depth + steps)
    ranks = ([rng.randrange(2) for _ in range(depth)] if low is None
             else _deep_start(depth, low, rng))
    d = load_diagram(fixture_path("odometer.json"))
    start = "v:" + ",".join(str(r + 1) for r in ranks)
    argv = ["orbit", fixture_path("odometer.json"), "--start", start,
            "--steps", str(steps)] + (["--reverse"] if reverse else [])
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    paths, end = orbit(d, make_path(d, "v", ranks), steps, reverse)
    assert end is None
    want = {"paths": [path_text(p) for p in paths], "terminal": None}
    assert code == 0
    assert out == json.dumps(want, indent=2) + "\n"
    assert elapsed < 1.0


def _listing_forms():
    rng = random.Random(4)
    forms = []
    for name in ("five-vertex.json", "two-odometers.json"):
        path = fixture_path(name)
        d = load_diagram(path)

        def arg(p):
            return "%s:%s" % (p.end, ",".join(str(r + 1) for r in p.ranks))

        a, b = _random_path(d, 4, rng), _random_path(d, 4, rng)
        forms += [["towers", path, "--level", "3"],
                  ["orbit", path, "--start", arg(a), "--steps", "20"],
                  ["orbit", path, "--start", arg(b), "--steps", "20",
                   "--reverse"],
                  ["chain", path, "--start", arg(a), "--end", arg(b)],
                  ["chain", path, "--start", arg(a), "--closed"],
                  ["chain", path, "--depth", "4"]]
    return forms


def test_listings_are_the_same_under_every_hash_seed():
    runs = runs_under_hash_seeds(_listing_forms())
    assert runs[0] == runs[1] == runs[2]
    assert {code for code, _ in runs[0]} == {0, 1, 2}
