"""Successor dynamics and Kakutani-Rokhlin towers.

Core claims:
    - successor is the lex successor with minimal refill below the pivot
    - successor and predecessor are mutually inverse away from the extremes
    - exactly one path per tower tops out (Maximal) and one bottoms out
    - tower floors climb by successor from a Minimal ground floor to a
      Maximal top, and predecessor climbs them back down
    - traversal counts of deep towers through shallow ones reproduce the
      incidence matrix
    - vershik_step resolves maximal windows exactly on the stationary
      fixtures, and wraps trunk tops to the opposite extreme
    - orbit walks stop early with the right terminal marker
    - the floor walker, from any floor and in either direction, takes
      the successor or predecessor steps, and its texts are path_text
"""

import pytest
from hypothesis import given, settings, strategies as st

from bratteli import (
    MAX,
    MIN,
    Maximal,
    Minimal,
    Path,
    enumerate_paths,
    extreme_path,
    make_path,
    orbit,
    path_text,
    predecessor,
    successor,
    towers,
    traversal_matrix,
    vershik_step,
)
from cylinder_oracle import recursive_paths

FIXTURES = ["ex57", "ex82", "five_vertex", "odometer", "two_odometers"]


# -- Successor / predecessor -------------------------------------------------

def test_successor_increments_shallowest_movable(ex57):
    p = make_path(ex57, "v1", (0, 0, 0))
    q = successor(ex57, p)
    assert q.ranks == (0, 1, 0)
    assert p.key() < q.key()


def test_successor_refills_minimally(ex57):
    # pivot at the top edge: everything below restarts at the min path
    top = extreme_path(ex57, "v1", 2, MAX)
    p = Path(top.verts + ("v1",), top.ranks + (1,))
    q = successor(ex57, p)
    assert q.ranks[-1] == 2
    head = Path(q.verts[:2], q.ranks[:2])
    assert head == extreme_path(ex57, q.verts[1], 2, MIN)


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_successor_predecessor_invert(request, fixture, depth):
    d = request.getfixturevalue(fixture)
    for v in d.vertices(depth):
        for p in enumerate_paths(d, v, depth):
            q = successor(d, p)
            if isinstance(q, Path):
                assert predecessor(d, q) == p
            r = predecessor(d, p)
            if isinstance(r, Path):
                assert successor(d, r) == p


@pytest.mark.parametrize("fixture", FIXTURES)
def test_one_extreme_per_tower(request, fixture):
    d = request.getfixturevalue(fixture)
    for v in d.vertices(3):
        paths = list(enumerate_paths(d, v, 3))
        tops = [p for p in paths if isinstance(successor(d, p), Maximal)]
        grounds = [p for p in paths if isinstance(predecessor(d, p), Minimal)]
        assert tops == [paths[-1]]
        assert grounds == [paths[0]]


def test_extreme_markers_name_their_component(ex57):
    top = extreme_path(ex57, "y2", 3, MAX)
    assert successor(ex57, top) == Maximal(2)
    ground = extreme_path(ex57, "y1", 3, MIN)
    assert predecessor(ex57, ground) == Minimal(1)
    # towers over V_o vertices top out without truncating any z-chain
    vo_top = extreme_path(ex57, "v1", 3, MAX)
    assert successor(ex57, vo_top) == Maximal(None)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_successor_is_the_lex_successor(ex57, data):
    depth = data.draw(st.integers(1, 3), label="depth")
    end = data.draw(st.sampled_from(ex57.vertices(depth)), label="end")
    paths = list(enumerate_paths(ex57, end, depth))
    i = data.draw(st.integers(0, len(paths) - 1), label="index")
    q = successor(ex57, paths[i])
    if i + 1 < len(paths):
        assert q == paths[i + 1]
    else:
        assert isinstance(q, Maximal)


# -- Towers ------------------------------------------------------------------

def test_tower_heights_equal_path_counts(ex57):
    part = towers(ex57, 3)
    assert [len(part.tower(v)) for v in part.vertices] == ex57.path_counts(3)


def test_towers_climb_by_successor(ex82):
    part = towers(ex82, 3)
    assert part.level == 3
    assert part.vertices == ex82.vertices(3)
    assert [len(part.tower(v)) for v in part.vertices] == ex82.path_counts(3)
    t = part.tower("2")
    for a, b in zip(t, t[1:]):
        assert successor(ex82, a) == b


def _check_tower_climb(d, n):
    for v in d.vertices(n):
        floors = towers(d, n).tower(v)
        for a, b in zip(floors, floors[1:]):
            assert successor(d, a) == b
            assert predecessor(d, b) == a
        assert isinstance(successor(d, floors[-1]), Maximal)
        assert isinstance(predecessor(d, floors[0]), Minimal)


def test_tower_floors_are_successor_steps(request, fuzz_corpus):
    """The floors a tower lists in lex order are exactly the successor
    climb from a Minimal ground floor to a Maximal top, in both
    directions of the move."""
    for name in FIXTURES + ["ex57_unordered"]:
        d = request.getfixturevalue(name)
        for n in range(1, 6):
            _check_tower_climb(d, n)
    for _, d, _ in fuzz_corpus[::5]:
        for n in range(1, 5):
            _check_tower_climb(d, n)


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_traversal_matrix_equals_incidence(request, fixture, n):
    d = request.getfixturevalue(fixture)
    assert traversal_matrix(d, n) == d.incidence(n)


# -- Orbits ------------------------------------------------------------------

def test_orbit_walks_the_whole_tower(odometer):
    start = extreme_path(odometer, "v", 3, MIN)
    paths, terminal = orbit(odometer, start, 10)
    assert len(paths) == 8
    assert terminal == Maximal(1)
    ranks = [p.ranks for p in paths]
    assert ranks[0] == (0, 0, 0)
    assert ranks[-1] == (1, 1, 1)
    assert len(set(ranks)) == 8


def test_orbit_reverse_returns_to_ground(odometer):
    top = extreme_path(odometer, "v", 3, MAX)
    paths, terminal = orbit(odometer, top, 99, reverse=True)
    assert terminal == Minimal(1)
    assert len(paths) == 8


def test_orbit_stops_exactly_at_steps(ex57):
    start = extreme_path(ex57, "v1", 3, MIN)
    paths, terminal = orbit(ex57, start, 4)
    assert terminal is None
    assert len(paths) == 5
    assert paths[0] == start


def _check_floor_walker(d, n, steps=4):
    """From every floor and in both directions, the walker's paths, its
    texts and its terminal marker equal ``steps`` repeated successor or
    predecessor calls, the brute-force lex list and ``path_text``."""
    for v in d.vertices(n):
        floors = recursive_paths(d, v, n)
        for i, p in enumerate(floors):
            for reverse, move in ((False, successor), (True, predecessor)):
                want = (floors[i::-1][:steps + 1] if reverse
                        else floors[i:i + steps + 1])
                stepped, terminal = [p], None
                while len(stepped) <= steps and terminal is None:
                    nxt = move(d, stepped[-1])
                    if isinstance(nxt, Path):
                        stepped.append(nxt)
                    else:
                        terminal = nxt
                assert stepped == want
                if len(want) <= steps:
                    assert isinstance(terminal, Minimal if reverse
                                      else Maximal)
                assert orbit(d, p, steps, reverse) == (want, terminal)
                assert orbit(d, p, steps, reverse, text=True) == \
                    ([path_text(q) for q in want], terminal)


def test_floor_walker_matches_successor_steps(request, fuzz_corpus):
    for name in FIXTURES + ["ex57_unordered"]:
        d = request.getfixturevalue(name)
        for n in range(1, 7):
            _check_floor_walker(d, n)
    for _, d, _ in fuzz_corpus[::5]:
        for n in range(1, 5):
            _check_floor_walker(d, n)


def test_tower_texts_match_path_text(request):
    for name in FIXTURES:
        d = request.getfixturevalue(name)
        for n in range(1, 5):
            part = towers(d, n)
            for v in part.vertices:
                assert part.tower(v, text=True) == \
                    [path_text(p) for p in part.tower(v)]


# -- Set-valued step on cylinders --------------------------------------------

def test_step_of_nonmaximal_window_is_its_successor(ex57):
    p = make_path(ex57, "v1", (0, 0, 0))
    img = vershik_step(ex57, p)
    assert not img.unresolved
    assert img.targets == frozenset([successor(ex57, p)])


def test_step_wraps_trunk_top_to_minimal_window(odometer):
    top = extreme_path(odometer, "v", 3, MAX)
    img = vershik_step(odometer, top)
    assert not img.unresolved
    assert img.targets == frozenset([extreme_path(odometer, "v", 3, MIN)])


def test_maximal_vo_window_lands_on_min_windows(ex57):
    top = extreme_path(ex57, "v1", 2, MAX)
    img = vershik_step(ex57, top)
    assert not img.unresolved
    assert img.targets
    for q in img.targets:
        assert q.ranks[0] == 0 or q.depth == 1


def test_unresolved_step_on_short_presentation(ex57):
    # cut the diagram to its explicit levels: the walk runs off the end
    doc = ex57.to_json()
    doc["stationary"] = False
    from bratteli import parse_diagram
    import json as _json
    d = parse_diagram(_json.dumps(doc))
    top = extreme_path(d, "v1", 2, MAX)
    img = vershik_step(d, top)
    assert img.unresolved
