"""Chain dynamics at fixed cylinder resolution.

Core claims:
    - path_text renders 1-based ranks
    - the tower graph numbers its floors as the dot drawing numbers its
      nodes, and rank and path turn a cylinder into its floor and back
    - every non-maximal window has exactly one out-edge, its successor,
      and unresolved windows get no invented edges
    - the three-tower fixtures are chain transitive at small depths; the
      doubled odometer fails with the expected island as cut witness
    - chain failure is monotone under refinement on the elementary fixture
    - epsilon chains are shortest and consist of consecutive graph edges
    - saturation sets agree with chain transitivity (full iff Holds)
    - cover_steps sweeps the odometer in 2^N - 1 steps from one end and
      reports Diverges only on stalled hand-built relations
    - pseudo-orbits are closed chains through the base cylinder

Hand-built relations are tower graphs on example-5-7 at depth 2: towers
y1, v1, v2, y2 of heights 2, 5, 5, 2, floors 0-1, 2-6, 7-11 and 12-13.
"""

import json

import pytest

from bratteli import (
    FAILS,
    HOLDS,
    MAX,
    MIN,
    UNKNOWN,
    CylinderGraph,
    DiagramError,
    Diverges,
    Path,
    TowerGraph,
    chain_transitive,
    cover_steps,
    cylinder_graph,
    enumerate_paths,
    epsilon_chain,
    extreme_path,
    make_path,
    parse_diagram,
    path_text,
    pseudo_orbit,
    saturation_sets,
    successor,
    tower_graph,
)
from conftest import to_json


# -- Rendering ---------------------------------------------------------------

def test_path_text_format(ex57):
    p = make_path(ex57, "v1", (0, 1))
    assert path_text(p) == "1:root->v1#1|2:v1->v1#2"
    assert path_text(make_path(ex57, "y1", (0,))) == "1:root->y1#1"


# -- Graph construction ------------------------------------------------------

def test_cylinder_graph_shape(ex57):
    g = cylinder_graph(ex57, 2)
    assert len(g) == 14
    assert g.depth == 2
    assert not g.flagged
    assert len(set(g.nodes)) == 14
    # towers appear in vertex listing order, floors bottom up
    ends = [p.end for p in g.nodes]
    assert ends == sorted(ends, key=list(ex57.vertices(2)).index)
    # the tower graph numbers its floors the same way
    tg = tower_graph(ex57, 2)
    assert [tg.path(v) for v in range(tg.size)] == list(g.nodes)
    assert [tg.rank(p, "floor") for p in g.nodes] == list(range(14))
    assert [tg[v] for v in range(tg.size)] == list(g.out)


def test_cylinder_graph_node_counts(ex57):
    assert [len(cylinder_graph(ex57, n)) for n in (1, 2, 3)] == [4, 14, 46]


def test_nonmaximal_windows_step_deterministically(ex57):
    tg = tower_graph(ex57, 2)
    for v in range(tg.size):
        nxt = successor(ex57, tg.path(v))
        if isinstance(nxt, Path):
            assert tg[v] == (tg.rank(nxt, "successor"),)
        else:
            assert len(tg[v]) >= 1


def test_floor_rank_rejects_foreign_paths(odometer, ex57):
    tg = tower_graph(ex57, 2)
    with pytest.raises(DiagramError, match="^p has depth 3, graph was "
                       "built at depth 2$"):
        tg.rank(make_path(ex57, "v1", (0, 0, 0)), "p")
    for foreign in (Path(("v", "v"), (0, 0)), Path(("y1", "v1"), (0, 7)),
                    Path(("y1", "v1"), (0, -1)), Path(("v2", "v1"), (0, 0))):
        with pytest.raises(DiagramError, match="^p is not a path of this "
                           "diagram$"):
            tg.rank(foreign, "p")


def test_cylinder_graph_rejects_zero_depth(ex57):
    with pytest.raises(DiagramError, match="depth at least 1"):
        cylinder_graph(ex57, 0)


def test_to_dot_marks_flagged_nodes(odometer):
    g = cylinder_graph(odometer, 1)
    hand = CylinderGraph(1, g.nodes, ((), (0,)), (0,))
    dot = hand.to_dot()
    assert dot.startswith("digraph cylinders {")
    assert "style=dashed" in dot
    assert "n1 -> n0;" in dot


# -- Chain transitivity ------------------------------------------------------

@pytest.mark.parametrize("fixture", ["ex57", "ex82", "odometer"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_fixtures_chain_transitive(request, fixture, depth):
    d = request.getfixturevalue(fixture)
    verdict, witness = chain_transitive(tower_graph(d, depth))
    assert verdict == HOLDS
    assert witness["resolution"] == depth
    assert witness["nodes"] == len(cylinder_graph(d, depth))


def test_doubled_odometer_fails_with_island_cut(two_odometers):
    verdict, witness = chain_transitive(tower_graph(two_odometers, 3))
    assert verdict == FAILS
    assert witness["cut_size"] == 4
    assert all(text.startswith("1:root->a#1") for text in witness["cut"])


def test_elementary_fixture_failure_is_monotone(five_vertex):
    """Once a closed cut exists at depth N it persists at every deeper
    resolution; the island over the terminal vertex doubles each level."""
    sizes = []
    for depth in (1, 2, 3, 4):
        verdict, witness = chain_transitive(tower_graph(five_vertex, depth))
        assert verdict == FAILS
        sizes.append(witness["cut_size"])
    assert sizes == [1, 2, 4, 8]
    assert all("5" in text for text in witness["cut"])


def _finite(d):
    """d cut to its explicit levels."""
    doc = to_json(d)
    doc["stationary"] = False
    return parse_diagram(json.dumps(doc))


def test_unknown_when_flags_block_the_verdict(ex57):
    # y1 -> v1 -> v2 -> y2, whose top is flagged: the one closed class;
    # the witness names the extreme chains on a stationary diagram and
    # the end of the presentation on a finite one
    for d, reason in ((ex57, "extreme_chains"),
                      (_finite(ex57), "presentation_end")):
        hand = TowerGraph(d, 2, ((1,), (2,), (3,), ()), (3,))
        verdict, witness = chain_transitive(hand)
        assert verdict == UNKNOWN
        assert witness == {"unresolved": 1, "checked_to": 2,
                           "reason": reason}


def test_flagfree_cut_beats_flags(ex57):
    # a flag elsewhere cannot save a certified flag-free closed cut
    hand = TowerGraph(ex57, 2, ((3,), (0,), (), (0,)), (2,))
    verdict, witness = chain_transitive(hand)
    assert verdict == FAILS
    assert witness["cut"] == ("1:root->y1#1|2:y1->y1#1",
                              "1:root->y1#1|2:y1->y1#2",
                              "1:root->y2#1|2:y2->y2#1",
                              "1:root->y2#1|2:y2->y2#2")


# -- Epsilon chains ----------------------------------------------------------

def test_epsilon_chain_across_the_odometer(odometer):
    p = extreme_path(odometer, "v", 3, MIN)
    q = extreme_path(odometer, "v", 3, MAX)
    tg = tower_graph(odometer, 3)
    chain = epsilon_chain(tg, p, q)
    assert len(chain) == 8
    assert chain[0] == p and chain[-1] == q
    for x, y in zip(chain, chain[1:]):
        assert tg.rank(y, "y") in tg[tg.rank(x, "x")]


def test_epsilon_chain_trivial_and_errors(odometer, ex57):
    tg = tower_graph(odometer, 3)
    p = extreme_path(odometer, "v", 3, MIN)
    assert epsilon_chain(tg, p, p) == [p]
    q = extreme_path(odometer, "v", 2, MAX)
    with pytest.raises(DiagramError, match="^chain target has depth 2, "
                       "graph was built at depth 3$"):
        epsilon_chain(tg, p, q)
    with pytest.raises(DiagramError, match="not a path"):
        epsilon_chain(tower_graph(ex57, 2), make_path(odometer, "v", (0, 0)),
                      make_path(ex57, "y1", (0, 0)))


def test_epsilon_chain_reports_unreachable(two_odometers):
    p = make_path(two_odometers, "a", (0, 0))
    q = make_path(two_odometers, "b", (0, 0))
    with pytest.raises(DiagramError, match="no chain from"):
        epsilon_chain(tower_graph(two_odometers, 2), p, q)


def test_chain_is_shortest(ex57):
    # BFS guarantee: no shorter chain exists between the same cylinders
    g = cylinder_graph(ex57, 2)
    tg = tower_graph(ex57, 2)
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.out[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    for v, q in enumerate(g.nodes):
        chain = epsilon_chain(tg, g.nodes[0], q)
        assert len(chain) == dist[v] + 1


# -- Saturation --------------------------------------------------------------

def test_saturation_full_on_transitive_fixtures(ex57, odometer):
    for d in (ex57, odometer):
        tg = tower_graph(d, 2)
        sets = saturation_sets(tg)
        assert set(sets) == set(range(1, d.k + 1))
        for s in sets.values():
            assert len(s) == tg.size


def test_saturation_splits_on_doubled_odometer(two_odometers):
    sets = saturation_sets(tower_graph(two_odometers, 3))
    assert {i: len(s) for i, s in sets.items()} == {1: 4, 2: 4}
    ends = {i: {p.end for p in s} for i, s in sets.items()}
    assert ends == {1: {"a"}, 2: {"b"}}


def test_saturation_on_elementary_fixture(five_vertex):
    # not chain transitive, so at least one set must be proper
    sets = saturation_sets(tower_graph(five_vertex, 2))
    g = cylinder_graph(five_vertex, 2)
    assert any(len(s) < len(g) for s in sets.values())


# -- Covering sweeps ---------------------------------------------------------

def test_cover_from_bottom_of_odometer(odometer):
    tg = tower_graph(odometer, 3)
    p = extreme_path(odometer, "v", 3, MIN)
    assert cover_steps(tg, [p]) == 7
    top = extreme_path(odometer, "v", 3, MAX)
    assert cover_steps(tg, [top], direction="backward") == 7


def test_cover_of_everything_is_zero(odometer):
    g = cylinder_graph(odometer, 3)
    tg = tower_graph(odometer, 3)
    assert cover_steps(tg, list(g.nodes)) == 0


def test_cover_input_validation(odometer, ex57):
    tg = tower_graph(odometer, 3)
    p3 = extreme_path(odometer, "v", 3, MIN)
    p2 = extreme_path(odometer, "v", 2, MIN)
    with pytest.raises(DiagramError, match="empty"):
        cover_steps(tg, [])
    with pytest.raises(DiagramError, match="^covering cylinder has depth 2, "
                       "graph was built at depth 3$"):
        cover_steps(tg, [p3, p2])
    with pytest.raises(DiagramError, match="forward or backward"):
        cover_steps(tg, [p3], direction="sideways")
    only_y1 = extreme_path(ex57, "y1", 2, MIN)
    with pytest.raises(DiagramError, match="component 2"):
        cover_steps(tower_graph(ex57, 2), [only_y1])


def test_cover_rejects_flagged_graphs(ex57):
    for d, cause in ((ex57, "extreme chains fail"),
                     (_finite(ex57), "presentation checked to level 2")):
        hand = TowerGraph(d, 2, ((1,), (2,), (3,), ()), (3,))
        mins = [extreme_path(d, v, 2, MIN) for v in ("y1", "y2")]
        with pytest.raises(DiagramError, match=r"^1 cylinders unresolved "
                           r"\(%s\); sweep counts would be unreliable$"
                           % cause):
            cover_steps(hand, mins)
        # from y2 nothing leads back to y1: its top is the flagged one
        with pytest.raises(DiagramError, match=r"^no chain from "
                           r"1:root->y2#1\|2:y2->y2#1 to 1:root->y1#1\|"
                           r"2:y1->y1#1 at resolution 2\^-2 \(1 cylinders "
                           r"unresolved, %s\)$" % cause):
            epsilon_chain(hand, mins[1], mins[0])


def test_cover_diverges_on_stalled_relation(ex57):
    # four self-loops: the sweeps never leave the y1 and y2 towers
    hand = TowerGraph(ex57, 2, ((0,), (1,), (2,), (3,)), ())
    v_floors = tuple(path_text(p) for v in ("v1", "v2")
                     for p in enumerate_paths(ex57, v, 2))
    for direction in ("forward", "backward"):
        mins = [extreme_path(ex57, v, 2, MIN) for v in ("y1", "y2")]
        res = cover_steps(hand, mins, direction)
        assert isinstance(res, Diverges)
        assert res.steps == 1
        assert res.uncovered == v_floors
        assert "uncovered=10" in repr(res)


def test_cover_meets_both_components(ex57):
    mins = [extreme_path(ex57, v, 2, MIN) for v in ("y1", "y2")]
    steps = cover_steps(tower_graph(ex57, 2), mins)
    assert isinstance(steps, int) and steps >= 1
    # oracle: breadth-first layers from the same seed set
    g = cylinder_graph(ex57, 2)
    covered = {g.nodes.index(p) for p in mins}
    frontier, k = set(covered), 0
    while len(covered) < len(g):
        frontier = {w for v in frontier for w in g.out[v]} - covered
        covered |= frontier
        k += 1
    assert steps == k


# -- Pseudo-orbits -----------------------------------------------------------

def test_pseudo_orbit_closes_through_base(odometer):
    p = extreme_path(odometer, "v", 3, MIN)
    tg = tower_graph(odometer, 3)
    orbit = pseudo_orbit(tg, p)
    assert len(orbit) == 9
    assert orbit[0] == p and orbit[-1] == p
    for x, y in zip(orbit, orbit[1:]):
        assert tg.rank(y, "y") in tg[tg.rank(x, "x")]


def test_pseudo_orbit_on_mixed_tower(ex57):
    p = make_path(ex57, "v1", (0, 1))
    orbit = pseudo_orbit(tower_graph(ex57, 2), p)
    assert orbit[0] == orbit[-1] == p
    assert len(set(orbit)) == len(orbit) - 1


def test_pseudo_orbit_requires_transitivity(two_odometers, five_vertex):
    for d in (two_odometers, five_vertex):
        p = make_path(d, d.vertices(2)[0], (0, 0))
        with pytest.raises(DiagramError, match="chain transitivity"):
            pseudo_orbit(tower_graph(d, 2), p)


def test_pseudo_orbit_needs_a_closed_chain():
    # one cylinder and a hand-built relation with no step: nothing to
    # cut, so Holds, yet no chain leaves the base and comes back
    level = {"vertices": [{"id": "y", "class": {"minimal": 1}}],
             "edges": [{"source": "root", "range": "y"}]}
    d = parse_diagram(json.dumps({"kind": "bratteli", "k": 1,
                                  "stationary": False, "levels": [level]}))
    hand = TowerGraph(d, 1, ((),), ())
    assert chain_transitive(hand)[0] == HOLDS
    with pytest.raises(DiagramError, match="^no closed chain through "
                       "1:root->y#1$"):
        pseudo_orbit(hand, make_path(d, "y", (0,)))
