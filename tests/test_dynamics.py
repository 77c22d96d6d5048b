"""Chain dynamics at fixed cylinder resolution.

Core claims:
    - path_text renders 1-based ranks
    - cylinder graphs give every non-maximal window exactly one out-edge
      and never invent edges for unresolved windows
    - the three-tower fixtures are chain transitive at small depths; the
      doubled odometer fails with the expected island as cut witness
    - chain failure is monotone under refinement on the elementary fixture
    - epsilon chains are shortest and consist of consecutive graph edges
    - saturation sets agree with chain transitivity (full iff Holds)
    - cover_steps sweeps the odometer in 2^N - 1 steps from one end and
      reports Diverges only on stalled hand-built relations
    - pseudo-orbits are closed chains through the base cylinder
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
    chain_transitive,
    cover_steps,
    cylinder_graph,
    epsilon_chain,
    extreme_path,
    make_path,
    parse_diagram,
    path_text,
    pseudo_orbit,
    saturation_sets,
)


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
    assert sorted(g.index[p] for p in g.nodes) == list(range(14))
    # towers appear in vertex listing order, floors bottom up
    ends = [p.end for p in g.nodes]
    assert ends == sorted(ends, key=list(ex57.vertices(2)).index)


def test_cylinder_graph_node_counts(ex57):
    assert [len(cylinder_graph(ex57, n)) for n in (1, 2, 3)] == [4, 14, 46]


def test_nonmaximal_windows_step_deterministically(ex57):
    from bratteli import successor, Path
    g = cylinder_graph(ex57, 2)
    for i, p in enumerate(g.nodes):
        nxt = successor(ex57, p)
        if isinstance(nxt, Path):
            assert g.out[i] == (g.index[nxt],)
        else:
            assert len(g.out[i]) >= 1


def test_cylinder_graph_rejects_zero_depth(ex57):
    with pytest.raises(DiagramError, match="depth at least 1"):
        cylinder_graph(ex57, 0)


def test_reverse_transposes(odometer):
    g = cylinder_graph(odometer, 3)
    rev = g.reverse()
    for v, outs in enumerate(g.out):
        for w in outs:
            assert v in rev[w]


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
    verdict, witness = chain_transitive(d, depth)
    assert verdict == HOLDS
    assert witness["resolution"] == depth
    assert witness["nodes"] == len(cylinder_graph(d, depth))


def test_doubled_odometer_fails_with_island_cut(two_odometers):
    verdict, witness = chain_transitive(two_odometers, 3)
    assert verdict == FAILS
    assert witness["cut_size"] == 4
    assert all(text.startswith("1:root->a#1") for text in witness["cut"])


def test_elementary_fixture_failure_is_monotone(five_vertex):
    """Once a closed cut exists at depth N it persists at every deeper
    resolution; the island over the terminal vertex doubles each level."""
    sizes = []
    for depth in (1, 2, 3, 4):
        verdict, witness = chain_transitive(five_vertex, depth)
        assert verdict == FAILS
        sizes.append(witness["cut_size"])
    assert sizes == [1, 2, 4, 8]
    assert all("5" in text for text in witness["cut"])


def test_unknown_when_flags_block_the_verdict(odometer):
    g0 = cylinder_graph(odometer, 1)
    hand = CylinderGraph(1, g0.nodes, ((), (0,)), (0,))
    verdict, witness = chain_transitive(odometer, 1, graph=hand)
    assert verdict == UNKNOWN
    assert witness == {"unresolved": 1, "checked_to": 2}


def test_flagfree_cut_beats_flags(odometer):
    # a flag elsewhere cannot save a certified flag-free closed cut
    g0 = cylinder_graph(odometer, 1)
    hand = CylinderGraph(1, g0.nodes, ((0,), ()), (1,))
    verdict, witness = chain_transitive(odometer, 1, graph=hand)
    assert verdict == FAILS
    assert witness["cut"] == ("1:root->v#1",)


# -- Epsilon chains ----------------------------------------------------------

def test_epsilon_chain_across_the_odometer(odometer):
    p = extreme_path(odometer, "v", 3, MIN)
    q = extreme_path(odometer, "v", 3, MAX)
    chain = epsilon_chain(odometer, p, q)
    assert len(chain) == 8
    assert chain[0] == p and chain[-1] == q
    g = cylinder_graph(odometer, 3)
    for x, y in zip(chain, chain[1:]):
        assert g.index[y] in g.out[g.index[x]]


def test_epsilon_chain_trivial_and_errors(odometer, ex57):
    p = extreme_path(odometer, "v", 3, MIN)
    assert epsilon_chain(odometer, p, p) == [p]
    q = extreme_path(odometer, "v", 2, MAX)
    with pytest.raises(DiagramError, match="share a depth"):
        epsilon_chain(odometer, p, q)
    with pytest.raises(DiagramError, match="not a path"):
        epsilon_chain(ex57, make_path(odometer, "v", (0, 0)),
                      make_path(ex57, "y1", (0, 0)))


def test_epsilon_chain_reports_unreachable(two_odometers):
    p = make_path(two_odometers, "a", (0, 0))
    q = make_path(two_odometers, "b", (0, 0))
    with pytest.raises(DiagramError, match="no chain from"):
        epsilon_chain(two_odometers, p, q)


def test_chain_is_shortest(ex57):
    # BFS guarantee: no shorter chain exists between the same cylinders
    g = cylinder_graph(ex57, 2)
    p = g.nodes[0]
    dist = {g.index[p]: 0}
    frontier = [g.index[p]]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.out[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    for q in g.nodes:
        chain = epsilon_chain(ex57, p, q, graph=g)
        assert len(chain) == dist[g.index[q]] + 1


# -- Saturation --------------------------------------------------------------

def test_saturation_full_on_transitive_fixtures(ex57, odometer):
    for d in (ex57, odometer):
        g = cylinder_graph(d, 2)
        sets = saturation_sets(d, 2, graph=g)
        assert set(sets) == set(range(1, d.k + 1))
        for s in sets.values():
            assert len(s) == len(g)


def test_saturation_splits_on_doubled_odometer(two_odometers):
    sets = saturation_sets(two_odometers, 3)
    assert {i: len(s) for i, s in sets.items()} == {1: 4, 2: 4}
    ends = {i: {p.end for p in s} for i, s in sets.items()}
    assert ends == {1: {"a"}, 2: {"b"}}


def test_saturation_on_elementary_fixture(five_vertex):
    # not chain transitive, so at least one set must be proper
    sets = saturation_sets(five_vertex, 2)
    g = cylinder_graph(five_vertex, 2)
    assert any(len(s) < len(g) for s in sets.values())


# -- Covering sweeps ---------------------------------------------------------

def test_cover_from_bottom_of_odometer(odometer):
    p = extreme_path(odometer, "v", 3, MIN)
    assert cover_steps(odometer, [p]) == 7
    top = extreme_path(odometer, "v", 3, MAX)
    assert cover_steps(odometer, [top], direction="backward") == 7


def test_cover_of_everything_is_zero(odometer):
    g = cylinder_graph(odometer, 3)
    assert cover_steps(odometer, list(g.nodes), graph=g) == 0


def test_cover_input_validation(odometer, ex57):
    p3 = extreme_path(odometer, "v", 3, MIN)
    p2 = extreme_path(odometer, "v", 2, MIN)
    with pytest.raises(DiagramError, match="empty"):
        cover_steps(odometer, [])
    with pytest.raises(DiagramError, match="mixes depths"):
        cover_steps(odometer, [p3, p2])
    with pytest.raises(DiagramError, match="forward or backward"):
        cover_steps(odometer, [p3], direction="sideways")
    only_y1 = extreme_path(ex57, "y1", 2, MIN)
    with pytest.raises(DiagramError, match="component 2"):
        cover_steps(ex57, [only_y1])


def test_cover_rejects_flagged_graphs(odometer):
    g0 = cylinder_graph(odometer, 1)
    hand = CylinderGraph(1, g0.nodes, ((), (0,)), (0,))
    with pytest.raises(DiagramError, match=r"^1 cylinders unresolved "
                       r"\(presentation checked to level 2\); sweep "
                       "counts would be unreliable$"):
        cover_steps(odometer, [g0.nodes[0]], graph=hand)
    with pytest.raises(DiagramError, match=r"at resolution 2\^-1 \(1 "
                       r"cylinders unresolved, presentation checked to "
                       r"level 2\)$"):
        epsilon_chain(odometer, g0.nodes[0], g0.nodes[1], graph=hand)


def test_cover_diverges_on_stalled_relation(odometer):
    # two self-loops: the sweep never leaves the starting island
    g0 = cylinder_graph(odometer, 1)
    hand = CylinderGraph(1, g0.nodes, ((0,), (1,)), ())
    res = cover_steps(odometer, [g0.nodes[0]], graph=hand)
    assert isinstance(res, Diverges)
    assert res.steps == 0
    assert res.uncovered == ("1:root->v#2",)
    assert "uncovered=1" in repr(res)


def test_cover_meets_both_components(ex57):
    mins = [extreme_path(ex57, v, 2, MIN) for v in ("y1", "y2")]
    steps = cover_steps(ex57, mins)
    assert isinstance(steps, int) and steps >= 1
    # oracle: breadth-first layers from the same seed set
    g = cylinder_graph(ex57, 2)
    covered = {g.index[p] for p in mins}
    frontier, k = set(covered), 0
    while len(covered) < len(g):
        frontier = {w for v in frontier for w in g.out[v]} - covered
        covered |= frontier
        k += 1
    assert steps == k


# -- Pseudo-orbits -----------------------------------------------------------

def test_pseudo_orbit_closes_through_base(odometer):
    p = extreme_path(odometer, "v", 3, MIN)
    orbit = pseudo_orbit(odometer, p)
    assert len(orbit) == 9
    assert orbit[0] == p and orbit[-1] == p
    g = cylinder_graph(odometer, 3)
    for x, y in zip(orbit, orbit[1:]):
        assert g.index[y] in g.out[g.index[x]]


def test_pseudo_orbit_on_mixed_tower(ex57):
    p = make_path(ex57, "v1", (0, 1))
    orbit = pseudo_orbit(ex57, p)
    assert orbit[0] == orbit[-1] == p
    assert len(set(orbit)) == len(orbit) - 1


def test_pseudo_orbit_requires_transitivity(two_odometers, five_vertex):
    for d in (two_odometers, five_vertex):
        p = make_path(d, d.vertices(2)[0], (0, 0))
        with pytest.raises(DiagramError, match="chain transitivity"):
            pseudo_orbit(d, p)
