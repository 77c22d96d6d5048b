"""Transition graphs on component symbols and index-vector transport.

Core claims:
    - the two-remainder fixture's graph is {v1: Y2->Y1, v2: Y1->Y2} at
      every level, so its vertex index vectors are (-1,+1) and (+1,-1)
    - check_structure demands spanning connectivity always, and edge count
      plus closed-walk membership only of non-elementary diagrams
    - ordered fibers read off as marker-compatible walks (lift_edge_to_path)
    - the V_o incidence block transports index matrices level to level
"""

import pytest

from bratteli import (
    FAILS,
    HOLDS,
    MAX,
    MIN,
    DiagramError,
    MarkerTable,
    TransitionGraph,
    check_structure,
    dvector_matrix,
    dvectors,
    index_pushforward,
    lift_edge_to_path,
    other_block,
    transition_graph,
)
from conftest import make_level, to_json


def test_transition_graph_of_two_remainder_fixture(ex57):
    for n in (2, 3, 9):
        tg = transition_graph(ex57, n)
        assert tg.k == 2
        assert tg.level == n
        assert tg.edges == (("v1", 2, 1), ("v2", 1, 2))
    assert tg.out_degree(1) == 1
    assert sum(1 for (_, _, t) in tg.edges if t == 1) == 1


def test_transition_graph_needs_resolved_markers(ex57):
    with pytest.raises(DiagramError, match="marker chain"):
        transition_graph(ex57, 1)


def test_dvectors_are_source_positive(ex57):
    vecs = dvectors(ex57, 2)
    assert vecs == {"v1": (-1, 1), "v2": (1, -1)}
    assert dvector_matrix(ex57, 2) == [[-1, 1], [1, -1]]


def test_dvectors_of_five_vertex(five_vertex):
    vecs = dvectors(five_vertex, 2)
    assert len(vecs) == 2
    for vec in vecs.values():
        assert sum(vec) == 0
        assert sorted(vec) == [-1, 0, 1]


def test_graph_shared_marker_table(ex57):
    # every level reads the one table kept with the diagram, and it says
    # what a freshly built table says
    from bratteli.order import _marker_table
    mt = _marker_table(ex57)
    fresh = MarkerTable(ex57)
    for n in (2, 3, 9):
        assert transition_graph(ex57, n).edges == tuple(
            (v, fresh.marker(MIN, n, v), fresh.marker(MAX, n, v))
            for v in ex57.others(n))
    assert _marker_table(ex57) is mt


def test_check_structure_on_fixture_graph(ex57):
    tg = transition_graph(ex57, 2)
    rep = check_structure(tg, non_elementary=True)
    assert rep.verdict("connected") == HOLDS
    assert rep.verdict("edge_count") == HOLDS
    assert rep.verdict("sourced_on_closed_walks") == HOLDS


def test_check_structure_elementary_skips_extras(five_vertex):
    tg = transition_graph(five_vertex, 2)
    rep = check_structure(tg, non_elementary=False)
    assert rep.verdict("connected") == HOLDS
    assert {c.property for c in rep.checks} == {"connected"}


def test_check_structure_flags_disconnection():
    tg = TransitionGraph(3, 2, [("a", 1, 2), ("b", 2, 1)])
    rep = check_structure(tg, non_elementary=True)
    assert rep.verdict("connected") == FAILS
    assert rep.witness("connected") == {"unreached": [3]}


def test_check_structure_flags_short_edge_count():
    tg = TransitionGraph(2, 2, [("a", 1, 2), ("b", 2, 1)])
    assert check_structure(tg, True).verdict("edge_count") == HOLDS
    tg = TransitionGraph(2, 2, [("a", 1, 2)])
    rep = check_structure(tg, True)
    assert rep.verdict("edge_count") == FAILS
    assert rep.witness("edge_count") == {"edges": 1, "k": 2}


def test_check_structure_flags_stranded_source():
    # undirected-connected, enough edges, but Y1's arc sits on no cycle
    tg = TransitionGraph(2, 2, [("a", 1, 2), ("b", 2, 2)])
    rep = check_structure(tg, True)
    assert rep.verdict("connected") == HOLDS
    assert rep.verdict("sourced_on_closed_walks") == FAILS
    assert rep.witness("sourced_on_closed_walks") == {"stranded": [1]}


def test_lift_edge_replays_fiber_as_walk(ex57):
    lifted = lift_edge_to_path(ex57, 2, "v1")
    assert (lifted["source"], lifted["target"]) == (2, 1)
    assert lifted["labels"] == ["v1", "v2", "v1"]
    assert lifted["symbols"] == [2, 1, 2, 1]
    lifted = lift_edge_to_path(ex57, 2, "v2")
    assert lifted["symbols"] == [1, 2, 1, 2]


def test_lift_edge_rejects_component_vertices(ex57):
    with pytest.raises(DiagramError, match="component vertex"):
        lift_edge_to_path(ex57, 2, "y1")


def test_lift_edge_catches_broken_walk(ex57):
    """Swapping the interior V_o edges makes the label sequence chain
    incompatibly, which the replay must refuse."""
    import json
    doc = to_json(ex57)
    edges = doc["levels"][1]["edges"]
    v1_pos = [i for i, e in enumerate(edges) if e["range"] == "v1"]
    # listed fiber of v1 is (y2, v1, v2, v1, y1); swap positions 1 and 2
    edges[v1_pos[1]], edges[v1_pos[2]] = edges[v1_pos[2]], edges[v1_pos[1]]
    from bratteli import parse_diagram
    bad = parse_diagram(json.dumps(doc))
    assert bad.fiber(2, "v1") == ("y2", "v2", "v1", "v1", "y1")
    with pytest.raises(DiagramError, match="breaks at position"):
        lift_edge_to_path(bad, 2, "v1")


def _block(fibers):
    """Stationary k=2 diagram over y1, v1, v2, y2 with the given fibers."""
    import json
    from bratteli import parse_diagram
    ids = ["y1", "v1", "v2", "y2"]
    cls = {"y1": {"minimal": 1}, "y2": {"minimal": 2}}
    verts = [{"id": v, "class": cls.get(v, "other")} for v in ids]
    block = [{"source": s, "range": v} for v in ids for s in fibers[v]]
    return parse_diagram(json.dumps({
        "kind": "bratteli", "k": 2, "stationary": True, "levels": [
            {"vertices": verts,
             "edges": [{"source": "root", "range": v} for v in ids]},
            {"vertices": verts, "edges": block}]}))


def test_lift_edge_needs_resolved_markers(ex57):
    # level-1 V_o vertices land on themselves, outside every component
    with pytest.raises(DiagramError,
                       match="markers of 'v1' unresolved at level 1"):
        lift_edge_to_path(ex57, 0, "v1")
    # v1 resolves at level 2, the labels of its fiber at level 1 do not;
    # the first label in fiber order is named
    with pytest.raises(DiagramError,
                       match="markers of 'v1' unresolved at level 1"):
        lift_edge_to_path(ex57, 1, "v1")


def test_lift_edge_catches_wrong_end_marker():
    # v2's fiber holds no V_o label, so its walk stays at its min-marker
    # Y1 while its max-marker is Y2
    d = _block({"y1": ["y1", "y1"], "y2": ["y2", "y2"],
                "v1": ["v2", "v1", "v2"], "v2": ["y1", "y2"]})
    assert (transition_graph(d, 3).edges[1]) == ("v2", 1, 2)
    with pytest.raises(DiagramError,
                       match="walk for 'v2' ends at Y1, its own marker is Y2"):
        lift_edge_to_path(d, 3, "v2")


def test_lift_edge_catches_unvisited_component():
    # v1 runs Y2 -> Y2 through its one label v2, yet has an edge from y1
    d = _block({"y1": ["y1", "y1"], "y2": ["y2", "y2"],
                "v1": ["v2", "y1", "y2"], "v2": ["y2", "v1"]})
    lifted = dict(zip(("lo", "hi"), transition_graph(d, 3).edges[0][1:]))
    assert lifted == {"lo": 2, "hi": 2}
    with pytest.raises(DiagramError, match="fiber of 'v1' has component-1 "
                       "edges but its walk never visits Y1"):
        lift_edge_to_path(d, 3, "v1")


def test_lift_edge_catches_missing_fiber_edge():
    # the label v2 runs Y2 -> Y1 but its own fiber has no edge from y1
    d = _block({"y1": ["y1", "y1"], "y2": ["y2", "y2"],
                "v1": ["v2", "y1"], "v2": ["y2", "v1"]})
    assert d.fiber(2, "v2") == ("y2", "v1")
    with pytest.raises(DiagramError,
                       match="label 'v2' lacks a fiber edge from component 1"):
        lift_edge_to_path(d, 3, "v1")


def test_lift_edge_catches_multiplicity_mismatch(ex57):
    """The incidence skips root-sourced edges, so a V_o vertex named
    ``root`` is the one way a label count can disagree with it.  The
    parser refuses that id, so this diagram is built directly."""
    from bratteli import Diagram
    name = {"v1": "root"}
    levels = []
    for n in (1, 2):
        lev = ex57.level(n)
        ids = [name.get(v, v) for v in lev.ids]
        labels = {name.get(v, v): lab for v, lab in lev.labels.items()}
        edges = [(s if n == 1 else name.get(s, s), name.get(r, r))
                 for s, r in lev.edges]
        levels.append(make_level(ids, labels, edges))
    d = Diagram(levels, 2, True)
    assert d.fiber(2, "v2") == ("y1", "v2", "root", "v2", "y2")
    assert d.incidence(1)[2] == (1, 0, 2, 1)
    with pytest.raises(DiagramError, match="label 'root' appears 1 times in "
                       "the fiber of 'v2', incidence says 0"):
        lift_edge_to_path(d, 2, "v2")


def test_other_block_restricts_incidence(ex57, ex82):
    assert other_block(ex57, 2) == [[2, 1], [1, 2]]
    assert other_block(ex82, 2) == [[2, 0], [0, 3]]


def test_index_pushforward_on_fixtures(ex57, five_vertex):
    for d in (ex57, five_vertex):
        rep = index_pushforward(d)
        assert rep.verdict("index_pushforward") == HOLDS
        assert rep.witness("index_pushforward")["levels"]


def test_index_pushforward_identity_on_fixture(ex57):
    # G * D_n = D_{n+1} with D constant and G = [[2,1],[1,2]]: check by hand
    g = other_block(ex57, 2)
    dn = dvector_matrix(ex57, 2)
    pushed = [[sum(g[r][c] * dn[c][j] for c in range(2)) for j in range(2)]
              for r in range(2)]
    assert pushed == dvector_matrix(ex57, 3)


def test_index_pushforward_blocked_without_markers():
    import json
    from bratteli import parse_diagram
    doc = {"kind": "bratteli", "k": 2, "stationary": True, "levels": [
        {"vertices": [{"id": "y1", "class": {"minimal": 1}},
                      {"id": "w", "class": "other"},
                      {"id": "y2", "class": {"minimal": 2}}],
         "edges": [{"source": "root", "range": "y1"},
                   {"source": "root", "range": "w"},
                   {"source": "root", "range": "y2"}]},
        {"vertices": [{"id": "y1", "class": {"minimal": 1}},
                      {"id": "w", "class": "other"},
                      {"id": "y2", "class": {"minimal": 2}}],
         "edges": [{"source": "y1", "range": "y1"}, {"source": "y1", "range": "y1"},
                   {"source": "y1", "range": "w"}, {"source": "w", "range": "w"},
                   {"source": "w", "range": "y2"}, {"source": "y2", "range": "y2"},
                   {"source": "y2", "range": "y2"}]},
    ]}
    rep = index_pushforward(parse_diagram(json.dumps(doc)))
    assert rep.verdict("index_pushforward") == FAILS
    assert "marker_level" in rep.witness("index_pushforward")


def test_graph_serialization(ex57):
    tg = transition_graph(ex57, 2)
    doc = tg.to_json()
    assert doc["k"] == 2
    assert doc["edges"][0] == {"label": "v1", "source": 2, "target": 1}
    dot = tg.to_dot()
    assert dot.startswith("digraph L2 {")
    assert 'Y2 -> Y1 [label="v1"];' in dot
    assert dot.endswith("}\n")
