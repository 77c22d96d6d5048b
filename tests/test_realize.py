"""Order synthesis from prescribed index vectors.

Core claims:
    - parse_dvectors rejects malformed prescriptions with located errors
    - euler_walk covers each arc exactly once with the right endpoints,
      and names the broken feasibility criterion otherwise
    - graphs_from_dvectors turns pairs into arcs and zero vectors into
      loops at an adjacent component
    - synthesizing over the raw two-remainder diagram reproduces the
      ordered fixture edge for edge
    - synthesized orders validate and realize their own prescription
    - synthesize_order rejects infeasible prescriptions instead of
      synthesizing garbage
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from bratteli import (
    DiagramError,
    Multigraph,
    NoWalk,
    dvectors,
    euler_walk,
    graphs_from_dvectors,
    index_elements,
    lift_edge_to_path,
    load_dvectors,
    parse_dvectors,
    parse_diagram,
    synthesize_order,
    validate_ordered,
)

from conftest import fixture_path, to_json


@pytest.fixture(scope="module")
def dv57():
    return load_dvectors(fixture_path("example-5-7.d.json"))


@pytest.fixture(scope="module")
def dv5v():
    return load_dvectors(fixture_path("five-vertex.d.json"))


# -- Prescription parsing ----------------------------------------------------

def test_parse_dvectors_shape(dv57):
    assert dv57.stationary
    assert dv57.k == 2
    assert dv57.base == 2
    assert dv57.values(2) == {"v1": (-1, 1), "v2": (1, -1)}
    assert dv57.values(9) == dv57.values(2)
    doc = dv57.to_json()
    assert doc["d"][0]["values"]["v1"] == [-1, 1]


def test_parse_dvectors_rejects_bad_documents():
    with pytest.raises(DiagramError, match='"d" array'):
        parse_dvectors({"stationary": True})
    with pytest.raises(DiagramError, match="boolean"):
        parse_dvectors({"d": []})
    with pytest.raises(DiagramError, match="not be empty"):
        parse_dvectors({"d": [], "stationary": False})
    with pytest.raises(DiagramError, match="exactly one block"):
        parse_dvectors({"d": [{"level": 2, "values": {}},
                              {"level": 3, "values": {}}],
                        "stationary": True})
    with pytest.raises(DiagramError, match="levels >= 2"):
        parse_dvectors({"d": [{"level": 1, "values": {}}],
                        "stationary": True})
    with pytest.raises(DiagramError, match="consecutive"):
        parse_dvectors({"d": [{"level": 2, "values": {}},
                              {"level": 4, "values": {}}],
                        "stationary": False})
    with pytest.raises(DiagramError, match="integer array"):
        parse_dvectors({"d": [{"level": 2, "values": {"v": [0.5, 1]}}],
                        "stationary": True})
    with pytest.raises(DiagramError, match="outside"):
        parse_dvectors({"d": [{"level": 2, "values": {"v": [2, -2]}}],
                        "stationary": True})
    with pytest.raises(DiagramError, match="pair"):
        parse_dvectors({"d": [{"level": 2, "values": {"v": [1, 1]}}],
                        "stationary": True})


def test_parse_dvectors_rejects_below_base(dv57):
    with pytest.raises(DiagramError, match="below level 2"):
        dv57.values(1)


# -- Euler walks -------------------------------------------------------------

def _replay(g, trail, start, end):
    """Walk the trail and return the visited symbol sequence."""
    assert sorted(trail) == list(range(len(g.edges)))
    at = start
    seq = [at]
    for idx in trail:
        s, t = g.edges[idx]
        assert s == at
        at = t
        seq.append(at)
    assert at == end
    return seq


def test_euler_walk_on_two_cycle():
    g = Multigraph(2, [(1, 2), (2, 1)])
    trail = euler_walk(g, 1, 1)
    _replay(g, trail, 1, 1)


def test_euler_walk_open():
    g = Multigraph(3, [(1, 2), (2, 3), (3, 1), (1, 2)])
    trail = euler_walk(g, 1, 2)
    seq = _replay(g, trail, 1, 2)
    assert seq[0] == 1 and seq[-1] == 2


def test_euler_walk_empty_graph():
    g = Multigraph(2, [])
    assert euler_walk(g, 1, 1) == []


def test_euler_walk_reports_surplus():
    g = Multigraph(2, [(1, 2)])
    res = euler_walk(g, 1, 1)
    assert isinstance(res, NoWalk)
    assert "surplus" in res.reason


def test_euler_walk_reports_disconnection():
    g = Multigraph(4, [(1, 2), (2, 1), (3, 4), (4, 3)])
    res = euler_walk(g, 1, 1)
    assert isinstance(res, NoWalk)
    assert res.reason == "disconnected"


def test_euler_walk_rejects_foreign_endpoints():
    g = Multigraph(2, [(1, 2), (2, 1)])
    with pytest.raises(DiagramError, match="symbols 1..2"):
        euler_walk(g, 0, 1)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_euler_walk_property(data):
    """Random connected balanced multigraphs always admit a closed walk
    that uses each arc once and chains endpoints."""
    k = data.draw(st.integers(2, 5), label="k")
    # a backbone cycle keeps everything connected and balanced
    edges = [(i, i % k + 1) for i in range(1, k + 1)]
    extra = data.draw(st.lists(
        st.tuples(st.integers(1, k), st.integers(1, k)),
        min_size=0, max_size=6), label="extra")
    for s, t in extra:
        edges.append((s, t))
        if s != t:
            edges.append((t, s))   # rebalance
    g = Multigraph(k, edges)
    trail = euler_walk(g, 1, 1)
    assert not isinstance(trail, NoWalk)
    _replay(g, trail, 1, 1)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_feasible_euler_walks_use_every_arc(data):
    """On any multigraph and endpoints, euler_walk either names a broken
    criterion or walks every arc once from start to end (the library no
    longer counts the arcs of its walk at run time)."""
    k = data.draw(st.integers(1, 5), label="k")
    edges = data.draw(st.lists(
        st.tuples(st.integers(1, k), st.integers(1, k)), max_size=9),
        label="edges")
    start = data.draw(st.integers(1, k), label="start")
    end = data.draw(st.integers(1, k), label="end")
    g = Multigraph(k, edges)
    trail = euler_walk(g, start, end)
    if isinstance(trail, NoWalk):
        assert trail.reason == "disconnected" or "surplus" in trail.reason
    else:
        _replay(g, trail, start, end)


# -- Graph extraction --------------------------------------------------------

def test_graphs_from_dvectors_pairs_and_levels(ex57_unordered, dv57):
    graphs = graphs_from_dvectors(ex57_unordered, dv57)
    assert [g.level for g in graphs] == [2]
    assert graphs[0].edges == (("v1", 2, 1), ("v2", 1, 2))


def test_graphs_from_dvectors_zero_vector_is_loop(ex82):
    dv = parse_dvectors({"d": [{"level": 2, "values":
                                {"1": [0], "3": [0]}}],
                         "stationary": True})
    graphs = graphs_from_dvectors(ex82, dv)
    assert graphs[0].edges == (("1", 1, 1), ("3", 1, 1))


def test_graphs_from_dvectors_errors(ex57_unordered, ex82):
    short = parse_dvectors({"d": [{"level": 2, "values": {"v1": [-1, 1]}}],
                            "stationary": True})
    with pytest.raises(DiagramError, match="V_o is"):
        graphs_from_dvectors(ex57_unordered, short)
    wrong_k = parse_dvectors({"d": [{"level": 2, "values":
                                     {"v1": [-1, 1, 0], "v2": [1, -1, 0]}}],
                              "stationary": True})
    with pytest.raises(DiagramError, match="k = 2"):
        graphs_from_dvectors(ex57_unordered, wrong_k)
    deep = parse_dvectors({"d": [{"level": 5, "values": {}}],
                           "stationary": True})
    with pytest.raises(DiagramError, match="stops at"):
        graphs_from_dvectors(ex82, deep)


def test_zero_vector_needs_component_neighbor():
    # w's only neighbors below are V_o vertices: no loop can anchor
    doc = {"kind": "bratteli", "k": 1, "stationary": True, "levels": [
        {"vertices": [{"id": "y", "class": {"minimal": 1}},
                      {"id": "u", "class": "other"},
                      {"id": "w", "class": "other"}],
         "edges": [{"source": "root", "range": "y"},
                   {"source": "root", "range": "u"},
                   {"source": "root", "range": "w"}]},
        {"vertices": [{"id": "y", "class": {"minimal": 1}},
                      {"id": "u", "class": "other"},
                      {"id": "w", "class": "other"}],
         "edges": [{"source": "y", "range": "y"}, {"source": "y", "range": "y"},
                   {"source": "y", "range": "u"}, {"source": "u", "range": "u"},
                   {"source": "w", "range": "u"},
                   {"source": "u", "range": "w"}, {"source": "u", "range": "w"}]},
    ]}
    d = parse_diagram(json.dumps(doc))
    dv = parse_dvectors({"d": [{"level": 2, "values": {"u": [0], "w": [0]}}],
                         "stationary": True})
    with pytest.raises(DiagramError, match="component neighbor below"):
        graphs_from_dvectors(d, dv)


# -- Synthesis ---------------------------------------------------------------

def test_synthesis_reproduces_ordered_fixture(ex57, ex57_unordered, dv57):
    out = synthesize_order(ex57_unordered, dv57)
    assert to_json(out) == to_json(ex57)
    for n in (1, 2):
        assert out.level(n).edges == ex57.level(n).edges


def test_synthesis_validates_and_realizes(five_vertex, dv5v):
    # scramble the fixture's edge listing, then re-synthesize
    doc = to_json(five_vertex)
    for lev in doc["levels"]:
        lev["edges"].sort(key=lambda e: (e["source"], e["range"]))
    raw = parse_diagram(json.dumps(doc))
    out = synthesize_order(raw, dv5v)
    rep = validate_ordered(out)
    assert rep.ok()
    assert dvectors(out, 2) == {v: tuple(vec)
                                for v, vec in dv5v.values(2).items()}
    assert index_elements(out, 2).elements == \
        index_elements(five_vertex, 2).elements


def test_synthesis_round_trip_replays_walks(ex57_unordered, dv57):
    out = synthesize_order(ex57_unordered, dv57)
    for w in out.others(3):
        lifted = lift_edge_to_path(out, 2, w)
        # each V_o arc of the graph below appears as often as incidence says
        assert sorted(lifted["labels"]) == sorted(
            u for u in out.fiber(3, w) if out.label(2, u) == 0)


def test_third_component_anchor_slots_into_the_walk():
    """p runs from Y1 to Y3 through u (Y1 -> Y2) and v (Y2 -> Y3), so
    its Y2 anchor goes right after u.  Every synthesized fiber keeps its
    edges; the library no longer re-checks that the anchors were placed.
    """
    ids = ["y1", "y2", "y3", "u", "v", "w", "p"]
    verts = [{"id": v, "class": {"minimal": int(v[1])} if v[0] == "y"
              else "other"} for v in ids]
    fib = {"y1": ["y1", "y1"], "y2": ["y2", "y2"], "y3": ["y3", "y3"],
           "u": ["u", "y2", "y1"], "v": ["y3", "v", "y2"],
           "w": ["w", "y1", "p", "y3", "w"],
           "p": ["v", "y3", "y2", "y1", "u"]}
    d = parse_diagram(json.dumps({
        "kind": "bratteli", "k": 3, "stationary": True, "levels": [
            {"vertices": verts,
             "edges": [{"source": "root", "range": v} for v in ids]},
            {"vertices": verts,
             "edges": [{"source": s, "range": v}
                       for v in ids for s in fib[v]]}]}))
    dv = parse_dvectors({"d": [{"level": 2, "values": {
        "u": [1, -1, 0], "v": [0, 1, -1], "w": [-1, 0, 1],
        "p": [1, 0, -1]}}], "stationary": True})
    out = synthesize_order(d, dv)
    assert out.fiber(3, "p") == ("y1", "u", "y2", "v", "y3")
    for w in ids:
        assert sorted(out.fiber(3, w)) == sorted(fib[w])
    assert validate_ordered(out).ok()


def test_synthesis_requires_full_cover(ex57_unordered):
    dv = parse_dvectors({"d": [{"level": 2, "values":
                                {"v1": [-1, 1], "v2": [1, -1]}}],
                         "stationary": False})
    doc = to_json(ex57_unordered)
    doc["levels"].append(doc["levels"][1])
    doc["stationary"] = False
    d3 = parse_diagram(json.dumps(doc))
    with pytest.raises(DiagramError, match="level 3 is missing"):
        synthesize_order(d3, dv)


def test_synthesis_rejects_cut_symbols(ex57_unordered):
    # two loops leave {Y1, Y2} unconnected: constant combinations vanish
    dv = parse_dvectors({"d": [{"level": 2, "values":
                                {"v1": [0, 0], "v2": [0, 0]}}],
                         "stationary": True})
    with pytest.raises(DiagramError, match="cut off"):
        synthesize_order(ex57_unordered, dv)


def test_synthesis_rejects_mismatched_surplus(ex57_unordered):
    # both arcs point the same way: surpluses +-2 can't come from fibers
    dv = parse_dvectors({"d": [{"level": 2, "values":
                                {"v1": [1, -1], "v2": [1, -1]}}],
                         "stationary": True})
    with pytest.raises(DiagramError, match="surplus"):
        synthesize_order(ex57_unordered, dv)


# -- Incompatible prescriptions ----------------------------------------------

def test_compatibility_flags_missing_anchor():
    # w's vector claims symbol 1 but its fiber has no component-1 edge
    doc = {"kind": "bratteli", "k": 2, "stationary": True, "levels": [
        {"vertices": [{"id": "y1", "class": {"minimal": 1}},
                      {"id": "u", "class": "other"},
                      {"id": "w", "class": "other"},
                      {"id": "y2", "class": {"minimal": 2}}],
         "edges": [{"source": "root", "range": "y1"},
                   {"source": "root", "range": "u"},
                   {"source": "root", "range": "w"},
                   {"source": "root", "range": "y2"}]},
        {"vertices": [{"id": "y1", "class": {"minimal": 1}},
                      {"id": "u", "class": "other"},
                      {"id": "w", "class": "other"},
                      {"id": "y2", "class": {"minimal": 2}}],
         "edges": [{"source": "y1", "range": "y1"}, {"source": "y1", "range": "y1"},
                   {"source": "y1", "range": "u"}, {"source": "u", "range": "u"},
                   {"source": "y2", "range": "u"},
                   {"source": "u", "range": "w"}, {"source": "u", "range": "w"},
                   {"source": "w", "range": "w"}, {"source": "y2", "range": "w"},
                   {"source": "y2", "range": "y2"}, {"source": "y2", "range": "y2"}]},
    ]}
    d = parse_diagram(json.dumps(doc))
    dv = parse_dvectors({"d": [{"level": 2, "values":
                                {"u": [1, -1], "w": [1, -1]}}],
                         "stationary": True})
    # u comes first in the listing and is realizable, so w is what fails
    with pytest.raises(DiagramError, match="'w' at level 2 has no edge "
                       "from component 1"):
        synthesize_order(d, dv)
