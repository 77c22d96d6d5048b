"""Lex order on paths, extreme chains, markers, and ordered validation.

Core claims:
    - enumerate_paths yields ascending lex order; extreme_path picks the ends
    - extreme_chains certifies one min and one max chain per component on
      the stationary fixtures and rejects pointer cycles and V_o landings
    - markers of the two-remainder fixture are (2,1) and (1,2), all levels
    - the marker level of that fixture is 2
    - validate_ordered sorts fixtures into the expected verdict matrix
    - breaking the fiber order at an interior V_o position flips
      order_compat_source to Fails without touching the extreme chains
    - component-sourced refills are checked independently (target side)
"""

import json

import pytest

from bratteli import (
    DiagramError,
    FAILS,
    HOLDS,
    MAX,
    MIN,
    UNKNOWN,
    MarkerTable,
    enumerate_paths,
    extreme_chains,
    extreme_path,
    make_path,
    marker_level,
    parse_diagram,
    pointer_map,
    transition_graph,
    validate_ordered,
)


def _parse(doc):
    return parse_diagram(json.dumps(doc))


def _reorder_fiber(d, level, vertex, order):
    """Rebuild d with the incoming edges of one vertex listed in ``order``."""
    doc = d.to_json()
    raw = doc["levels"][level - 1]["edges"]
    mine = [e for e in raw if e["range"] == vertex]
    assert sorted(e["source"] for e in mine) == sorted(order)
    pool = {s: [e for e in mine if e["source"] == s] for s in set(order)}
    swapped = [pool[s].pop() for s in order]
    out, it = [], iter(swapped)
    for e in raw:
        out.append(next(it) if e["range"] == vertex else e)
    doc["levels"][level - 1]["edges"] = out
    return _parse(doc)


# -- Paths and lex order -----------------------------------------------------

def test_make_path_reconstructs_vertices(ex57):
    p = make_path(ex57, "v1", (0, 0, 2))
    assert p.verts == ("y1", "v2", "v1")
    assert p.depth == 3
    assert p.end == "v1"


def test_make_path_rejects_bad_rank(ex57):
    with pytest.raises(DiagramError, match="outside fiber"):
        make_path(ex57, "y1", (0, 5))


@pytest.mark.parametrize("fixture,end", [("ex57", "v1"), ("ex82", "3"),
                                         ("five_vertex", "5")])
def test_enumerate_paths_is_sorted_and_complete(request, fixture, end):
    d = request.getfixturevalue(fixture)
    paths = list(enumerate_paths(d, end, 3))
    keys = [p.key() for p in paths]
    assert keys == sorted(keys)
    assert len(set(paths)) == len(paths)
    assert len(paths) == d.path_counts(3)[d.vertices(3).index(end)]


def test_extreme_paths_bound_the_enumeration(ex57):
    for v in ex57.vertices(4):
        paths = list(enumerate_paths(ex57, v, 4))
        assert extreme_path(ex57, v, 4, MIN) == paths[0]
        assert extreme_path(ex57, v, 4, MAX) == paths[-1]


@pytest.mark.parametrize("fixture,end", [("odometer", "v"), ("ex57", "v1")])
def test_enumeration_runs_past_the_recursion_limit(request, fixture, end):
    # one level per loop turn, no generator nested per level
    d = request.getfixturevalue(fixture)
    walk = enumerate_paths(d, end, 1500)
    first, second = next(walk), next(walk)
    assert first == extreme_path(d, end, 1500, MIN)
    assert second.key() > first.key()


# -- Pointer maps and extreme chains -----------------------------------------

def test_pointer_maps_of_two_remainder_fixture(ex57):
    assert pointer_map(ex57, 2, MIN) == {"y1": "y1", "v1": "y2",
                                         "v2": "y1", "y2": "y2"}
    assert pointer_map(ex57, 2, MAX) == {"y1": "y1", "v1": "y1",
                                         "v2": "y2", "y2": "y2"}


@pytest.mark.parametrize("fixture", ["ex57", "ex82", "five_vertex",
                                     "odometer", "two_odometers"])
@pytest.mark.parametrize("kind", [MIN, MAX])
def test_stationary_fixtures_have_exact_chains(request, fixture, kind):
    d = request.getfixturevalue(fixture)
    chains = extreme_chains(d, kind)
    assert chains.verdict == HOLDS
    assert chains.stable_to is None
    assert chains.certain(10 ** 6)
    seen = set()
    for i in range(1, d.k + 1):
        v = chains.vertex(i, d.depth + 5)
        assert d.label(d.depth, v) == i
        seen.add(v)
    assert len(seen) == d.k


def test_chain_trunks_of_two_remainder_fixture(ex57):
    cmin = extreme_chains(ex57, MIN)
    assert cmin.fixed == {1: "y1", 2: "y2"}
    assert cmin.trunks[1] == {1: "y1", 2: "y1"}
    assert cmin.vertex(2, 9) == "y2"


def test_chains_reject_pointer_cycle():
    # min pointers swap a and b forever: no infinite min path settles
    doc = {"kind": "bratteli", "k": 1, "stationary": True, "levels": [
        {"vertices": [{"id": "a", "class": {"minimal": 1}},
                      {"id": "b", "class": {"minimal": 1}}],
         "edges": [{"source": "root", "range": "a"},
                   {"source": "root", "range": "b"}]},
        {"vertices": [{"id": "a", "class": {"minimal": 1}},
                      {"id": "b", "class": {"minimal": 1}}],
         "edges": [{"source": "b", "range": "a"}, {"source": "a", "range": "a"},
                   {"source": "a", "range": "b"}, {"source": "a", "range": "b"}]},
    ]}
    chains = extreme_chains(_parse(doc), MIN)
    assert chains.verdict == FAILS
    assert chains.witness == {"cycle_through": ["a", "b"]}
    # the max pointers of the same diagram settle on a alone
    assert extreme_chains(_parse(doc), MAX).verdict == HOLDS


def test_chains_reject_extreme_path_in_remainder():
    doc = {"kind": "bratteli", "k": 1, "stationary": True, "levels": [
        {"vertices": [{"id": "y", "class": {"minimal": 1}},
                      {"id": "w", "class": "other"}],
         "edges": [{"source": "root", "range": "y"},
                   {"source": "root", "range": "w"}]},
        {"vertices": [{"id": "y", "class": {"minimal": 1}},
                      {"id": "w", "class": "other"}],
         "edges": [{"source": "y", "range": "y"}, {"source": "y", "range": "y"},
                   {"source": "w", "range": "w"}, {"source": "y", "range": "w"}]},
    ]}
    chains = extreme_chains(_parse(doc), MIN)
    assert chains.verdict == FAILS
    assert chains.witness == {"extreme_path_through_V_o": "w"}


def test_chains_reject_two_chains_in_one_component(two_odometers):
    # relabel both odometer columns into one component: two fixed points
    doc = two_odometers.to_json()
    for lev in doc["levels"]:
        for v in lev["vertices"]:
            v["class"] = {"minimal": 1}
    doc["k"] = 1
    chains = extreme_chains(_parse(doc), MIN)
    assert chains.verdict == FAILS
    assert chains.witness["component"] == 1
    assert len(chains.witness["two_chains"]) == 2


def test_chains_reject_a_chain_leaving_its_component():
    """The block's min pointers fix y, but the level-2 fiber of y starts
    at w, so z_{1,min} leaves component 1 below the block."""
    verts = [{"id": "y", "class": {"minimal": 1}},
             {"id": "w", "class": "other"}]

    def lvl(edges):
        return {"vertices": verts,
                "edges": [{"source": s, "range": r} for s, r in edges]}

    d = _parse({"kind": "bratteli", "k": 1, "stationary": True, "levels": [
        lvl([("root", "y"), ("root", "w")]),
        lvl([("w", "y"), ("y", "y"), ("y", "w"), ("w", "w")]),
        lvl([("y", "y"), ("w", "y"), ("y", "w"), ("w", "w")])]})
    chains = extreme_chains(d, MIN)
    assert chains.verdict == FAILS
    assert chains.witness == {"chain_leaves_component": {
        "component": 1, "level": 1, "vertex": "w"}}
    # brute force: the lex-first path into y, at any depth past the
    # block, starts at w, a remainder vertex
    for depth in (3, 4, 5):
        first = min(enumerate_paths(d, "y", depth), key=lambda p: p.key())
        assert first.verts[0] == "w" and d.label(1, "w") == 0


def test_nonstationary_chains_stay_unknown(ex57):
    doc = ex57.to_json()
    doc["levels"].append(doc["levels"][1])
    doc["stationary"] = False
    chains = extreme_chains(_parse(doc), MIN)
    assert chains.verdict == UNKNOWN
    assert chains.witness["checked_to"] == 3
    # the chase image is already a single vertex per component here
    assert chains.stable_to == 3
    assert chains.vertex(1, 2) == "y1"


# -- Markers -----------------------------------------------------------------

def test_markers_of_two_remainder_fixture(ex57):
    # a transition graph edge runs from m_minus to m_plus; levels past the
    # presentation come from the marker table's period
    for n in (2, 3, 7, 30):
        assert transition_graph(ex57, n).edges == (("v1", 2, 1),
                                                   ("v2", 1, 2))


def test_marker_level_of_two_remainder_fixture(ex57):
    L, verdict, witness = marker_level(ex57)
    assert (L, verdict) == (2, HOLDS)
    assert witness["L"] == 2


def test_marker_table_periodic_queries_are_exact(ex57):
    mt = MarkerTable(ex57)
    assert mt.period > 0
    deep = 10 ** 9
    assert mt.marker(MIN, deep, "v1") == 2
    assert mt.marker(MAX, deep, "v1") == 1
    assert mt.landing(MIN, deep, "y1") == "y1"


def test_marker_level_failure_when_chain_never_lands():
    # w's max pointer is w itself: m_plus never resolves at any level
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
    d = _parse(doc)
    L, verdict, witness = marker_level(d)
    assert verdict == FAILS
    assert L is None
    assert "unresolved_forever_at" in witness


# -- Ordered validation matrix -----------------------------------------------

def _verdicts(rep):
    return {c.property: c.verdict for c in rep.checks}


def test_ordered_fixture_validates(ex57):
    rep = validate_ordered(ex57)
    assert rep.ok()
    assert rep.verdict("extreme_paths") == HOLDS
    assert rep.verdict("marker_level") == HOLDS
    assert rep.verdict("order_compat_source") == HOLDS
    assert rep.verdict("order_compat_target") == HOLDS


def test_unordered_presentation_fails_routing(ex57_unordered):
    """Same diagram, edges listed in the raw order: the unordered checks
    pass but some consecutive refill lands in the wrong component."""
    rep = validate_ordered(ex57_unordered)
    assert rep.verdict("extreme_paths") in (HOLDS, FAILS)
    assert not rep.ok()


@pytest.mark.parametrize("fixture", ["ex82", "odometer"])
def test_single_component_fixtures_route_vacuously(request, fixture):
    # k=1 leaves nothing to route between towers
    d = request.getfixturevalue(fixture)
    rep = validate_ordered(d)
    assert rep.ok()
    assert rep.witness("order_compat_source") == {"vacuous": True}
    assert rep.witness("marker_level")["single_component"] is True


def test_three_component_fixture_routes_for_real(five_vertex):
    assert five_vertex.k == 3
    rep = validate_ordered(five_vertex)
    assert rep.ok()
    assert "single_component" not in rep.witness("marker_level")
    assert rep.witness("order_compat_source") != {"vacuous": True}


def test_disconnected_diagram_blocks_order_checks(two_odometers):
    rep = validate_ordered(two_odometers)
    assert rep.verdict("k_simple") == FAILS
    assert rep.verdict("order_compat_source") == UNKNOWN
    assert rep.witness("extreme_paths") == {"blocked_by": "k_simple"}
    assert not rep.ok()


def test_interior_swap_breaks_source_compat(ex57):
    """Swapping the two interior V_o edges of v1's fiber reorders a refill
    into the wrong component; the extreme edges stay put."""
    d = _reorder_fiber(ex57, 2, "v1", ["y2", "v2", "v1", "v1", "y1"])
    assert d.fiber(2, "v1") == ("y2", "v2", "v1", "v1", "y1")
    rep = validate_ordered(d)
    assert rep.verdict("extreme_paths") == HOLDS
    assert rep.verdict("marker_level") == HOLDS
    assert rep.verdict("order_compat_source") == FAILS
    wit = rep.witness("order_compat_source")
    assert wit["expected"] != wit["got"]


def test_target_side_checked_independently():
    """A fiber can satisfy every V_o-sourced refill and still hand a
    component-sourced edge the wrong successor."""
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
                   {"source": "y1", "range": "w"}, {"source": "y2", "range": "w"},
                   {"source": "w", "range": "w"}, {"source": "y1", "range": "w"},
                   {"source": "y2", "range": "y2"}, {"source": "y2", "range": "y2"}]},
    ]}
    d = _parse(doc)
    assert d.fiber(2, "w") == ("y1", "y2", "w", "y1")
    rep = validate_ordered(d)
    assert rep.verdict("order_compat_source") == HOLDS
    assert rep.verdict("order_compat_target") == FAILS
    wit = rep.witness("order_compat_target")
    assert (wit["expected"], wit["got"]) == (1, 2)


def _block(fibers):
    """Stationary k=2 diagram over y1, v1, v2, y2 with the given fibers."""
    ids = ["y1", "v1", "v2", "y2"]
    cls = {"y1": {"minimal": 1}, "y2": {"minimal": 2}}
    verts = [{"id": v, "class": cls.get(v, "other")} for v in ids]
    return _parse({"kind": "bratteli", "k": 2, "stationary": True, "levels": [
        {"vertices": verts,
         "edges": [{"source": "root", "range": v} for v in ids]},
        {"vertices": verts,
         "edges": [{"source": s, "range": v} for v in ids for s in fibers[v]]},
    ]})


# v1 is the maximal edge of v2's fiber, and v1's max chain lands in Y1;
# the twins differ only in v1's first edge, the one its min chain takes
_VIA = {"y1": ["y1", "y1"], "y2": ["y2", "y2"], "v2": ["y2", "v2", "v1"]}


def _refill_components(d):
    """Level-1 components the successor refills to, over the depth-5
    paths that are maximal up to the edge v1 -> v2 at level 4 and not
    maximal at level 5: brute force over the lex order."""
    from bratteli import successor
    top = extreme_path(d, "v1", 3, MAX)
    out = set()
    for v in d.vertices(5):
        for p in enumerate_paths(d, v, 5):
            if (p.verts[:3] == top.verts and p.ranks[:3] == top.ranks
                    and p.verts[3] == "v2" and p.ranks[3] == 2
                    and p.ranks[4] < len(d.fiber(5, v)) - 1):
                out.add(d.label(1, successor(d, p).verts[0]))
    return out


@pytest.mark.parametrize("first,verdict,refills", [
    ("y1", HOLDS, {1}), ("v2", FAILS, {2})], ids=["holds", "fails"])
def test_maximal_v_o_edge_routes_through_its_break(first, verdict, refills):
    """An edge from V_o at the end of its fiber has no successor of its
    own: the increment breaks further up, and the donor of that break
    must refill in the component the edge's max chain lands in (Y1)."""
    d = _block(dict(_VIA, v1=[first, "v1", "y1"]))
    assert d.label(1, extreme_path(d, "v1", 3, MAX).verts[0]) == 1
    assert _refill_components(d) == refills
    rep = validate_ordered(d)
    assert [c.verdict for c in rep.checks] == [
        HOLDS, HOLDS, HOLDS, verdict, HOLDS]
    if verdict == HOLDS:
        assert rep.witness("order_compat_source") == {"from_level": 3}
    else:
        assert json.dumps(rep.witness("order_compat_source"),
                          sort_keys=True) == (
            '{"expected": 1, "got": 2, "level": 3, "range": "v2", '
            '"rank": 2, "vertex": "v1", "via": "maximal edge"}')


def test_nonstationary_routing_is_relative(ex57):
    doc = ex57.to_json()
    doc["levels"].append(doc["levels"][1])
    doc["stationary"] = False
    rep = validate_ordered(_parse(doc))
    assert rep.verdict("extreme_paths") == UNKNOWN
    assert rep.verdict("order_compat_source") == UNKNOWN
