"""Parsing, incidence algebra, telescoping, and unordered validation.

Core claims:
    - parse_diagram rejects structural defects with located errors
    - stationary presentations extend past the explicit depth
    - incidence matrices and path_counts agree with brute-force enumeration
    - telescope composes incidences and keeps lex order on composite fibers
    - the V_o ideal of the diag(2,3) fixture is exactly diag(2,3)
    - validate_unordered sorts the fixtures into the right verdict matrix
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_path
from bratteli import (
    DiagramError,
    FAILS,
    HOLDS,
    UNKNOWN,
    Diagram,
    enumerate_paths,
    other_block,
    parse_diagram,
    parse_dvectors,
    telescope,
    validate_unordered,
)


# -- Builders ----------------------------------------------------------------

def _doc(levels, k=1, stationary=False):
    return {"kind": "bratteli", "k": k, "stationary": stationary,
            "levels": levels}


def _lvl(vertices, edges):
    return {"vertices": vertices, "edges": edges}


def _v(vid, cls="other"):
    return {"id": vid, "class": cls}


def _e(s, r):
    return {"source": s, "range": r}


def _parse(doc):
    return parse_diagram(json.dumps(doc))


_SINGLE = _lvl([_v("a", {"minimal": 1})], [_e("root", "a")])


# -- Parse errors ------------------------------------------------------------

def test_parse_rejects_malformed_json():
    with pytest.raises(DiagramError, match="invalid JSON"):
        parse_diagram("{not json")


def test_parse_rejects_wrong_kind():
    with pytest.raises(DiagramError, match='"kind"'):
        _parse({"kind": "graph", "k": 1, "stationary": False, "levels": []})


@pytest.mark.parametrize("k", [0, -2, "2", None, 1.5])
def test_parse_rejects_bad_k(k):
    with pytest.raises(DiagramError, match='"k" must be a positive integer'):
        _parse(_doc([_SINGLE], k=k))


def test_parse_rejects_nonboolean_stationary():
    with pytest.raises(DiagramError, match="boolean"):
        _parse(_doc([_SINGLE], stationary="yes"))


def test_parse_rejects_empty_levels():
    with pytest.raises(DiagramError, match="non-empty array"):
        _parse(_doc([]))


def test_parse_rejects_integer_vertex_id():
    bad = _lvl([{"id": 7, "class": "other"}], [_e("root", "7")])
    with pytest.raises(DiagramError, match='string "id"'):
        _parse(_doc([bad]))


def test_parse_rejects_reserved_root_id():
    bad = _lvl([_v("root")], [_e("root", "root")])
    with pytest.raises(DiagramError, match="reserved"):
        _parse(_doc([bad]))


def test_parse_rejects_duplicate_ids():
    bad = _lvl([_v("a"), _v("a")], [_e("root", "a")])
    with pytest.raises(DiagramError, match="duplicate vertex id"):
        _parse(_doc([bad]))


def test_parse_rejects_component_label_out_of_range():
    bad = _lvl([_v("a", {"minimal": 3})], [_e("root", "a")])
    with pytest.raises(DiagramError, match="outside 1..1"):
        _parse(_doc([bad]))


def test_parse_rejects_unknown_class_shape():
    bad = _lvl([_v("a", "component")], [_e("root", "a")])
    with pytest.raises(DiagramError, match="vertex class"):
        _parse(_doc([bad]))


def test_parse_rejects_nonroot_source_at_level_one():
    bad = _lvl([_v("a", {"minimal": 1})], [_e("a", "a")])
    with pytest.raises(DiagramError, match='source "root"'):
        _parse(_doc([bad]))


def test_parse_rejects_dangling_source():
    lv2 = _lvl([_v("a", {"minimal": 1})], [_e("ghost", "a")])
    with pytest.raises(DiagramError, match="dangling source id 'ghost'"):
        _parse(_doc([_SINGLE, lv2]))


def test_parse_rejects_dangling_range():
    bad = _lvl([_v("a", {"minimal": 1})], [_e("root", "b")])
    with pytest.raises(DiagramError, match="dangling range id 'b'"):
        _parse(_doc([bad]))


def test_parse_rejects_vertex_without_incoming_edge():
    # r must be surjective at every level
    bad = _lvl([_v("a", {"minimal": 1}), _v("b")], [_e("root", "a")])
    with pytest.raises(DiagramError, match="no incoming edge"):
        _parse(_doc([bad]))


def test_parse_rejects_vertex_without_outgoing_edge():
    lv1 = _lvl([_v("a", {"minimal": 1}), _v("b")],
               [_e("root", "a"), _e("root", "b")])
    lv2 = _lvl([_v("a", {"minimal": 1}), _v("b")],
               [_e("a", "a"), _e("a", "b")])
    with pytest.raises(DiagramError, match="'b' at level 1 has no outgoing"):
        _parse(_doc([lv1, lv2]))


def test_parse_rejects_stationary_with_one_level():
    with pytest.raises(DiagramError, match="two explicit levels"):
        _parse(_doc([_SINGLE], stationary=True))


def test_parse_rejects_stationary_block_mismatch():
    lv1 = _lvl([_v("a", {"minimal": 1})], [_e("root", "a")])
    lv2 = _lvl([_v("b", {"minimal": 1})], [_e("a", "b")])
    with pytest.raises(DiagramError, match="non-square stationary block"):
        _parse(_doc([lv1, lv2], stationary=True))


def test_stationary_needs_matching_ids_not_edges():
    # only ids and labels must repeat; the tail reuses the LAST edge block
    lv1 = _lvl([_v("a", {"minimal": 1}), _v("b")],
               [_e("root", "a"), _e("root", "b")])
    lv2 = _lvl([_v("a", {"minimal": 1}), _v("b")],
               [_e("a", "a"), _e("b", "a"), _e("a", "b"), _e("b", "b")])
    lv3 = _lvl([_v("a", {"minimal": 1}), _v("b")],
               [_e("a", "a"), _e("a", "a"), _e("b", "b"), _e("a", "b")])
    d = _parse(_doc([lv1, lv2, lv3], stationary=True))
    assert d.level(9).edges == d.level(3).edges
    assert d.incidence(5) == ((2, 0), (1, 1))


def test_parse_error_carries_location():
    bad = _lvl([_v("a", {"minimal": 1})], [_e("root", "b")])
    with pytest.raises(DiagramError) as exc:
        _parse(_doc([bad]))
    assert "levels[0].edges[0]" in str(exc.value)


_WORDS = ["kind", "bratteli", "k", "stationary", "levels", "vertices",
          "edges", "id", "class", "minimal", "other", "source", "range",
          "root", "d", "level", "values", "v1", "v2", "y1"]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(_WORDS) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=3), inner,
                      max_size=4),
    max_leaves=12)


def _graft(data, doc, value):
    """doc with one drawn subtree replaced by value."""
    if not isinstance(doc, (dict, list)) or not doc or data.draw(
            st.integers(0, 4)) == 4:
        return value
    keys = sorted(doc) if isinstance(doc, dict) else range(len(doc))
    key = data.draw(st.sampled_from(keys))
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[key] = _graft(data, doc[key], value)
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_arbitrary_json_raises_only_diagram_error(ex57, data):
    # arbitrary values, and valid documents with one subtree replaced
    with open(fixture_path("example-5-7.d.json")) as fh:
        dv_doc = json.load(fh)
    bases = {"diagram": ex57.to_json(), "dvectors": dv_doc}
    kind = data.draw(st.sampled_from(sorted(bases)))
    value = data.draw(_JSON)
    doc = value if data.draw(st.integers(0, 3)) == 3 else _graft(
        data, bases[kind], value)
    try:
        if kind == "diagram":
            parse_diagram(json.dumps(doc))
        else:
            parse_dvectors(doc)
    except DiagramError:
        pass


# -- Stationary extension ----------------------------------------------------

def test_stationary_levels_repeat_past_depth(ex57):
    assert ex57.depth == 2
    assert ex57.has_level(40)
    for n in (3, 5, 17):
        assert ex57.level(n).edges == ex57.level(2).edges
        assert ex57.incidence(n) == ex57.incidence(2)


def test_non_stationary_depth_is_hard(two_odometers):
    # two-odometers is presented stationary; reparse it as a finite diagram
    doc = two_odometers.to_json()
    doc["stationary"] = False
    d = _parse(doc)
    assert d.has_level(d.depth)
    assert not d.has_level(d.depth + 1)
    with pytest.raises(DiagramError, match="beyond"):
        d.level(d.depth + 1)


def test_vertex_accessors(ex57):
    assert ex57.vertices(1) == ("y1", "v1", "v2", "y2")
    assert ex57.label(2, "y1") == 1
    assert ex57.label(2, "v1") == 0
    assert ex57.component(2, 2) == ("y2",)
    assert ex57.others(2) == ("v1", "v2")
    assert ex57.fiber(2, "y1") == ("y1", "y1")
    assert ex57.root_vector() == [1, 1, 1, 1]


def test_incidence_is_target_by_source(ex57):
    # rows in level-(n+1) listing order, columns in level-n order
    assert ex57.incidence(1) == ((2, 0, 0, 0),
                                 (1, 2, 1, 1),
                                 (1, 1, 2, 1),
                                 (0, 0, 0, 2))
    # built once, as tuples no caller can change; the stationary tail
    # repeats one level, so every transition past it is the same entry
    assert ex57.incidence(1) is ex57.incidence(1)
    assert ex57.incidence(9) is ex57.incidence(ex57.depth)


def test_incidence_of_eight_two(ex82):
    assert ex82.incidence(1) == ((2, 2, 0), (0, 2, 0), (0, 2, 3))


# -- Path counts vs brute force ----------------------------------------------

@pytest.mark.parametrize("fixture", ["ex57", "ex82", "five_vertex",
                                     "odometer", "two_odometers"])
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_path_counts_match_enumeration(request, fixture, depth):
    d = request.getfixturevalue(fixture)
    counts = d.path_counts(depth)
    for i, v in enumerate(d.vertices(depth)):
        assert counts[i] == sum(1 for _ in enumerate_paths(d, v, depth))


def test_path_counts_at_level_one_is_root_vector(ex57):
    assert ex57.path_counts(1) == ex57.root_vector()


# -- Telescoping -------------------------------------------------------------

def test_telescope_requires_root_anchor(ex57):
    with pytest.raises(DiagramError, match="start at 0"):
        telescope(ex57, [1, 3])
    with pytest.raises(DiagramError, match="strictly increase"):
        telescope(ex57, [0, 2, 2])
    with pytest.raises(DiagramError, match="at least one retained"):
        telescope(ex57, [0])


def test_telescope_beyond_presentation(two_odometers):
    doc = two_odometers.to_json()
    doc["stationary"] = False
    d = _parse(doc)
    with pytest.raises(DiagramError, match="beyond presentation"):
        telescope(d, [0, d.depth + 1])


@pytest.mark.parametrize("fixture", ["ex57", "ex82", "five_vertex",
                                     "odometer", "two_odometers"])
def test_telescope_multiplies_incidences(request, fixture):
    d = request.getfixturevalue(fixture)
    t = telescope(d, [0, 2, 4])
    f2, f3 = d.incidence(2), d.incidence(3)
    prod = tuple(tuple(sum(f3[i][m] * f2[m][j] for m in range(len(f2)))
                       for j in range(len(f2[0]))) for i in range(len(f3)))
    assert t.incidence(1) == prod
    assert t.path_counts(2) == d.path_counts(4)


def test_telescope_keeps_stationary_on_even_gaps(ex57):
    t = telescope(ex57, [0, 2, 4, 6])
    assert t.stationary
    u = telescope(ex57, [0, 1, 4])
    assert not u.stationary


def test_telescope_composite_fibers_sorted(ex57):
    """Composite edges compare by deepest differing edge, so the induced
    fiber order must equal the lex order on two-step paths."""
    t = telescope(ex57, [0, 1, 3])
    for v in t.vertices(2):
        two_step = list(enumerate_paths(ex57, v, 3))
        composite = t.fiber(2, v)
        assert len(composite) == len(two_step)
        assert composite == tuple(p.verts[0] for p in two_step)


def _recursive_sources(d, a, b, v):
    # the composite fiber as the recursion over skipped levels lists it
    if b == a + 1:
        return list(d.fiber(b, v))
    return [s for u in d.fiber(b, v)
            for s in _recursive_sources(d, a, b - 1, u)]


@pytest.mark.parametrize("fixture", ["ex57", "ex57_unordered", "ex82",
                                     "five_vertex", "odometer",
                                     "two_odometers"])
def test_telescope_fibers_match_recursive_expansion(request, fixture):
    d = request.getfixturevalue(fixture)
    for levels in ([0, 1, 3], [0, 2, 5], [0, 3, 4, 6], [0, 1, 2, 3, 4],
                   [0, 4, 7]):
        t = telescope(d, levels)
        for j, (a, b) in enumerate(zip(levels, levels[1:]), start=1):
            for v in t.vertices(j):
                assert list(t.fiber(j, v)) == _recursive_sources(d, a, b, v)


def test_telescope_identity_is_noop(ex82):
    t = telescope(ex82, [0, 1, 2])
    assert t.incidence(1) == ex82.incidence(1)
    assert t.incidence(2) == ex82.incidence(2)
    assert t.stationary == ex82.stationary


# -- The V_o ideal -----------------------------------------------------------

def test_ideal_of_eight_two_is_diag_2_3(ex82):
    assert ex82.others(1) == ("1", "3")
    assert other_block(ex82, 1) == [[2, 0], [0, 3]]


def test_ideal_of_five_seven(ex57):
    assert other_block(ex57, 1) == [[2, 1], [1, 2]]


def test_ideal_trivial_without_others(odometer):
    for n in (1, 2, 5):
        assert odometer.others(n) == ()
        assert other_block(odometer, n) == []


# -- Unordered validation matrix ---------------------------------------------

def test_five_seven_validates(ex57):
    rep = validate_unordered(ex57)
    assert rep.verdict("k_simple") == HOLDS
    assert rep.verdict("strongly_k_simple") == HOLDS
    assert rep.verdict("non_elementary") == HOLDS
    assert rep.ok()


def test_eight_two_validates(ex82):
    rep = validate_unordered(ex82)
    assert rep.verdict("k_simple") == HOLDS
    assert rep.verdict("non_elementary") == HOLDS


def test_odometer_validates(odometer):
    rep = validate_unordered(odometer)
    assert rep.overall() == HOLDS


def test_five_vertex_is_elementary(five_vertex):
    """The identity V_o block keeps a multiplicity-1 entry alive forever and
    never fully connects, so both deep conditions fail exactly."""
    rep = validate_unordered(five_vertex)
    assert rep.verdict("k_simple") == HOLDS
    assert rep.verdict("strongly_k_simple") == FAILS
    assert rep.verdict("non_elementary") == FAILS
    assert not rep.ok()


def test_two_odometers_not_k_simple(two_odometers):
    # k=2 with an empty V_o decomposes into two disjoint systems
    rep = validate_unordered(two_odometers)
    assert rep.verdict("k_simple") == FAILS
    assert rep.witness("k_simple")["empty"] == "V_o"


def test_component_closure_violation_detected():
    lv1 = _lvl([_v("y", {"minimal": 1}), _v("w")],
               [_e("root", "y"), _e("root", "w")])
    lv2 = _lvl([_v("y", {"minimal": 1}), _v("w")],
               [_e("y", "y"), _e("w", "y"),
                _e("y", "w"), _e("w", "w"), _e("w", "w")])
    d = _parse(_doc([lv1, lv2], stationary=True))
    rep = validate_unordered(d)
    assert rep.verdict("k_simple") == FAILS
    assert rep.witness("k_simple")["edge"] == ["w", "y"]


def test_budget_exhaustion_reports_unknown():
    """A finite non-stationary presentation cannot certify the deep
    conditions, so they degrade to Unknown instead of guessing."""
    lv1 = _lvl([_v("y", {"minimal": 1}), _v("w")],
               [_e("root", "y"), _e("root", "w")])
    block = _lvl([_v("y", {"minimal": 1}), _v("w")],
                 [_e("y", "y"), _e("y", "y"),
                  _e("y", "w"), _e("w", "w")])
    d = _parse(_doc([lv1, block, block], stationary=False))
    rep = validate_unordered(d)
    assert rep.verdict("k_simple") == HOLDS
    assert rep.verdict("non_elementary") == UNKNOWN
    # the same block declared stationary is decided exactly instead
    s = _parse(_doc([lv1, block, block], stationary=True))
    assert validate_unordered(s).verdict("non_elementary") == FAILS


def _identity_then_full(a_long, total):
    """k=1 over a, b: each keeps to itself up to level ``a_long``, then
    every level joins both; not stationary, ``total`` levels."""
    cls = {"minimal": 1}
    verts = [_v("a", cls), _v("b", cls)]
    ident = _lvl(verts, [_e("a", "a"), _e("b", "b")])
    full = _lvl(verts, [_e("a", "a"), _e("b", "a"), _e("a", "b"),
                        _e("b", "b")])
    first = _lvl(verts, [_e("root", "a"), _e("root", "b")])
    return [first] + [ident] * (a_long - 1) + [full] * (total - a_long)


def test_connectivity_search_stops_at_the_budget_floor():
    """Below 64 levels the budget is raised to 64: a component that joins
    up only at level 70 leaves the starts 1-5 Unknown at 64 steps, and a
    budget past the gap decides them."""
    d = _parse(_doc(_identity_then_full(69, 72)))
    rep = validate_unordered(d)
    assert rep.verdict("k_simple") == UNKNOWN
    assert rep.witness("k_simple") == [
        {"component": 1, "level": n, "stalled_at": n + 64}
        for n in range(1, 6)]
    again = validate_unordered(d, depth_budget=100)
    assert again.verdict("k_simple") == HOLDS
    assert again.witness("k_simple") == {"checked_to": 72}


def test_connectivity_search_stops_at_the_iteration_cap(monkeypatch):
    """Whatever the budget, a search ends after _MAX_POWER_ITER products;
    with the cap raised the same search reaches the join."""
    from bratteli import Level, diagram
    # 10,007 levels, built directly so one Level serves every copy
    ids, labels = ("a", "b"), {"a": 1, "b": 1}
    first = Level(ids, labels, [("root", "a"), ("root", "b")])
    ident = Level(ids, labels, [("a", "a"), ("b", "b")])
    full = Level(ids, labels, [("a", "a"), ("b", "a"), ("a", "b"),
                               ("b", "b")])
    d = Diagram([first] + [ident] * 10004 + [full] * 2, 1, False)

    def positive(mat):
        return all(all(row) for row in mat)

    search = diagram._search_products
    assert search(d, 1, 1, 1, positive, 20000) == (UNKNOWN, 10001)
    monkeypatch.setattr(diagram, "_MAX_POWER_ITER", 20000)
    assert search(d, 1, 1, 1, positive, 20000) == (HOLDS, 10006)


def test_stationary_cycle_never_connects_a_component():
    """Two vertices that swap at every level: the block products
    alternate between the swap and the identity, so the state cycle
    proves the component never fully connected."""
    cls = {"minimal": 1}
    verts = [_v("a", cls), _v("b", cls)]
    d = _parse(_doc([_lvl(verts, [_e("root", "a"), _e("root", "b")]),
                     _lvl(verts, [_e("b", "a"), _e("a", "b")])],
                    stationary=True))
    rep = validate_unordered(d)
    assert rep.verdict("k_simple") == FAILS
    assert rep.witness("k_simple") == [
        {"component": 1, "level": 1, "stalled_at": 2},
        {"component": 1, "level": 2, "stalled_at": 3}]
    assert "component 1 never fully connected from level 1" in \
        " ".join(rep.findings)
    # brute force: no product of the plain incidences over 40 levels has
    # every entry positive
    for n in (1, 2):
        prod = [[1, 0], [0, 1]]
        for m in range(n, n + 40):
            inc = d.incidence(m)
            prod = [[sum(inc[r][t] * prod[t][c] for t in range(2))
                     for c in range(2)] for r in range(2)]
            assert not all(all(row) for row in prod)


def test_single_level_connectivity_unverifiable():
    d = _parse(_doc([_SINGLE]))
    rep = validate_unordered(d)
    assert rep.verdict("k_simple") == UNKNOWN


# -- Serialization -----------------------------------------------------------

def test_json_round_trip(ex57, ex82, five_vertex):
    for d in (ex57, ex82, five_vertex):
        again = _parse(d.to_json())
        assert again.to_json() == d.to_json()
        assert again.k == d.k
        assert again.stationary == d.stationary


def test_to_text_mentions_levels_and_classes(ex57):
    text = ex57.to_text()
    assert "k=2" in text
    assert "stationary" in text
    assert "y1(Y1)" in text
    assert "level 2" in text
