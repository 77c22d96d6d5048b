"""Exact decisions in the path-count group and its V_o ideal.

Core claims:
    - pushforward agrees with multiplying incidence (or V_o block) matrices
    - the order unit is the tower-height vector
    - class_is_zero / eq / is_positive decide stationary cases exactly
    - the diag(2,3) ideal doubles and triples its generators, and (1,1)
      escapes every sup-norm box while the zero class sits in all of them
    - IndexSet enforces the {-1,0,1} / single-pair shape
    - the index vectors sum to zero, no proper subset vanishes, and their
      rational span has rank k-1, with the all-ones vector outside it
"""

import json
import random

import pytest

from bratteli import (
    FAILS,
    HOLDS,
    UNKNOWN,
    DiagramError,
    IndexSet,
    TransitionGraph,
    bounded_norm_membership,
    check_index_relations,
    class_is_zero,
    eq,
    index_elements,
    is_positive,
    parse_diagram,
    pushforward,
    rational_rank_lower_bound,
    towers,
    transition_graph,
)


def _mat_vec(mat, vec):
    return tuple(sum(r[i] * vec[i] for i in range(len(vec))) for r in mat)


# -- Transport ---------------------------------------------------------------

def test_pushforward_composes(ex57):
    lvl, vec = pushforward(ex57, (1, (1, 0, 0, 0)), 4)
    assert lvl == 4
    expect = (1, 0, 0, 0)
    for n in (1, 2, 3):
        expect = _mat_vec(ex57.incidence(n), expect)
    assert vec == expect


def test_pushforward_ideal_uses_other_block(ex82):
    assert pushforward(ex82, (1, (1, 0)), 2, ideal=True) == (2, (2, 0))
    assert pushforward(ex82, (1, (0, 1)), 2, ideal=True) == (2, (0, 3))
    assert pushforward(ex82, (1, (1, 1)), 3, ideal=True) == (3, (4, 9))


def test_pushforward_rejects_backward(ex57):
    with pytest.raises(DiagramError, match="back"):
        pushforward(ex57, (3, (0, 0, 0, 0)), 2)


def test_vector_length_checked(ex57):
    with pytest.raises(DiagramError, match="does not match"):
        pushforward(ex57, (1, (1, 2, 3)), 2)
    with pytest.raises(DiagramError, match="V_o"):
        pushforward(ex57, (1, (1, 2, 3)), 2, ideal=True)


def test_pushforwards_lists_trajectory(ex82):
    traj = [pushforward(ex82, (1, (1, 1)), n, ideal=True)[1]
            for n in range(1, 5)]
    assert traj == [(1, 1), (2, 3), (4, 9), (8, 27)]


def test_pushforwards_stops_at_presentation_end(ex57):
    doc = ex57.to_json()
    doc["stationary"] = False
    d = parse_diagram(json.dumps(doc))
    assert pushforward(d, (1, (1, 0, 0, 0)), 2)[0] == 2
    with pytest.raises(DiagramError, match="beyond non-stationary"):
        pushforward(d, (1, (1, 0, 0, 0)), 9)


def test_order_unit_is_tower_heights(ex57, ex82):
    # the level-1 unit pushes forward to the level-n tower heights
    for d, n in ((ex57, 3), (ex82, 4)):
        part = towers(d, n)
        heights = tuple(len(part.tower(v)) for v in part.vertices)
        assert pushforward(d, (1, d.path_counts(1)), n) == (n, heights)


# -- Class decisions ---------------------------------------------------------

def test_class_zero_vector_is_zero(ex57):
    verdict, wit = class_is_zero(ex57, 2, (0, 0, 0, 0))
    assert verdict == HOLDS
    assert wit == {"vanishes_by": 2}


def test_nonzero_class_persists_in_invertible_tail(ex57):
    verdict, wit = class_is_zero(ex57, 1, (1, 0, 0, 0))
    assert verdict == FAILS
    assert wit == {"persistent_from": 2}


_SINGULAR = {"kind": "bratteli", "k": 1, "stationary": True, "levels": [
    {"vertices": [{"id": "a", "class": {"minimal": 1}},
                  {"id": "b", "class": {"minimal": 1}}],
     "edges": [{"source": "root", "range": "a"},
               {"source": "root", "range": "b"}]},
    {"vertices": [{"id": "a", "class": {"minimal": 1}},
                  {"id": "b", "class": {"minimal": 1}}],
     "edges": [{"source": "a", "range": "a"}, {"source": "b", "range": "a"},
               {"source": "a", "range": "b"}, {"source": "b", "range": "b"}]},
]}


def test_class_dies_under_singular_block():
    d = parse_diagram(json.dumps(_SINGULAR))
    assert d.incidence(2) == ((1, 1), (1, 1))
    verdict, wit = class_is_zero(d, 2, (1, -1))
    assert verdict == HOLDS
    verdict, _ = class_is_zero(d, 2, (1, 0))
    assert verdict == FAILS


def test_eq_identifies_vectors_across_levels():
    d = parse_diagram(json.dumps(_SINGULAR))
    verdict, _ = eq(d, (2, (1, 0)), (2, (0, 1)))
    assert verdict == HOLDS
    verdict, _ = eq(d, (1, (1, 0)), (2, (1, 1)))
    assert verdict == HOLDS
    verdict, _ = eq(d, (2, (1, 0)), (2, (1, 1)))
    assert verdict == FAILS


def test_eq_unknown_without_stationarity(ex57):
    doc = ex57.to_json()
    doc["stationary"] = False
    d = parse_diagram(json.dumps(doc))
    verdict, _ = eq(d, (1, (1, 0, 0, 0)), (1, (0, 0, 0, 1)),
                    depth_budget=3)
    assert verdict == UNKNOWN


def test_positive_member_detected(ex57):
    verdict, wit = is_positive(ex57, 1, (1, 0, 0, 0))
    assert verdict == HOLDS
    assert wit == {"non_negative_member": True}


def test_negative_class_fails_by_mirror(ex57):
    verdict, wit = is_positive(ex57, 1, (-1, 0, 0, 0))
    assert verdict == FAILS
    assert "negated_class_positive_after" in wit


def test_fixed_vector_fails_by_cycling(ex57):
    # the V_o block fixes (1,-1): the orbit revisits itself immediately
    verdict, wit = is_positive(ex57, 2, (1, -1), ideal=True)
    assert verdict == FAILS
    assert wit["orbit_cycles_without_member"] is True


# -- Sup-norm boxes ----------------------------------------------------------

def test_bounded_norm_of_zero_class(ex82):
    verdict, wit = bounded_norm_membership(ex82, 1, (0, 0), 0)
    assert verdict == HOLDS
    assert wit == {"zero_class": True}


@pytest.mark.parametrize("bound", [0, 1, 5, 10])
def test_diag_generator_sum_escapes_every_box(ex82, bound):
    verdict, wit = bounded_norm_membership(ex82, 1, (1, 1), bound)
    assert verdict == FAILS
    assert "unique_member_escapes_after" in wit


def test_fixed_vector_cycles_inside_box(ex57):
    verdict, wit = bounded_norm_membership(ex57, 2, (1, -1), 1)
    assert verdict == HOLDS
    assert wit["cycle_length"] == 1
    verdict, _ = bounded_norm_membership(ex57, 2, (1, -1), 0)
    assert verdict == FAILS


def test_bounded_norm_rejects_negative_bound(ex82):
    with pytest.raises(DiagramError, match="non-negative"):
        bounded_norm_membership(ex82, 1, (1, 1), -1)


def test_singular_tail_escape_stays_unknown():
    d = parse_diagram(json.dumps(_SINGULAR))
    verdict, wit = bounded_norm_membership(d, 2, (1, 0), 1, ideal=False)
    assert verdict == UNKNOWN
    assert "pushforward_escapes_after" in wit


def test_nonstationary_box_answers_are_relative(ex82):
    doc = ex82.to_json()
    doc["stationary"] = False
    d = parse_diagram(json.dumps(doc))
    verdict, wit = bounded_norm_membership(d, 1, (1, 1), 1)
    assert verdict == UNKNOWN
    assert wit == {"exceeds_at": 2}
    verdict, wit = bounded_norm_membership(d, 1, (1, 1), 100)
    assert verdict == HOLDS   # within every presented level


# -- Index vectors -----------------------------------------------------------

def test_index_elements_of_two_remainder_fixture(ex57):
    s = index_elements(ex57, 2)
    assert s.vertices == ("v1", "v2")
    # d_1 leaves Y_1 along v2 and enters it along v1
    assert s.elements == ((-1, 1), (1, -1))
    assert s.to_json() == {"level": 2, "vertices": ["v1", "v2"],
                           "elements": [[-1, 1], [1, -1]]}


def test_index_elements_nonzero_and_balanced(five_vertex):
    s = index_elements(five_vertex, 2)
    assert len(s.elements) == five_vertex.k
    assert [sum(col) for col in zip(*s.elements)] == [0] * len(s.vertices)


def test_index_set_shape_enforced():
    with pytest.raises(DiagramError, match="length mismatch"):
        IndexSet(2, ("a", "b"), [(1, -1), (0,)])
    with pytest.raises(DiagramError, match="outside"):
        IndexSet(2, ("a",), [(2,), (-2,)])
    with pytest.raises(DiagramError, match="pair"):
        IndexSet(2, ("a",), [(1,), (1,)])
    s = IndexSet(2, ("a", "b"), [(1, 0), (-1, 0)])
    assert s.elements == ((1, 0), (-1, 0))


def test_index_relations_on_fixture(ex57):
    s = index_elements(ex57, 2)
    graphs = [transition_graph(ex57, n) for n in (2, 3)]
    rep = check_index_relations(s, graphs)
    assert rep.verdict("index_sum_zero") == HOLDS
    assert rep.verdict("index_proper_subsets") == HOLDS
    assert rep.verdict("index_rank") == HOLDS
    assert rep.witness("index_rank") == {"rank": 1}


def test_index_relations_catch_uncrossed_cut():
    # two loops never cross the {Y1} boundary: d_1 vanishes there
    g = TransitionGraph(2, 2, [("a", 1, 1), ("b", 2, 2)])
    s = IndexSet(2, ("a", "b"), [(0, 0), (0, 0)])
    rep = check_index_relations(s, [g])
    assert rep.verdict("index_proper_subsets") == FAILS
    assert rep.witness("index_proper_subsets")["subset"] == [1]
    assert rep.verdict("index_rank") == FAILS


def test_rank_lower_bound_certificate(ex57):
    size, rep = rational_rank_lower_bound(ex57, 2)
    assert size == 2
    assert rep.verdict("V_o_size") == HOLDS
    assert rep.verdict("index_rank") == HOLDS
    assert rep.verdict("rank_bound") == HOLDS
    assert rep.witness("rank_bound")["bound"] == ex57.k


def test_rank_lower_bound_needs_room(five_vertex):
    # two V_o vertices cannot certify rank 3
    size, rep = rational_rank_lower_bound(five_vertex, 2)
    assert size == 2
    assert rep.verdict("V_o_size") == FAILS
    assert rep.verdict("rank_bound") == FAILS


def test_rank_matches_sympy():
    # the one exact elimination: rank, and for square blocks the
    # invertibility test bounded_norm_membership reads off it
    sympy = pytest.importorskip("sympy")
    from bratteli.ktheory import _rank
    rng = random.Random("rank")
    singular = 0
    for _ in range(400):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.4:
            # a multiple of another row, zero included
            a, b = rng.sample(range(rows), 2)
            f = rng.randint(-2, 2)
            mat[b] = [f * x for x in mat[a]]
        want = sympy.Matrix(mat).rank()
        assert _rank(mat) == want
        if rows == cols:
            invertible = sympy.Matrix(mat).det() != 0
            assert (_rank(mat) == rows) == invertible
            singular += not invertible
    assert singular > 20
