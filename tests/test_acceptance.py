"""End-to-end acceptance battery.

Ten independent criteria, one test each, every check at full strength:
exact integer arithmetic throughout, no tolerances anywhere.  Each test
prints a single pass/fail line under pytest -v.  The whole battery is
budgeted to finish well inside a minute.
"""

from collections import Counter

import pytest

from conftest import fixture_path
from bratteli import (
    FAILS,
    HOLDS,
    MAX,
    MIN,
    Path,
    bounded_norm_membership,
    chain_transitive,
    check_index_relations,
    check_structure,
    enumerate_paths,
    eq,
    extreme_path,
    graphs_from_dvectors,
    index_elements,
    lift_edge_to_path,
    load_dvectors,
    other_block,
    predecessor,
    pushforward,
    saturation_sets,
    successor,
    synthesize_order,
    telescope,
    tower_graph,
    transition_graph,
    traversal_matrix,
    validate_ordered,
    validate_unordered,
)

_EDGES_57 = (("v1", 2, 1), ("v2", 1, 2))


def test_c01_two_simple_fixture_validates_with_stable_graphs(ex57):
    rep = validate_unordered(ex57)
    assert rep.verdict("k_simple") == HOLDS
    assert rep.verdict("strongly_k_simple") == HOLDS
    assert rep.verdict("non_elementary") == HOLDS
    assert validate_ordered(ex57).ok()
    for n in range(2, 11):
        assert transition_graph(ex57, n).edges == _EDGES_57


def test_c02_index_vectors_and_relations(ex57):
    for n in range(2, 9):
        s = index_elements(ex57, n)
        assert s.vertices == ("v1", "v2")
        assert s.elements == ((-1, 1), (1, -1))   # d1 = e_v2 - e_v1 = -d2
        assert all(any(e) for e in s.elements)
        assert all(set(e) <= {-1, 0, 1} for e in s.elements)
        total = tuple(map(sum, zip(*s.elements)))
        assert not any(total)
    s = index_elements(ex57, 2)
    rep = check_index_relations(s, [transition_graph(ex57, n)
                                    for n in (2, 3)])
    assert rep.ok()
    assert rep.witness("index_rank") == {"rank": ex57.k - 1}
    d1, d2 = s.elements
    summed = tuple(a + b for a, b in zip(d1, d2))
    verdict, _ = eq(ex57, (2, summed), (2, (0, 0)), ideal=True)
    assert verdict == HOLDS


def test_c03_ideal_transport_and_bounded_norm(ex82):
    for n in range(2, 7):
        assert other_block(ex82, n) == [[2, 0], [0, 3]]
    assert pushforward(ex82, (1, (1, 0)), 2, ideal=True) == (2, (2, 0))
    assert pushforward(ex82, (1, (0, 1)), 2, ideal=True) == (2, (0, 3))
    for m in range(11):
        verdict, witness = bounded_norm_membership(
            ex82, 1, (1, 1), m, ideal=True)
        assert verdict == FAILS, (m, witness)
    verdict, _ = bounded_norm_membership(ex82, 1, (0, 0), 0, ideal=True)
    assert verdict == HOLDS


def test_c04_three_component_synthesis(five_vertex):
    dv = load_dvectors(fixture_path("five-vertex.d.json"))
    out = synthesize_order(five_vertex, dv)
    assert validate_ordered(out).ok()
    for n in range(2, 9):
        assert len(transition_graph(out, n).edges) == out.k - 1 == 2


def test_c05_successor_and_predecessor_invert(request):
    names = ["ex57", "ex57_unordered", "ex82", "five_vertex", "odometer",
             "two_odometers"]
    for name in names:
        d = request.getfixturevalue(name)
        for n in range(1, 9):
            for v in d.vertices(n):
                for p in enumerate_paths(d, v, n):
                    s = successor(d, p)
                    if isinstance(s, Path):
                        assert predecessor(d, s) == p, (name, n)
                    t = predecessor(d, p)
                    if isinstance(t, Path):
                        assert successor(d, t) == p, (name, n)


def test_c06_towers_climb_and_traverse(request):
    names = ["ex57", "ex82", "five_vertex", "odometer", "two_odometers"]
    for name in names:
        d = request.getfixturevalue(name)
        for n in range(1, 6):
            for v in d.vertices(n):
                floors = list(enumerate_paths(d, v, n))
                for lo, hi in zip(floors, floors[1:]):
                    assert successor(d, lo) == hi, (name, n, v)
            assert traversal_matrix(d, n) == d.incidence(n), (name, n)


def test_c07_synthesis_round_trip(ex57, ex57_unordered):
    dv = load_dvectors(fixture_path("example-5-7.d.json"))
    out = synthesize_order(ex57_unordered, dv)
    assert validate_ordered(out).ok()
    assert out.to_json() == ex57.to_json()
    for g in graphs_from_dvectors(out, dv):
        assert transition_graph(out, g.level).edges == g.edges
    rows = [dv.values(2)[w] for w in out.others(2)]
    cols = tuple(tuple(r[i] for r in rows) for i in range(out.k))
    assert index_elements(out, 2).elements == cols
    for n in (2, 3):
        for w in out.others(n + 1):
            walk = lift_edge_to_path(out, n, w)
            got = Counter(zip(walk["labels"], walk["symbols"],
                              walk["symbols"][1:]))
            row = out.incidence(n)[list(out.vertices(n + 1)).index(w)]
            tg = dict((v, (s, t)) for v, s, t in transition_graph(out, n).edges)
            want = Counter()
            for i, u in enumerate(out.vertices(n)):
                if row[i] and u in tg:
                    want[(u,) + tg[u]] = row[i]
            assert got == want, (n, w)


def test_c08_chain_transitivity(ex57, ex82, odometer, two_odometers,
                                fuzz_corpus):
    for d in (ex57, ex82, odometer):
        for depth in range(1, 7):
            verdict, witness = chain_transitive(tower_graph(d, depth))
            assert verdict == HOLDS, (depth, witness)
    verdict, witness = chain_transitive(tower_graph(two_odometers, 2))
    assert verdict == FAILS
    assert witness["cut"] == ("1:root->a#1|2:a->a#1",
                              "1:root->a#1|2:a->a#2")
    # a closed cut survives refinement, so Holds at depth 6 certifies
    # every smaller depth for the whole corpus in one pass
    for name, d, _ in fuzz_corpus:
        verdict, witness = chain_transitive(tower_graph(d, 6))
        assert verdict == HOLDS, (name, witness)
    # saturation sets must be full wherever the verdict Holds
    for d in (ex57, ex82, odometer, two_odometers):
        for depth in (1, 2, 3):
            g = tower_graph(d, depth)
            sets = saturation_sets(g)
            assert set(sets) == set(range(1, d.k + 1))
            if chain_transitive(g)[0] == HOLDS:
                nodes = sum(d.path_counts(depth))
                assert {len(s) for s in sets.values()} == {nodes}
    for name, d, _ in fuzz_corpus[::5]:
        nodes = sum(d.path_counts(3))
        sets = saturation_sets(tower_graph(d, 3))
        assert {len(s) for s in sets.values()} == {nodes}, name


def test_c09_corpus_transition_structure(fuzz_corpus):
    for name, d, _ in fuzz_corpus:
        if d.k < 2:
            continue
        for n in range(2, d.depth + 3):
            tg = transition_graph(d, n)
            rep = check_structure(tg, non_elementary=True)
            assert rep.ok(), (name, n, rep.to_json())
            assert len(tg.edges) >= d.k, (name, n)
            assert len(d.others(n)) >= d.k, (name, n)


def test_c10_path_counts_against_brute_force(request):
    names = ["ex57", "ex57_unordered", "ex82", "five_vertex", "odometer",
             "two_odometers"]
    for name in names:
        d = request.getfixturevalue(name)
        for n in range(1, 6):
            brute = [sum(1 for _ in enumerate_paths(d, v, n))
                     for v in d.vertices(n)]
            assert brute == d.path_counts(n), (name, n)
            assert brute == telescope(d, [0, n]).root_vector(), (name, n)
