"""Bulk checks over the generated corpus of 100 ordered diagrams.

The corpus is deterministic (seeded), all stationary, split 34/33/33
across k = 1, 2, 3.  Every diagram went through the synthesizer, so
these tests double as an end-to-end exercise of ordering: the full
validator must accept each one, the transition graphs must have the
structure valid routing forces, and the index data must round-trip
back to the prescription the generator started from.
"""

import pytest

from bratteli import (
    FAILS,
    HOLDS,
    chain_transitive,
    check_structure,
    dvectors,
    index_elements,
    tower_graph,
    transition_graph,
    validate_ordered,
    validate_unordered,
)


def test_corpus_is_the_fixed_population(fuzz_corpus):
    assert len(fuzz_corpus) == 100
    ks = [d.k for _, d, _ in fuzz_corpus]
    assert [ks.count(i) for i in (1, 2, 3)] == [34, 33, 33]
    assert all(d.stationary for _, d, _ in fuzz_corpus)
    assert {d.depth for _, d, _ in fuzz_corpus} == {2, 3}
    names = [name for name, _, _ in fuzz_corpus]
    assert len(set(names)) == 100
    assert names[0] == "k1-00-x1" and names[-1] == "k3-32-x1"


def test_every_diagram_validates_ordered(fuzz_corpus):
    bad = [name for name, d, _ in fuzz_corpus if not validate_ordered(d).ok()]
    assert bad == []


def test_every_diagram_simple_and_non_elementary(fuzz_corpus):
    for name, d, _ in fuzz_corpus:
        rep = validate_unordered(d)
        assert rep.verdict("k_simple") == HOLDS, name
        assert rep.verdict("non_elementary") == HOLDS, name
        # the k=3 remainder block is block diagonal on purpose
        expect = FAILS if d.k == 3 else HOLDS
        assert rep.verdict("strongly_k_simple") == expect, name


def test_transition_graphs_have_forced_structure(fuzz_corpus):
    """Connected, at least k edges, sources on closed walks, and a
    remainder at least as big as k, at every level of the presentation
    and two levels past it."""
    for name, d, _ in fuzz_corpus:
        if d.k < 2:
            continue
        for n in range(2, d.depth + 3):
            tg = transition_graph(d, n)
            rep = check_structure(tg, non_elementary=True)
            assert rep.ok(), (name, n, rep.to_json())
            assert len(tg.edges) >= d.k, (name, n)
            assert len(d.others(n)) >= d.k, (name, n)


def test_index_data_round_trips_to_prescription(fuzz_corpus):
    for name, d, dv in fuzz_corpus:
        for n in range(2, d.depth + 2):
            assert dvectors(d, n) == dv.values(n), (name, n)


def test_index_elements_match_dvector_columns(fuzz_corpus):
    # the k index vectors are the columns of the per-vertex d-vector rows
    for name, d, dv in fuzz_corpus[::9]:
        rows = [dv.values(2)[w] for w in d.others(2)]
        cols = tuple(tuple(r[i] for r in rows) for i in range(d.k))
        assert index_elements(d, 2).elements == cols, name


def test_dvector_arithmetic(fuzz_corpus):
    for name, d, dv in fuzz_corpus:
        for vec in dv.values(2).values():
            assert len(vec) == d.k
            assert sum(vec) == 0
            assert set(vec) <= {-1, 0, 1}


@pytest.mark.parametrize("stride", [10])
def test_chain_transitive_spot_checks(fuzz_corpus, stride):
    # depth 6 over the whole corpus is the acceptance suite's job
    for name, d, _ in fuzz_corpus[::stride]:
        verdict, witness = chain_transitive(tower_graph(d, 3))
        assert verdict == HOLDS, (name, witness)
