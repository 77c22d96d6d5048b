"""The tower quotient against the per-cylinder oracle.

Core claims:
    - the iterative path enumeration lists the recursive order exactly
    - the lex list of deeper paths is the blocks the oracle reads it as
    - cylinder_graph, expanded from the tower graph, is the brute-force
      step relation read off the lex order of deeper paths: same nodes,
      out-edges and flags
    - verdict, witness, node count and saturation decided on the towers
      equal the node-level answers, errors included, on every fixture at
      depths 1-5, on every fifth corpus diagram at depths 1-4 and on
      small random diagrams, stationary or not
    - on arbitrary weighted tower graphs, including shapes tower_graph
      never builds, the analysis agrees with the node-level analysis of
      the expansion, and without flags it says Holds exactly when every
      top steps and the towers are strongly connected
    - a Holds leaves every saturation size equal to the node count
"""

import json
import random

import pytest

from bratteli import (HOLDS, CylinderGraph, DiagramError, TowerGraph,
                      chain_transitive, cylinder_graph, enumerate_paths,
                      parse_diagram, saturation_sets, saturation_sizes,
                      tower_graph)
from cylinder_oracle import (_reach, node_graph, node_saturation,
                             node_verdict, recursive_paths, segments)

FIXTURES = ["ex57", "ex57_unordered", "ex82", "five_vertex", "odometer",
            "two_odometers"]


def _same_error(call, want):
    with pytest.raises(DiagramError) as got:
        call()
    assert str(got.value) == str(want)


def _check_against_oracle(d, depth):
    """Compare everything the quotient decides; returns the outcome, a
    verdict or the first error message's opening words."""
    try:
        ref = node_graph(d, depth)
    except DiagramError as exc:
        _same_error(lambda: tower_graph(d, depth), exc)
        _same_error(lambda: cylinder_graph(d, depth), exc)
        return str(exc).split(" 1:")[0]
    g = cylinder_graph(d, depth)
    assert g.nodes == ref.nodes
    assert g.out == ref.out
    assert g.flagged == ref.flagged
    tg = tower_graph(d, depth)
    assert tg.size == len(ref)
    want = node_verdict(d, ref)
    assert chain_transitive(d, depth, graph=tg) == want
    assert chain_transitive(d, depth) == want
    assert chain_transitive(d, depth, graph=g) == want
    try:
        sets = node_saturation(d, ref)
    except DiagramError as exc:
        _same_error(lambda: saturation_sizes(d, depth, graph=tg), exc)
        _same_error(lambda: saturation_sets(d, depth, graph=g), exc)
        return "no cylinder"
    sizes = saturation_sizes(d, depth, graph=tg)
    assert sizes == {i: len(s) for i, s in sets.items()}
    assert saturation_sets(d, depth, graph=tg) == sets
    assert saturation_sets(d, depth, graph=g) == sets
    if want[0] == HOLDS:
        # chain transitivity lets every cylinder chain into every class
        assert set(sizes.values()) == {tg.size}
    return want[0]


def _small_diagram(rng):
    """A random two- or three-vertex diagram, any order, any labels."""
    k = rng.choice((1, 2))
    ids = ["v%d" % i for i in range(rng.choice((2, 3)))]
    labels = [rng.choice(range(k + 1)) for _ in ids]
    verts = [{"id": v, "class": "other" if lab == 0 else {"minimal": lab}}
             for v, lab in zip(ids, labels)]
    first = [{"source": "root", "range": v}
             for v in ids for _ in range(rng.choice((1, 2)))]
    block = [{"source": rng.choice(ids), "range": v}
             for v in ids for _ in range(rng.choice((1, 2, 3)))]
    levels = [{"vertices": verts, "edges": first}]
    levels += [{"vertices": verts, "edges": block}] * rng.choice((2, 4))
    doc = {"kind": "bratteli", "k": k, "stationary": rng.random() < 0.5,
           "levels": levels}
    try:
        return parse_diagram(json.dumps(doc))
    except DiagramError:
        return None


@pytest.mark.parametrize("fixture", FIXTURES)
def test_enumeration_matches_recursive_order(request, fixture):
    d = request.getfixturevalue(fixture)
    for depth in range(1, 7):
        for v in d.vertices(depth):
            assert list(enumerate_paths(d, v, depth)) == \
                recursive_paths(d, v, depth)


@pytest.mark.parametrize("fixture", ["ex57", "five_vertex", "odometer"])
def test_deeper_lex_list_is_blocks_of_towers(request, fixture):
    # segments from level N in lex order, each after every floor of the
    # tower of its start: the order the oracle's successor is read in
    d = request.getfixturevalue(fixture)
    for depth, deeper in ((1, 3), (2, 3), (2, 4), (3, 2)):
        for v in d.vertices(depth + deeper):
            listed = [(p.ranks, p.verts[:depth])
                      for p in recursive_paths(d, v, depth + deeper)]
            blocks = [(p.ranks + ranks, p.verts)
                      for s, ranks in segments(d, v, depth, depth + deeper)
                      for p in recursive_paths(d, s, depth)]
            assert blocks == listed


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_fixture_quotient_matches_oracle(request, fixture, depth):
    _check_against_oracle(request.getfixturevalue(fixture), depth)


def test_corpus_quotient_matches_oracle(fuzz_corpus):
    for name, d, _ in fuzz_corpus[::5]:
        for depth in range(1, 5):
            _check_against_oracle(d, depth)


def test_random_diagrams_match_oracle():
    # small arbitrary diagrams, stationary or not, reach every verdict
    # and the saturation error the fixtures and the corpus never meet
    rng = random.Random("diagrams")
    seen = set()
    tried = 0
    while tried < 300:
        d = _small_diagram(rng)
        if d is None:
            continue
        tried += 1
        seen.add(_check_against_oracle(d, rng.choice((1, 2, 3))))
    assert seen >= {"Holds", "Fails", "Unknown", "no cylinder"}, seen


def _strongly_connected(out):
    """Every top steps somewhere and every tower reaches every other, by
    plain reachability from tower 0 both ways."""
    m = len(out)
    back = [[v for v in range(m) if t in out[v]] for t in range(m)]
    return (all(out) and len(_reach(out, (0,))) == m
            and len(_reach(back, (0,))) == m)


@pytest.mark.parametrize("fixture,depth", [("ex57", 2), ("five_vertex", 2),
                                           ("ex82", 2)])
def test_random_tower_graphs_match_their_expansion(request, fixture, depth):
    d = request.getfixturevalue(fixture)
    base = tower_graph(d, depth)
    m = len(base.vertices)
    rng = random.Random("towers:%s:%d" % (fixture, depth))
    seen = set()
    for _ in range(300):
        out = [rng.sample(range(m), rng.choice((0, 1, 1, 2, 2, 3)))
               for _ in range(m)]
        flagged = [t for t in range(m) if rng.random() < 0.15]
        tg = TowerGraph(d, depth, base.vertices, base.heights, out, flagged)
        g = tg.expand()
        want = node_verdict(d, g)
        seen.add(want[0])
        assert chain_transitive(d, depth, graph=tg) == want
        assert chain_transitive(d, depth, graph=g) == want
        if not flagged:
            assert (want[0] == HOLDS) == _strongly_connected(out), out
        sets = node_saturation(d, g)
        sizes = saturation_sizes(d, depth, graph=tg)
        assert sizes == {i: len(s) for i, s in sets.items()}
        assert saturation_sets(d, depth, graph=tg) == sets
        if want[0] == HOLDS:
            assert set(sizes.values()) == {tg.size}
    assert seen == {"Holds", "Fails", "Unknown"}


def test_random_node_graphs_match_oracle(odometer):
    nodes = cylinder_graph(odometer, 3).nodes
    rng = random.Random("nodes")
    for _ in range(300):
        out = [rng.sample(range(8), rng.choice((0, 1, 1, 2))) for _ in nodes]
        flagged = [v for v in range(8) if rng.random() < 0.1]
        g = CylinderGraph(3, nodes, out, flagged)
        assert chain_transitive(odometer, 3, graph=g) == \
            node_verdict(odometer, g)
        assert saturation_sets(odometer, 3, graph=g) == \
            node_saturation(odometer, g)
