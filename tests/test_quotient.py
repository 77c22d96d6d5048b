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
    - epsilon-chains, pseudo-orbits and covering sweeps, which walk the
      floors of the tower graph as integers, equal a plain breadth-first
      search and layered sweep over the expansion, errors included
"""

import json
import random

import pytest

from bratteli import (HOLDS, DiagramError, Diverges, TowerGraph,
                      chain_transitive, cover_steps, cylinder_graph,
                      enumerate_paths, epsilon_chain, parse_diagram,
                      path_text, pseudo_orbit, saturation_sets,
                      saturation_sizes, tower_graph)
from cylinder_oracle import (_reach, flag_cause, node_class, node_families,
                             node_graph, node_reverse, node_saturation,
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
    try:
        sets = node_saturation(d, ref)
    except DiagramError as exc:
        _same_error(lambda: saturation_sizes(d, depth, graph=tg), exc)
        _same_error(lambda: saturation_sets(d, depth, graph=tg), exc)
        return "no cylinder"
    sizes = saturation_sizes(d, depth, graph=tg)
    assert sizes == {i: len(s) for i, s in sets.items()}
    assert saturation_sets(d, depth, graph=tg) == sets
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
        depth = rng.choice((1, 2, 3))
        seen.add(_check_against_oracle(d, depth))
        _check_path_queries(d, tower_graph(d, depth))
    assert seen >= {"Holds", "Fails", "Unknown", "no cylinder"}, seen


def _strongly_connected(out):
    """Every top steps somewhere and every tower reaches every other, by
    plain reachability from tower 0 both ways."""
    m = len(out)
    back = [[v for v in range(m) if t in out[v]] for t in range(m)]
    return (all(out) and len(_reach(out, (0,))) == m
            and len(_reach(back, (0,))) == m)


def _random_tower_graphs(d, depth, seed):
    """300 tower graphs on the towers of d at this depth, with arbitrary
    out-lists and flags: shapes tower_graph never builds too."""
    m = len(d.vertices(depth))
    rng = random.Random(seed)
    for _ in range(300):
        out = [rng.sample(range(m), rng.choice((0, 1, 1, 2, 2, 3)))
               for _ in range(m)]
        flagged = [t for t in range(m) if rng.random() < 0.15]
        yield out, TowerGraph(d, depth, out, flagged)


@pytest.mark.parametrize("fixture,depth", [("ex57", 2), ("five_vertex", 2),
                                           ("ex82", 2)])
def test_random_tower_graphs_match_their_expansion(request, fixture, depth):
    d = request.getfixturevalue(fixture)
    seen = set()
    for out, tg in _random_tower_graphs(d, depth, "towers:%s:%d"
                                        % (fixture, depth)):
        g = tg.expand()
        want = node_verdict(d, g)
        seen.add(want[0])
        assert chain_transitive(d, depth, graph=tg) == want
        if not tg.flagged:
            assert (want[0] == HOLDS) == _strongly_connected(out), out
        sets = node_saturation(d, g)
        sizes = saturation_sizes(d, depth, graph=tg)
        assert sizes == {i: len(s) for i, s in sets.items()}
        assert saturation_sets(d, depth, graph=tg) == sets
        if want[0] == HOLDS:
            assert set(sizes.values()) == {tg.size}
        _check_path_queries(d, tg)
    assert seen == {"Holds", "Fails", "Unknown"}


# -- Path-level queries against plain walks of the expansion -----------------

def _bfs(out, starts, goal):
    """Fewest-edge walk from a start to goal over out-edge lists, taking
    them in order and keeping each node's first parent; None if none."""
    parent = {}
    queue = []
    for s in starts:
        if s not in parent:
            parent[s] = None
            queue.append(s)
    for v in queue:
        if v == goal:
            walk = [v]
            while parent[walk[-1]] is not None:
                walk.append(parent[walk[-1]])
            return walk[::-1]
        for w in out[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return None


def _sweep(adj, start, n):
    """Layers of images from start until all n nodes are covered: the
    layer count, or (layers, uncovered nodes) when a layer adds none."""
    covered = set(start)
    frontier = set(start)
    steps = 0
    while len(covered) < n:
        frontier = {w for v in frontier for w in adj[v]} - covered
        if not frontier:
            return steps, sorted(set(range(n)) - covered)
        covered |= frontier
        steps += 1
    return steps


def _expect(call, want):
    """call() returns want, or raises DiagramError with message want."""
    if isinstance(want, str):
        _same_error(call, want)
    else:
        assert call() == want


def _expect_listing(call, want):
    """_expect for a query that lists cylinders: call(text=True) gives
    the same listing rendered by path_text."""
    _expect(call, want)
    if not isinstance(want, str):
        assert call(text=True) == [path_text(p) for p in want]


def _want_cover(d, g, fams, start, adj):
    if g.flagged:
        return ("%d cylinders unresolved (%s); sweep counts would be "
                "unreliable" % (len(g.flagged), flag_cause(d)[1]))
    if isinstance(fams, str):
        return fams
    met = {node_class(d, g.nodes[v]) for v in start}
    for i in sorted(fams):
        if i not in met:
            return "covering set misses every cylinder of component %d" % i
    return _sweep(adj, start, len(g.nodes))


def _check_path_queries(d, tg):
    """epsilon_chain, pseudo_orbit and cover_steps on the tower graph
    equal a plain BFS and layered sweep over its expansion."""
    g = tg.expand()
    nodes, n = g.nodes, len(g.nodes)
    picks = sorted(set(range(0, n, max(1, n // 6))) | {n - 1})
    unresolved = ("" if not g.flagged
                  else " (%d cylinders unresolved, %s)"
                  % (len(g.flagged), flag_cause(d)[1]))
    for s in picks:
        for t in picks:
            walk = _bfs(g.out, (s,), t)
            want = ("no chain from %s to %s at resolution 2^-%d%s"
                    % (path_text(nodes[s]), path_text(nodes[t]), g.depth,
                       unresolved) if walk is None
                    else [nodes[v] for v in walk])
            _expect_listing(lambda text=False: epsilon_chain(
                d, nodes[s], nodes[t], graph=tg, text=text), want)
    verdict = node_verdict(d, g)[0]
    for s in picks:
        if verdict != HOLDS:
            want = ("pseudo-orbits need chain transitivity at this "
                    "resolution, got %s" % verdict)
        else:
            walk = _bfs(g.out, g.out[s], s)
            want = ("no closed chain through %s" % path_text(nodes[s])
                    if walk is None else [nodes[s]] + [nodes[v] for v in walk])
        _expect_listing(lambda text=False: pseudo_orbit(
            d, nodes[s], graph=tg, text=text), want)
    try:
        fams = node_families(d, g)
        sets = [[fam[0] for fam in fams.values()],
                [fam[-1] for fam in fams.values()] + picks[:2]]
    except DiagramError as exc:
        fams = str(exc)
        sets = []
    sets += [[s] for s in picks] + [list(range(n))]
    for adj, direction in ((g.out, "forward"),
                           (node_reverse(g), "backward")):
        for start in sets:
            want = _want_cover(d, g, fams, start, adj)
            if isinstance(want, tuple):
                steps, left = want
                res = cover_steps(d, [nodes[v] for v in start], direction,
                                  graph=tg)
                assert isinstance(res, Diverges)
                assert res.steps == steps
                assert res.uncovered == tuple(path_text(nodes[v])
                                              for v in left)
            else:
                _expect(lambda: cover_steps(d, [nodes[v] for v in start],
                                            direction, graph=tg), want)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_path_queries_match_plain_walks_of_the_expansion(request, fixture):
    d = request.getfixturevalue(fixture)
    for depth in range(1, 5):
        _check_path_queries(d, tower_graph(d, depth))


def test_corpus_path_queries_match_plain_walks_of_the_expansion(fuzz_corpus):
    for name, d, _ in fuzz_corpus[::5]:
        for depth in range(1, 4):
            _check_path_queries(d, tower_graph(d, depth))
