"""The shared graph helpers against networkx, and on inputs too deep
for recursion.

Core claims:
    - sccs partitions the nodes exactly as networkx does, sinks of the
      condensation first, and comp indexes the partition
    - reach, reverse and undirected give networkx's reachable sets,
      reversed edges and connected components
    - shortest_path returns a walk along real edges whose length is
      networkx's shortest-path length from the nearest start, None when
      the goal is out of reach, and breaks ties by first discovery
    - a 100,000-node path goes through every helper
"""

import random

import pytest

from bratteli._graph import (reach, reverse, sccs, shortest_path,
                             undirected)


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def _random_digraphs(nx, seed, count=200):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 14)
        density = rng.choice((0.05, 0.15, 0.3))
        adj = [[w for w in range(n) if rng.random() < density]
               for _ in range(n)]
        for outs in adj:
            rng.shuffle(outs)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from((v, w) for v, outs in enumerate(adj) for w in outs)
        yield rng, adj, g


def test_sccs_match_networkx(nx):
    for _, adj, g in _random_digraphs(nx, "sccs"):
        comps, comp = sccs(adj)
        want = {frozenset(c) for c in nx.strongly_connected_components(g)}
        assert {frozenset(c) for c in comps} == want
        assert sum(len(c) for c in comps) == len(adj)
        for c, members in enumerate(comps):
            assert all(comp[v] == c for v in members)
        # reverse topological order: edges never point to a later component
        for v, outs in enumerate(adj):
            assert all(comp[w] <= comp[v] for w in outs)


def test_reach_and_reverse_match_networkx(nx):
    for rng, adj, g in _random_digraphs(nx, "reach"):
        n = len(adj)
        starts = rng.sample(range(n), rng.randint(0, min(2, n)))
        want = set(starts)
        for s in starts:
            want |= nx.descendants(g, s)
        assert reach(adj, starts) == want
        rev = reverse(adj)
        assert sorted((w, v) for v, outs in enumerate(rev) for w in outs) \
            == sorted(g.edges)
        back = set(starts)
        for s in starts:
            back |= nx.ancestors(g, s)
        assert reach(rev, starts) == back


def test_undirected_components_match_networkx(nx):
    for rng, adj, g in _random_digraphs(nx, "undirected"):
        arcs = list(g.edges)
        nbr = undirected(range(len(adj)), arcs)
        for part in nx.connected_components(g.to_undirected()):
            s = min(part)
            assert reach(nbr, (s,)) == part


def test_shortest_path_matches_networkx(nx):
    seen = set()
    for rng, adj, g in _random_digraphs(nx, "paths"):
        n = len(adj)
        starts = rng.sample(range(n), rng.randint(1, min(3, n)))
        goal = rng.randrange(n)
        path = shortest_path(adj, starts, goal)
        lengths = [nx.shortest_path_length(g, s, goal)
                   for s in starts if nx.has_path(g, s, goal)]
        if not lengths:
            assert path is None
            seen.add("none")
            continue
        seen.add(min(lengths))
        assert path[0] in starts and path[-1] == goal
        assert len(path) - 1 == min(lengths)
        assert all(w in adj[v] for v, w in zip(path, path[1:]))
    assert "none" in seen and {0, 1, 2} <= seen


def test_shortest_path_keeps_the_first_parent():
    # two shortest routes 0-1-3 and 0-2-3: the listed order decides
    assert shortest_path([[1, 2], [3], [3], []], (0,), 3) == [0, 1, 3]
    assert shortest_path([[2, 1], [3], [3], []], (0,), 3) == [0, 2, 3]
    # starts are searched in the order given
    assert shortest_path([[2], [2], [], []], (1, 0), 2) == [1, 2]
    assert shortest_path([[], [], []], (0,), 2) is None


def test_long_path_needs_no_recursion():
    n = 100000
    line = [(v + 1,) for v in range(n - 1)] + [()]
    comps, comp = sccs(line)
    assert len(comps) == n and comps[0] == [n - 1]
    assert len(reach(line, (0,))) == n
    assert reverse(line)[n - 1] == (n - 2,)
    assert shortest_path(line, (0,), n - 1) == list(range(n))
    ring = line[:-1] + [(0,)]
    comps, _ = sccs(ring)
    assert len(comps) == 1 and sorted(comps[0]) == list(range(n))
    nbr = undirected(range(n), [(v, v + 1) for v in range(n - 1)])
    assert len(reach(nbr, (n // 2,))) == n
