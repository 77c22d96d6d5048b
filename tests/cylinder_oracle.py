"""Reference step relation built one cylinder at a time.

The library decides chain transitivity on the tower quotient and lists
cylinders only for output.  This module keeps the direct construction
it replaced, as the oracle the quotient is tested against: every
depth-N path enumerated recursively, one ``vershik_step`` per path,
Kosaraju over all cylinders, and saturation by reverse reachability
from the cylinders inside each class.
"""

from __future__ import annotations

from collections import deque

from bratteli import (FAILS, HOLDS, UNKNOWN, CylinderGraph, DiagramError,
                      Path, path_text, vershik_step)


def recursive_paths(d, end, depth):
    """Paths into ``end`` in lex order, deepest edge chosen first."""
    if depth == 1:
        return [Path((end,), (rank,)) for rank in range(len(d.fiber(1, end)))]
    return [Path(p.verts + (end,), p.ranks + (rank,))
            for rank, u in enumerate(d.fiber(depth, end))
            for p in recursive_paths(d, u, depth - 1)]


def node_graph(d, depth, lookahead=2):
    """The cylinder graph with a step computed for every node."""
    if depth < 1:
        raise DiagramError("cylinder resolution needs depth at least 1")
    nodes = []
    for v in d.vertices(depth):
        nodes.extend(recursive_paths(d, v, depth))
    index = {p: i for i, p in enumerate(nodes)}
    out = []
    flagged = set()
    for i, p in enumerate(nodes):
        img = vershik_step(d, p, lookahead)
        if img.unresolved:
            flagged.add(i)
            out.append(())
            continue
        if not img.targets:
            raise DiagramError("no forward step out of %s" % path_text(p))
        out.append(tuple(index[q] for q in img.targets))
    if not flagged:
        indeg = [0] * len(nodes)
        for outs in out:
            for w in outs:
                indeg[w] += 1
        for i, deg in enumerate(indeg):
            if deg == 0:
                raise DiagramError("cylinder %s has no predecessor"
                                   % path_text(nodes[i]))
    return CylinderGraph(depth, lookahead, nodes, out, flagged)


def _reach(adj, starts):
    seen = set(starts)
    todo = deque(starts)
    while todo:
        v = todo.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def _sccs(adj):
    n = len(adj)
    order = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        stack = [(s, 0)]
        seen[s] = True
        while stack:
            v, i = stack.pop()
            if i < len(adj[v]):
                stack.append((v, i + 1))
                w = adj[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                order.append(v)
    rev = [[] for _ in range(n)]
    for v in range(n):
        for w in adj[v]:
            rev[w].append(v)
    comp = [None] * n
    comps = []
    for s in reversed(order):
        if comp[s] is not None:
            continue
        cur = [s]
        comp[s] = len(comps)
        members = []
        while cur:
            v = cur.pop()
            members.append(v)
            for w in rev[v]:
                if comp[w] is None:
                    comp[w] = len(comps)
                    cur.append(w)
        comps.append(members)
    return comps, comp


def node_verdict(g):
    """Chain transitivity of a cylinder graph from its closed classes."""
    n = len(g.nodes)
    comps, comp = _sccs(g.out)
    terminal = [True] * len(comps)
    for v in range(n):
        for w in g.out[v]:
            if comp[w] != comp[v]:
                terminal[comp[v]] = False
    cuts = [c for t, c in zip(terminal, comps)
            if t and len(c) < n and not (set(c) & g.flagged)]
    if cuts:
        cut = sorted(min(cuts, key=min))
        return FAILS, {"cut_size": len(cut),
                       "cut": tuple(path_text(g.nodes[v]) for v in cut)}
    if g.flagged:
        return UNKNOWN, {"unresolved": len(g.flagged),
                         "lookahead": g.lookahead}
    return HOLDS, {"nodes": n, "resolution": g.depth}


def node_saturation(d, g):
    """{i: frozenset of cylinders that chain into a cylinder inside V_i}."""
    fams = {i: [] for i in range(1, d.k + 1)}
    for idx, p in enumerate(g.nodes):
        classes = {d.label(lvl, v) for lvl, v in enumerate(p.verts, start=1)}
        if len(classes) == 1 and classes != {0}:
            fams[classes.pop()].append(idx)
    for i, fam in fams.items():
        if not fam:
            raise DiagramError("no cylinder sits inside component %d at "
                               "depth %d" % (i, g.depth))
    rev = g.reverse()
    return {i: frozenset(g.nodes[v] for v in _reach(rev, fam))
            for i, fam in fams.items()}
