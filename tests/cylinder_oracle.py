"""Reference step relation built one cylinder at a time.

The library decides chain transitivity on the tower quotient and walks
the maximal continuations of each tower top forward.  This module keeps
a construction that shares neither, as the oracle the library is tested
against: the successor read off the lex list of deeper paths, one node
per cylinder, Kosaraju over all cylinders, and saturation by reverse
reachability from the cylinders inside each class.  It takes nothing
from ``bratteli.vershik``.
"""

from __future__ import annotations

from collections import deque

from bratteli import (FAILS, HOLDS, MAX, MIN, UNKNOWN, CylinderGraph,
                      DiagramError, Path, extreme_chains, path_text)

# levels past the cylinder depth whose lex order a stationary step reads
DEEPER = 5


def recursive_paths(d, end, depth):
    """Paths into ``end`` in lex order, deepest edge chosen first."""
    if depth == 1:
        return [Path((end,), (rank,)) for rank in range(len(d.fiber(1, end)))]
    return [Path(p.verts + (end,), p.ranks + (rank,))
            for rank, u in enumerate(d.fiber(depth, end))
            for p in recursive_paths(d, u, depth - 1)]


def segments(d, end, lo, hi):
    """Paths from level lo up to ``end`` on level hi in lex order, deepest
    edge chosen first, as (start vertex, ranks) pairs."""
    if hi == lo:
        return [(end, ())]
    return [(s, ranks + (rank,))
            for rank, u in enumerate(d.fiber(hi, end))
            for s, ranks in segments(d, u, lo, hi - 1)]


def brute_steps(d, depth):
    """Successor edges between depth-N cylinders, by brute force.

    Every depth-D path, D = N + DEEPER on a stationary diagram and the
    last presented level otherwise, steps to the next path in the lex
    list of the paths into its end, and both are truncated to depth N.
    A path last in its list has no successor at depth D.  It wraps to
    the z_{i,min} ground floor when it truncates z_{i,max}: on a
    stationary diagram when its depth-N truncation is that chain's
    (the Vershik map sends z_{i,max} to z_{i,min}), on a finite
    presentation when it ends on that chain's vertex of the last level.
    Otherwise its truncation is open.  Returns (nodes, succ, open tops).

    The deeper edges are the more significant, so the lex list of the
    paths into v is one block per segment from level N up to v, segments
    in lex order, and each block is the tower of the segment's start
    with that segment appended (``tests/test_quotient.py`` checks this
    against ``recursive_paths``).  The next path after floor j of a block
    is floor j+1; after the top, the ground floor of the next block.
    """
    top = depth + DEEPER if d.stationary else d.depth
    towers = {v: recursive_paths(d, v, depth) for v in d.vertices(depth)}
    nodes = [p for v in d.vertices(depth) for p in towers[v]]
    succ = {p: set() for p in nodes}
    zmax, zmin = extreme_chains(d, MAX), extreme_chains(d, MIN)
    open_tops, climbed = set(), set()
    for v in d.vertices(top):
        starts = [s for s, _ in segments(d, v, depth, top)]
        for s, after in zip(starts, starts[1:] + [None]):
            floors = towers[s]
            if s not in climbed:
                # every block of one tower climbs alike
                climbed.add(s)
                for lo, hi in zip(floors, floors[1:]):
                    succ[lo].add(hi)
            if after is not None:
                succ[floors[-1]].add(towers[after][0])
                continue
            at, w = (depth, floors[-1].end) if d.stationary else (top, v)
            ground = None
            if zmax.certain(at) and zmin.certain(depth):
                for i in range(1, d.k + 1):
                    if zmax.vertex(i, at) == w:
                        ground = zmin.vertex(i, depth)
            if ground is None:
                open_tops.add(floors[-1])
            else:
                succ[floors[-1]].add(towers[ground][0])
    return nodes, succ, open_tops


def node_graph(d, depth):
    """The cylinder graph of the brute-force relation; open tops are
    flagged and keep no edges."""
    if depth < 1:
        raise DiagramError("cylinder resolution needs depth at least 1")
    nodes, succ, open_tops = brute_steps(d, depth)
    index = {p: i for i, p in enumerate(nodes)}
    out = []
    flagged = set()
    for i, p in enumerate(nodes):
        if p in open_tops:
            flagged.add(i)
            out.append(())
            continue
        if not succ[p]:
            raise DiagramError("no forward step out of %s" % path_text(p))
        out.append(tuple(index[q] for q in succ[p]))
    if not flagged:
        indeg = [0] * len(nodes)
        for outs in out:
            for w in outs:
                indeg[w] += 1
        for i, deg in enumerate(indeg):
            if deg == 0:
                raise DiagramError("cylinder %s has no predecessor"
                                   % path_text(nodes[i]))
    return CylinderGraph(depth, nodes, out, flagged)


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


def node_verdict(d, g):
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
                         "checked_to": d.depth,
                         "reason": flag_cause(d)[0]}
    return HOLDS, {"nodes": n, "resolution": g.depth}


def flag_cause(d):
    """Why tops are flagged, as the witness names it and errors say it:
    on a stationary diagram the extreme chains fail (a continuation
    stays maximal forever with no z_{i,min} to wrap to), on a finite
    one the presentation ends."""
    if d.stationary:
        return "extreme_chains", "extreme chains fail"
    return "presentation_end", "presentation checked to level %d" % d.depth


def node_class(d, p):
    """Component i when every vertex of the path p lies in V_i, else 0."""
    classes = {d.label(lvl, v) for lvl, v in enumerate(p.verts, start=1)}
    return classes.pop() if len(classes) == 1 else 0


def node_families(d, g):
    """{i: indices of the cylinders inside V_i}, every family nonempty."""
    fams = {i: [] for i in range(1, d.k + 1)}
    for idx, p in enumerate(g.nodes):
        i = node_class(d, p)
        if i:
            fams[i].append(idx)
    for i, fam in fams.items():
        if not fam:
            raise DiagramError("no cylinder sits inside component %d at "
                               "depth %d" % (i, g.depth))
    return fams


def node_reverse(g):
    """In-edge lists of a cylinder graph, by scanning every out-edge."""
    rev = [[] for _ in g.nodes]
    for v, outs in enumerate(g.out):
        for w in outs:
            rev[w].append(v)
    return rev


def node_saturation(d, g):
    """{i: frozenset of cylinders that chain into a cylinder inside V_i}."""
    rev = node_reverse(g)
    return {i: frozenset(g.nodes[v] for v in _reach(rev, fam))
            for i, fam in node_families(d, g).items()}
