"""Transition graphs on component symbols and their index vectors.

At a level where every V_o vertex has both markers, each such vertex
becomes one directed edge from the component its minimal chain lands in to
the component its maximal chain lands in.  The resulting multigraph on
symbols Y_1..Y_k drives the order synthesis (Euler walks through a vertex's
fiber) and the index vectors d_i feeding the K-theoretic checks: an edge
contributes +1 to the coordinate of the component it leaves and -1 to the
one it enters.
"""

from __future__ import annotations

from ._graph import reach, sccs, undirected
from ._report import FAILS, HOLDS, DiagramError, ValidationReport
from .diagram import OTHER, _mat_vec
from .order import MAX, MIN, _marker_table, marker_level


class TransitionGraph:
    """Directed multigraph on Y_1..Y_k; one labeled edge per V_o vertex."""

    __slots__ = ("k", "level", "edges")

    def __init__(self, k, level, edges):
        self.k = k
        self.level = level
        self.edges = tuple(edges)   # (vertex label, src component, dst)

    def out_degree(self, i):
        return sum(1 for (_, s, _) in self.edges if s == i)

    def to_json(self):
        return {"k": self.k, "level": self.level,
                "edges": [{"label": v, "source": s, "target": t}
                          for (v, s, t) in self.edges]}

    def to_dot(self):
        lines = ["digraph L%d {" % self.level]
        for i in range(1, self.k + 1):
            lines.append('  Y%d;' % i)
        for v, s, t in self.edges:
            lines.append('  Y%d -> Y%d [label="%s"];' % (s, t, v))
        lines.append("}")
        return "\n".join(lines) + "\n"


def transition_graph(d, n):
    """Build the level-n transition graph; markers must resolve there."""
    mt = _marker_table(d)
    edges = []
    for v in d.others(n):
        lo = mt.marker(MIN, n, v)
        hi = mt.marker(MAX, n, v)
        if lo is None or hi is None:
            raise DiagramError(
                "marker chain from %r at level %d lands outside the "
                "components; pick a level at or above the marker level"
                % (v, n))
        edges.append((v, lo, hi))
    return TransitionGraph(d.k, n, edges)


def dvectors(d, n):
    """Index vector of every V_o vertex at level n, keyed by vertex id."""
    tg = transition_graph(d, n)
    out = {}
    for v, s, t in tg.edges:
        vec = [0] * d.k
        vec[s - 1] += 1
        vec[t - 1] -= 1
        out[v] = tuple(vec)
    return out

def dvector_matrix(d, n):
    """Rows aligned with the V_o listing at level n, columns with Y_1..Y_k."""
    vecs = dvectors(d, n)
    return [list(vecs[v]) for v in d.others(n)]


def _unreached(tg):
    """Symbols not joined to Y1 by edges taken either way, sorted."""
    symbols = range(1, tg.k + 1)
    seen = reach(undirected(symbols, [(s, t) for _, s, t in tg.edges]),
                 symbols[:1])
    return sorted(set(symbols) - seen)


def check_structure(tg, non_elementary):
    """Sanity checks a transition graph from a well-formed diagram passes.

    Connectivity treats edges as undirected and must span all k symbols.
    Non-elementary diagrams additionally contribute at least k edges and
    put every edge-sourcing symbol on a closed directed walk; elementary
    ones are exempt from both (a path graph is fine there).
    """
    rep = ValidationReport()
    k = tg.k

    unreached = _unreached(tg)
    if unreached:
        rep.add("connected", FAILS, {"unreached": unreached})
    else:
        rep.add("connected", HOLDS, {"symbols": k})

    if not non_elementary:
        return rep
    if len(tg.edges) >= k:
        rep.add("edge_count", HOLDS, {"edges": len(tg.edges), "k": k})
    else:
        rep.add("edge_count", FAILS, {"edges": len(tg.edges), "k": k})

    # closed-walk membership via strongly connected components; node 0
    # stands for no symbol and stays isolated
    adj = [[] for _ in range(k + 1)]
    for _, s, t in tg.edges:
        adj[s].append(t)
    _, comp = sccs(adj)
    cyclic = {comp[s] for _, s, t in tg.edges if comp[s] == comp[t]}
    stranded = [i for i in range(1, k + 1)
                if tg.out_degree(i) > 0 and comp[i] not in cyclic]
    if stranded:
        rep.add("sourced_on_closed_walks", FAILS, {"stranded": stranded})
    else:
        rep.add("sourced_on_closed_walks", HOLDS, None)
    return rep


def lift_edge_to_path(d, n, w):
    """Read the fiber of w in V_o^{n+1} off as a walk in the level-n graph.

    Dropping the component-sourced edges from the ordered fiber leaves a
    sequence of V_o^n labels; for a diagram that validates, that sequence
    is a walk whose arcs chain marker-compatibly.  Verified here:
    endpoints equal w's own markers, each label's multiplicity equals the
    incidence entry, the walk visits Y_i whenever w has an edge from
    component i, and every traversed label has fiber edges from both of
    its own marker components.  Any miss raises; it means the diagram
    slipped past the validator.
    """
    mt = _marker_table(d)
    if d.label(n + 1, w) != OTHER:
        raise DiagramError("%r is a component vertex, not an edge label" % w)
    lo = mt.marker(MIN, n + 1, w)
    hi = mt.marker(MAX, n + 1, w)
    if lo is None or hi is None:
        raise DiagramError("markers of %r unresolved at level %d" % (w, n + 1))
    fiber = d.fiber(n + 1, w)
    labels = [u for u in fiber if d.label(n, u) == OTHER]
    marks = {}
    for u in dict.fromkeys(labels):
        mm = mt.marker(MIN, n, u)
        mp = mt.marker(MAX, n, u)
        if mm is None or mp is None:
            raise DiagramError(
                "markers of %r unresolved at level %d" % (u, n))
        marks[u] = (mm, mp)

    symbols = [lo]
    for j, u in enumerate(labels):
        mm, mp = marks[u]
        if mm != symbols[-1]:
            raise DiagramError(
                "fiber of %r breaks at position %d: %r starts at Y%d, "
                "walk sits at Y%d" % (w, j, u, mm, symbols[-1]))
        symbols.append(mp)
    if symbols[-1] != hi:
        raise DiagramError(
            "walk for %r ends at Y%d, its own marker is Y%d"
            % (w, symbols[-1], hi))

    row = d.incidence(n)[d.level(n + 1).index[w]]
    lvl = d.level(n)
    for u in d.others(n):
        if labels.count(u) != row[lvl.index[u]]:
            raise DiagramError(
                "label %r appears %d times in the fiber of %r, incidence "
                "says %d" % (u, labels.count(u), w, row[lvl.index[u]]))

    visited = set(symbols)
    for i in range(1, d.k + 1):
        has_edge = any(d.label(n, u) == i for u in fiber)
        if has_edge and i not in visited:
            raise DiagramError(
                "fiber of %r has component-%d edges but its walk never "
                "visits Y%d" % (w, i, i))

    for u in marks:
        mm, mp = marks[u]
        srcs = {d.label(n - 1, x) for x in d.fiber(n, u)}
        if mm not in srcs or mp not in srcs:
            raise DiagramError(
                "label %r lacks a fiber edge from component %d"
                % (u, mm if mm not in srcs else mp))

    return {"edge": w, "level": n, "source": lo, "target": hi,
            "labels": labels, "symbols": symbols}


def other_block(d, n):
    """Incidence between the V_o parts of levels n and n+1."""
    lo = d.level(n)
    hi = d.level(n + 1)
    cols = [lo.index[v] for v in d.others(n)]
    mat = d.incidence(n)
    return [[mat[hi.index[v]][c] for c in cols] for v in d.others(n + 1)]


def index_pushforward(d):
    """Exact one-step transport of the index vectors down the diagram.

    Verifies that the V_o incidence block carries the level-n index matrix
    to the level-(n+1) one, for every level at or above the marker level
    that the presentation (or the stationary period) exhibits.
    """
    L, verdict, wit = marker_level(d)
    rep = ValidationReport()
    if L is None:
        rep.add("index_pushforward", verdict, {"marker_level": wit})
        return rep
    checked = []
    top = _marker_table(d).built if d.stationary else d.depth - 1
    for n in range(L, top + 1):
        if not d.has_level(n + 1):
            break
        g = other_block(d, n)
        dn = dvector_matrix(d, n)
        dn1 = dvector_matrix(d, n + 1)
        # g @ dn, one column of dn at a time
        cols = [_mat_vec(g, [row[j] for row in dn]) for j in range(d.k)]
        pushed = [list(row) for row in zip(*cols)]
        if pushed != dn1:
            rep.add("index_pushforward", FAILS,
                    {"level": n, "pushed": pushed, "expected": dn1})
            return rep
        checked.append(n)
    if not checked:
        rep.add("index_pushforward", verdict, {"marker_level": wit})
        return rep
    rep.add("index_pushforward", HOLDS if d.stationary else verdict,
            {"levels": checked})
    return rep
