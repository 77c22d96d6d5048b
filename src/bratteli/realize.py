"""Order synthesis from prescribed index vectors.

Given an unordered diagram and one index vector per V_o vertex, each level
yields a transition graph; a fiber above reads as an Euler-walk problem on
the graph below, with arc multiplicities taken from the incidence matrix.
The synthesizer lays every fiber out along such a walk: edges from the
vertex's own two components anchor the extremes, edges from any other
component slot in where the walk first reaches their symbol.  The result
realizes exactly the prescribed vectors; a prescription it cannot
realize is rejected with a DiagramError that names the reason.
"""

from __future__ import annotations

from collections import deque

from ._graph import reach, undirected
from ._report import DiagramError
from .diagram import Diagram, Level, OTHER, _read_json
from .transgraph import TransitionGraph, _unreached


class DVectors:
    """Prescribed index vectors: per level, a map V_o vertex -> k-tuple."""

    __slots__ = ("blocks", "stationary", "k")

    def __init__(self, blocks, stationary):
        self.blocks = tuple((n, dict(values)) for (n, values) in blocks)
        self.stationary = stationary
        k = None
        for _, values in self.blocks:
            for vec in values.values():
                if k is None:
                    k = len(vec)
                elif len(vec) != k:
                    raise DiagramError("index vectors of mixed length")
        self.k = k

    @property
    def base(self):
        return self.blocks[0][0]

    def values(self, n):
        """The vector map for level n; a stationary block covers its tail."""
        if self.stationary:
            if n >= self.base:
                return self.blocks[0][1]
            raise DiagramError("no vectors below level %d" % self.base)
        for lvl, values in self.blocks:
            if lvl == n:
                return values
        raise DiagramError("no vectors prescribed for level %d" % n)

    def to_json(self):
        return {"d": [{"level": n,
                       "values": {v: list(vec) for v, vec in values.items()}}
                      for (n, values) in self.blocks],
                "stationary": self.stationary}


def parse_dvectors(doc):
    """Check a parsed vector-prescription document and wrap it."""
    if not isinstance(doc, dict) or not isinstance(doc.get("d"), list):
        raise DiagramError('prescription needs a "d" array')
    stationary = doc.get("stationary")
    if not isinstance(stationary, bool):
        raise DiagramError('"stationary" must be a boolean', "stationary")
    if not doc["d"]:
        raise DiagramError('"d" must not be empty', "d")
    if stationary and len(doc["d"]) != 1:
        raise DiagramError("a stationary prescription has exactly one block",
                           "d")
    blocks = []
    last = None
    for bi, raw in enumerate(doc["d"]):
        loc = "d[%d]" % bi
        if not isinstance(raw, dict) or not isinstance(raw.get("level"), int):
            raise DiagramError('block needs an integer "level"', loc)
        n = raw["level"]
        if n < 2:
            raise DiagramError("vectors live at levels >= 2", loc)
        if last is not None and n != last + 1:
            raise DiagramError("blocks must cover consecutive levels", loc)
        last = n
        values = raw.get("values")
        if not isinstance(values, dict):
            raise DiagramError('block needs a "values" object', loc)
        parsed = {}
        for v, vec in values.items():
            vloc = "%s.values[%r]" % (loc, v)
            # bool is an int subclass; true is not an entry
            if (not isinstance(vec, list)
                    or any(type(x) is not int for x in vec)):
                raise DiagramError("vector must be an integer array", vloc)
            if any(x not in (-1, 0, 1) for x in vec):
                raise DiagramError("vector entry outside {-1, 0, 1}", vloc)
            nonzero = sorted(x for x in vec if x)
            if nonzero and nonzero != [-1, 1]:
                raise DiagramError(
                    "nonzero entries must form one (+1, -1) pair", vloc)
            parsed[v] = tuple(vec)
        blocks.append((n, parsed))
    return DVectors(blocks, stationary)


def load_dvectors(path):
    return parse_dvectors(_read_json(path))


class Multigraph:
    """Directed multigraph on symbols 1..k; parallel arcs by repetition."""

    __slots__ = ("k", "edges")

    def __init__(self, k, edges):
        self.k = k
        self.edges = tuple(edges)
        for s, t in self.edges:
            if not (1 <= s <= k and 1 <= t <= k):
                raise DiagramError("arc (%r, %r) outside symbols 1..%d"
                                   % (s, t, k))

    def deg_out(self, i):
        return sum(1 for (s, _) in self.edges if s == i)

    def deg_in(self, i):
        return sum(1 for (_, t) in self.edges if t == i)

    def deg(self, i):
        return self.deg_out(i) - self.deg_in(i)

    def touched(self):
        return sorted({x for e in self.edges for x in e})


class NoWalk:
    """Verdict object: no Euler walk, and why."""

    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return "NoWalk(%r)" % self.reason


def euler_walk(g, start, end):
    """Walk through every arc exactly once, as a list of arc indices.

    Feasible exactly when the surplus deg+ - deg- is +1 at start, -1 at
    end and 0 elsewhere (all zero when start == end) and the arcs hang
    together with the endpoints.  Otherwise a NoWalk naming the broken
    criterion comes back; infeasibility is a value here, not an error.
    A feasible walk uses every arc; the tests check that, not the walk.
    """
    if not (1 <= start <= g.k and 1 <= end <= g.k):
        raise DiagramError("endpoints must be symbols 1..%d" % g.k)
    want = {} if start == end else {start: 1, end: -1}
    for i in range(1, g.k + 1):
        if g.deg(i) != want.get(i, 0):
            return NoWalk("surplus %+d at Y%d, walk needs %+d"
                          % (g.deg(i), i, want.get(i, 0)))

    nodes = set(g.touched()) | {start, end}
    if reach(undirected(nodes, g.edges), (start,)) != nodes:
        return NoWalk("disconnected")

    # Hierholzer: depth-first arc consumption, lowest arc index first;
    # an arc joins the trail once its continuation is exhausted.
    unused = {i: deque() for i in nodes}
    for idx, (s, _) in enumerate(g.edges):
        unused[s].append(idx)
    stack = [(start, None)]
    trail = []
    while stack:
        node, via = stack[-1]
        if unused[node]:
            idx = unused[node].popleft()
            stack.append((g.edges[idx][1], idx))
        else:
            stack.pop()
            if via is not None:
                trail.append(via)
    trail.reverse()
    return trail


def _component_in_row(d, n, v):
    """First component, by index, adjacent to v from the level below."""
    counts = {}
    for s in d.fiber(n, v):
        counts[s] = counts.get(s, 0) + 1
    for i in range(1, d.k + 1):
        if any(counts.get(u) for u in d.component(n - 1, i)):
            return i
    return None


def graphs_from_dvectors(d, dv):
    """One transition graph per prescribed level.

    A (+1, -1) pair at v becomes the arc from the +1 symbol to the -1
    symbol.  An all-zero vector becomes a loop at the first component
    adjacent to v from below; a vertex with no such neighbor cannot carry
    a loop and is an error.
    """
    if dv.k is not None and dv.k != d.k:
        raise DiagramError("vectors have %d entries, diagram has k = %d"
                           % (dv.k, d.k))
    if dv.stationary:
        if dv.base > d.depth:
            raise DiagramError(
                "stationary prescription starts at level %d, presentation "
                "stops at %d" % (dv.base, d.depth))
        levels = range(dv.base, d.depth + 1)
    else:
        levels = [n for (n, _) in dv.blocks]
    graphs = []
    for n in levels:
        if n > d.depth:
            raise DiagramError("prescription names level %d, presentation "
                               "stops at %d" % (n, d.depth))
        values = dv.values(n)
        others = d.others(n)
        if set(values) != set(others):
            raise DiagramError(
                "level-%d prescription names %s, V_o is %s"
                % (n, sorted(values), sorted(others)))
        edges = []
        for v in others:
            vec = values[v]
            if any(vec):
                edges.append((v, vec.index(1) + 1, vec.index(-1) + 1))
            else:
                i = _component_in_row(d, n, v)
                if i is None:
                    raise DiagramError(
                        "vertex %r at level %d has a zero vector but no "
                        "component neighbor below to host its loop" % (v, n))
                edges.append((v, i, i))
        graphs.append(TransitionGraph(d.k, n, edges))
    return graphs


def _edge_map(g):
    return {v: (s, t) for (v, s, t) in g.edges}


def _walk_problem(d, n, w, arc_graph):
    """Arc multigraph and component anchors for the fiber of w at level n.

    Arcs are the V_o-sourced fiber edges in listing order, each mapped to
    its source's symbols in the graph below; anchors collect the
    component-sourced occurrences per symbol.
    """
    emap = _edge_map(arc_graph)
    vo_sources = []
    anchors = {i: [] for i in range(1, d.k + 1)}
    for u in d.fiber(n, w):
        lab = d.label(n - 1, u)
        if lab == OTHER:
            if u not in emap:
                raise DiagramError(
                    "source %r of the fiber of %r has no arc at level %d"
                    % (u, w, n - 1))
            vo_sources.append(u)
        else:
            anchors[lab].append(u)
    mg = Multigraph(d.k, [emap[u] for u in vo_sources])
    return mg, vo_sources, anchors


def _require_anchors(n, w, lo, hi, anchors, fiber_len):
    if not anchors[lo]:
        raise DiagramError(
            "vertex %r at level %d has no edge from component %d, its own "
            "minimal symbol" % (w, n, lo))
    if not anchors[hi]:
        raise DiagramError(
            "vertex %r at level %d has no edge from component %d, its own "
            "maximal symbol" % (w, n, hi))
    if n == 2 and lo == hi and fiber_len > 1 and len(anchors[lo]) < 2:
        # both extremes must land in the component directly at level 2
        raise DiagramError(
            "vertex %r at level 2 needs two edges from component %d to "
            "anchor both extremes" % (w, lo))


def _assemble_walk_fiber(d, n, w, arc_graph, lo, hi):
    """Fiber order realizing symbols (lo, hi) for w: anchors plus a walk.
    The walk enters every symbol it touches, so each anchor is placed."""
    mg, vo_sources, anchors = _walk_problem(d, n, w, arc_graph)
    _require_anchors(n, w, lo, hi, anchors, len(d.fiber(n, w)))
    want = [0] * d.k
    if lo != hi:
        want[lo - 1], want[hi - 1] = 1, -1
    for i in range(1, d.k + 1):
        if mg.deg(i) != want[i - 1]:
            raise DiagramError(
                "fiber of %r at level %d drops surplus %+d on Y%d, its "
                "vector prescribes %+d" % (w, n, mg.deg(i), i, want[i - 1]))
    walk = euler_walk(mg, lo, hi)
    if isinstance(walk, NoWalk):
        raise DiagramError("no walk through the fiber of %r at level %d: %s"
                           % (w, n, walk.reason))
    visited = set(mg.touched()) | {lo, hi}
    for i in range(1, d.k + 1):
        if anchors[i] and i not in visited:
            raise DiagramError(
                "component-%d edges into %r cannot slot into a walk that "
                "never reaches Y%d" % (i, w, i))
    if lo != hi:
        front, back = list(anchors[lo]), list(anchors[hi])
    else:
        front, back = list(anchors[lo][:1]), list(anchors[lo][1:])
    pending = {i: anchors[i] for i in range(1, d.k + 1)
               if anchors[i] and i not in (lo, hi)}
    middle = []
    for idx in walk:
        middle.append(vo_sources[idx])
        tgt = mg.edges[idx][1]
        if tgt in pending:
            middle.extend(pending.pop(tgt))
    return front + middle + back


def _assemble_flat_fiber(d, n, w, lo, hi):
    """Level-2 fiber: component anchors at the extremes, the rest verbatim."""
    fiber = list(d.fiber(n, w))
    anchors = {i: [] for i in range(1, d.k + 1)}
    for u in fiber:
        lab = d.label(n - 1, u)
        if lab != OTHER:
            anchors[lab].append(u)
    _require_anchors(n, w, lo, hi, anchors, len(fiber))
    if len(fiber) == 1:
        return fiber
    first = next(i for i, u in enumerate(fiber)
                 if d.label(n - 1, u) == lo)
    front = fiber.pop(first)
    last = max(i for i, u in enumerate(fiber)
               if d.label(n - 1, u) == hi)
    back = fiber.pop(last)
    return [front] + fiber + [back]


def _assemble_component_fiber(d, n, x, i):
    """Chain edges extreme, everything else in listing order.

    The chain runs through the first and last component vertex, so those
    two sources take the extreme slots whenever the fiber offers them;
    otherwise the lowest (highest) listed source stands in, dodging a
    self-edge when it can so no stray chain gets pinned at x.
    """
    fiber = list(d.fiber(n, x))
    below = d.level(n - 1)
    comp = d.component(n - 1, i)
    here = d.component(n, i)
    zmin, zmax = comp[0], comp[-1]
    for u in fiber:
        if d.label(n - 1, u) != i:
            raise DiagramError(
                "edge %r -> %r crosses into component %d" % (u, x, i))
    if x == here[0] and zmin not in fiber:
        raise DiagramError(
            "chain vertex %r at level %d has no edge from %r, the chain "
            "vertex below" % (x, n, zmin))
    if x == here[-1] and zmax not in fiber:
        raise DiagramError(
            "chain vertex %r at level %d has no edge from %r, the chain "
            "vertex below" % (x, n, zmax))
    if len(fiber) == 1:
        return fiber

    def pick(pool, target, key):
        if target in pool:
            return target
        away = [u for u in set(pool) if u != x]
        return key(away or set(pool), key=below.index.__getitem__)

    front = pick(fiber, zmin, min)
    fiber.remove(front)
    back = pick(fiber, zmax, max)
    fiber.reverse()
    fiber.remove(back)
    fiber.reverse()
    return [front] + fiber + [back]


def synthesize_order(d, dv):
    """Reorder every fiber so the diagram realizes the prescribed vectors.

    Component fibers anchor the extreme chains at the first and last
    component vertex; V_o fibers at level 2 anchor their markers directly;
    deeper V_o fibers follow an Euler walk of the previous level's graph.
    A stationary two-level presentation orders its block by the walk rule
    against itself, since that block repeats at every deeper level.
    """
    graphs = graphs_from_dvectors(d, dv)
    gmap = {g.level: g for g in graphs}
    for n in range(2, d.depth + 1):
        if n not in gmap:
            raise DiagramError("prescription must cover levels 2..%d, "
                               "level %d is missing" % (d.depth, n))
    for g in graphs:
        cut = _unreached(g)
        if cut:
            raise DiagramError(
                "level-%d vectors admit a non-constant vanishing "
                "combination: symbols %s are cut off" % (g.level, cut))

    new_levels = [d.level(1)]
    for n in range(2, d.depth + 1):
        lev = d.level(n)
        if n >= 3:
            arc_graph = gmap[n - 1]
        elif d.stationary and d.depth == 2:
            arc_graph = gmap[2]     # the block repeats, so it feeds itself
        else:
            arc_graph = None
        fibers = {}
        for x in lev.ids:
            lab = lev.labels[x]
            if lab != OTHER:
                fibers[x] = _assemble_component_fiber(d, n, x, lab)
                continue
            lo, hi = _edge_map(gmap[n])[x]
            if arc_graph is None:
                fibers[x] = _assemble_flat_fiber(d, n, x, lo, hi)
            else:
                fibers[x] = _assemble_walk_fiber(d, n, x, arc_graph, lo, hi)
        fibers = {x: tuple(fiber) for x, fiber in fibers.items()}
        edges = [(s, r) for r in lev.ids for s in fibers[r]]
        new_levels.append(Level(lev.ids, lev.labels, edges, fibers))
    return Diagram(new_levels, d.k, d.stationary)
