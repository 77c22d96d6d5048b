"""Chain dynamics of the successor map at a fixed cylinder resolution.

Depth-N truncations of infinite paths index a clopen partition of the
path space into cylinders of diameter at most 2^-N.  Drawing an edge
from cylinder p to cylinder q whenever some point of p steps into q
turns questions about epsilon-chains (with epsilon = 2^-N) into plain
graph reachability, and everything here is built on that translation.

The cylinders over a level-N vertex form its Kakutani-Rokhlin tower,
and inside a tower the successor just climbs one floor.  So the step
relation is kept as a quotient with one node per tower, weighted by
its height: only the tower tops get a ``vershik_step``, and each of
them lands on ground floors.  Verdicts, node counts and saturation
sizes are read off the towers.  Epsilon-chains, pseudo-orbits and
covering sweeps walk the floors as integers, numbered towers first and
bottom up; a floor's out-list comes from its tower when it is asked
for, and only the cylinders a query prints are turned back into paths.
The one graph with a node per cylinder is the ``--format dot`` drawing.

A tower top's step is exact: its maximal continuations are walked
forward, keyed on each level's representative in the stationary tail,
until every one breaks or stays maximal forever.  Where that cannot
settle a top (the extreme chains fail, or a continuation off the trunks
reaches the end of a finite presentation) its edges are withheld rather
than guessed; such nodes are flagged and verdicts that would rely on
them degrade to Unknown.

Every query takes the tower graph ``tower_graph(d, N)`` and reads the
diagram and the resolution off it, so one graph serves any number of
queries at one depth.
"""

from __future__ import annotations

from bisect import bisect_right

from ._graph import reach, reverse, sccs, shortest_path
from ._report import FAILS, HOLDS, UNKNOWN, DiagramError
from .diagram import OTHER, ROOT
from .order import MAX, Path, enumerate_paths, extreme_path, path_text
from .vershik import vershik_step


class TowerGraph:
    """Step relation between the level-N towers and between their floors.

    Tower t stands over ``vertices[t]``, the level-N vertices in listing
    order, and has ``heights[t]`` floors, the depth-N cylinders into that
    vertex in lex order.  Floors are numbered towers first, bottom up:
    tower t holds floors ``ground[t]`` to ``ground[t + 1] - 1``.  Every
    floor but the top steps to the floor above it, so only the top
    carries edges: ``out[t]`` lists the towers whose ground floors its
    step reaches.  A flagged tower's top has unresolved continuations and
    its out-edges are withheld.

    ``g[v]`` is floor v's out-list, so the graph is an adjacency that
    ``_graph.shortest_path`` walks, and ``into(v)`` is its in-list.
    ``rank`` and ``path`` turn a cylinder into its floor and back through
    ``counts``, the number of paths into each vertex of levels 0 to N.
    """

    __slots__ = ("diagram", "depth", "vertices", "counts", "heights",
                 "ground", "size", "out", "rev", "flagged")

    def __init__(self, diagram, depth, out, flagged):
        self.diagram = diagram
        self.depth = depth
        self.vertices = tuple(diagram.vertices(depth))
        self.counts = [{ROOT: 1}]
        for n in range(1, depth + 1):
            lev, below = diagram.level(n), self.counts[-1]
            self.counts.append({v: sum(below[s] for s in lev.fibers[v])
                                for v in lev.ids})
        self.heights = tuple(self.counts[depth][v] for v in self.vertices)
        self.ground = [0]
        for h in self.heights:
            self.ground.append(self.ground[-1] + h)
        self.size = self.ground[-1]
        self.out = tuple(tuple(sorted(t)) for t in out)
        self.rev = reverse(self.out)
        self.flagged = frozenset(flagged)

    def __getitem__(self, v):
        """Floor v's out-list: the floor above it, and from a top the
        ground floors of the towers its step reaches."""
        t = bisect_right(self.ground, v) - 1
        if v + 1 < self.ground[t + 1]:
            return (v + 1,)
        return tuple(self.ground[u] for u in self.out[t])

    def into(self, v):
        """Floor v's in-list: the floor below it, and into a ground floor
        the tops of the towers whose steps reach it."""
        t = bisect_right(self.ground, v) - 1
        if v > self.ground[t]:
            return (v - 1,)
        return tuple(self.ground[u + 1] - 1 for u in self.rev[t])

    def rank(self, p, name):
        """The floor of cylinder p; ``name`` says what p is in errors.

        Each edge of p, from the top level down, passes over the paths
        into the sources of the edges listed before it in its fiber.
        """
        if p.depth != self.depth:
            raise DiagramError("%s has depth %d, graph was built at depth %d"
                               % (name, p.depth, self.depth))
        verts = (ROOT,) + p.verts
        floor = None
        if p.end in self.vertices:
            floor = self.ground[self.vertices.index(p.end)]
            for n in range(self.depth, 0, -1):
                fib = self.diagram.fiber(n, verts[n])
                r = p.ranks[n - 1]
                if not (0 <= r < len(fib) and fib[r] == verts[n - 1]):
                    floor = None
                    break
                floor += sum(self.counts[n - 1][s] for s in fib[:r])
        if floor is None:
            raise DiagramError("%s is not a path of this diagram" % (name,))
        return floor

    def path(self, v):
        """The cylinder on floor v, its edges chosen from the top down."""
        t = bisect_right(self.ground, v) - 1
        j = v - self.ground[t]
        verts, ranks = [self.vertices[t]], []
        for n in range(self.depth, 0, -1):
            below = self.counts[n - 1]
            for r, s in enumerate(self.diagram.fiber(n, verts[-1])):
                if j < below[s]:
                    break
                j -= below[s]
            verts.append(s)
            ranks.append(r)
        return Path(verts[-2::-1], ranks[::-1])

    def paths(self, floors, text=False):
        """The cylinders (``path_text`` if ``text``) on a sequence of
        floors: a ``path`` and a walk up each run of one tower's floors."""
        walk = nxt = end = None
        for v in floors:
            if v != nxt or v == end:
                end = self.ground[bisect_right(self.ground, v)]
                p = self.path(v)
                walk = enumerate_paths(self.diagram, p.end, self.depth,
                                       start=p, text=text)
            nxt = v + 1
            yield next(walk)

    def expand(self):
        """The CylinderGraph drawing this quotient, one node per floor."""
        nodes = list(self.paths(range(self.size)))
        out = [self[v] for v in range(self.size)]
        flagged = [self.ground[t + 1] - 1 for t in self.flagged]
        return CylinderGraph(self.depth, nodes, out, flagged)


class CylinderGraph:
    """Step relation between the depth-N cylinders, as ``--format dot``
    draws it.

    Nodes are all depth-N paths, numbered as the tower graph numbers its
    floors.  A node whose deepest edge is not fiber-maximal has exactly
    one out-edge, to its successor; tower tops get the forward windows of
    their exact step.  Flagged nodes are tops with unresolved
    continuations: their out-edges are withheld, and they are drawn
    dashed.
    """

    __slots__ = ("depth", "nodes", "out", "flagged")

    def __init__(self, depth, nodes, out, flagged):
        self.depth = depth
        self.nodes = tuple(nodes)
        self.out = tuple(tuple(sorted(t)) for t in out)
        self.flagged = frozenset(flagged)

    def __len__(self):
        return len(self.nodes)

    def to_dot(self):
        lines = ["digraph cylinders {", "  rankdir=LR;"]
        for i, p in enumerate(self.nodes):
            style = ", style=dashed" if i in self.flagged else ""
            lines.append('  n%d [label="%s"%s];' % (i, path_text(p), style))
        for v, outs in enumerate(self.out):
            for w in outs:
                lines.append("  n%d -> n%d;" % (v, w))
        lines.append("}")
        return "\n".join(lines) + "\n"


def tower_graph(d, depth):
    """Build the step relation between the level-N towers.

    One ``vershik_step`` per tower top; its targets are minimal windows,
    the ground floors of their towers.  The step is exact, so nothing is
    checked after it: an unflagged top always keeps a break or a wrap,
    hence a target, and when nothing is flagged every ground floor is
    some top's target.
    """
    if depth < 1:
        raise DiagramError("cylinder resolution needs depth at least 1")
    vertices = d.vertices(depth)
    index = {v: t for t, v in enumerate(vertices)}
    out = []
    flagged = []
    for t, v in enumerate(vertices):
        img = vershik_step(d, extreme_path(d, v, depth, MAX))
        if img.unresolved:
            flagged.append(t)
        out.append([] if img.unresolved
                   else [index[q.end] for q in img.targets])
    return TowerGraph(d, depth, out, flagged)


def cylinder_graph(d, depth):
    """The step relation between depth-N cylinders, expanded from the
    tower graph for ``--format dot``."""
    return tower_graph(d, depth).expand()


def _decide(g):
    """Verdict of a tower graph, and for a Fails the closed cut as (its
    towers in listing order, whether it is only the top floor of its one
    tower).

    The closed classes of the cylinder relation come from the closed
    strongly connected sets of towers: one that holds a cycle closes
    every floor of its towers, and a tower with no out-edge at all
    closes only its top floor.
    """
    comps, comp = sccs(g.out)
    terminal = [True] * len(comps)
    for v, outs in enumerate(g.out):
        for w in outs:
            if comp[w] != comp[v]:
                terminal[comp[v]] = False
    cuts = []
    for c, members in enumerate(comps):
        if not terminal[c] or g.flagged.intersection(members):
            continue
        towers = sorted(members)
        top_only = len(towers) == 1 and not g.out[towers[0]]
        size = 1 if top_only else sum(g.heights[t] for t in towers)
        if size < g.size:
            cuts.append((towers, top_only))
    cut = None
    if cuts:
        # towers are consecutive floor ranges, so the cut with the first
        # tower holds the first floor
        verdict = FAILS
        cut = min(cuts, key=lambda c: c[0][0])
    elif g.flagged:
        verdict = UNKNOWN
    else:
        verdict = HOLDS
    return verdict, cut


def chain_transitive(g):
    """Whether every cylinder chains to every other at the resolution
    2^-N of tower graph g.

    Fails comes with a proper nonempty set of cylinders that no chain
    escapes, listed towers in listing order and floors bottom up; Holds
    means the step relation is strongly connected.
    """
    verdict, cut = _decide(g)
    if verdict == FAILS:
        towers, top_only = cut
        floors = ((g.ground[towers[0] + 1] - 1,) if top_only else
                  (v for t in towers for v in range(g.ground[t],
                                                    g.ground[t + 1])))
        cut = tuple(g.paths(floors, text=True))
        return verdict, {"cut_size": len(cut), "cut": cut}
    if verdict == UNKNOWN:
        return verdict, {"unresolved": len(g.flagged),
                         "checked_to": g.diagram.depth,
                         "reason": _flag_reason(g)[0]}
    return verdict, {"nodes": g.size, "resolution": g.depth}


def _flag_reason(g):
    """Why a tower graph has flagged tops, as witnesses and errors say it."""
    if g.diagram.stationary:
        # a continuation maximal forever has no z_{i,min} to wrap to
        return "extreme_chains", "extreme chains fail"
    return ("presentation_end",
            "presentation checked to level %d" % g.diagram.depth)


def epsilon_chain(g, p, q, text=False):
    """Shortest chain of cylinders from p to q, both of g's depth.

    Consecutive entries x, y satisfy d(step(x), y) < 2^-N pointwise, so
    the returned list is an epsilon-chain of the dynamics.  Equal ends
    give the one-element chain.  ``text`` lists them as ``path_text``.
    """
    src = g.rank(p, "chain source")
    dst = g.rank(q, "chain target")
    chain = shortest_path(g, (src,), dst)
    if chain is not None:
        return list(g.paths(chain, text))
    extra = ("" if not g.flagged else " (%d cylinders unresolved, %s)"
             % (len(g.flagged), _flag_reason(g)[1]))
    raise DiagramError("no chain from %s to %s at resolution 2^-%d%s"
                       % (path_text(p), path_text(q), g.depth, extra))


def _inside(g, p):
    """Component i when every vertex of p lies in V_i, else 0."""
    classes = {g.diagram.label(lvl, v)
               for lvl, v in enumerate(p.verts, start=1)}
    return classes.pop() if len(classes) == 1 else OTHER


def _class_floors(g):
    """Per class i, each tower's highest floor inside V_i (counted from
    its ground floor), or -1.

    One pass up the levels records, per vertex, the class whose paths
    reach it without leaving that class (the root belongs to every
    class).  The highest such floor is the lex-largest such path, found
    greedily from the top edge down; its floor index sums the path
    counts below the edges it passes over.
    """
    d, depth = g.diagram, g.depth
    inside = [{ROOT: None}]
    for n in range(1, depth + 1):
        lev, ins = d.level(n), inside[-1]
        reached = {}
        for v in lev.ids:
            lab = lev.labels[v]
            kept = lab != OTHER and any(ins[s] in (lab, None)
                                        for s in lev.fibers[v])
            reached[v] = lab if kept else OTHER
        inside.append(reached)
    tops = {i: [-1] * len(g.vertices) for i in range(1, d.k + 1)}
    for t, v in enumerate(g.vertices):
        i = inside[depth][v]
        if i == OTHER:
            continue
        floor, cur = 0, v
        for n in range(depth, 0, -1):
            fib = d.fiber(n, cur)
            r = max(r for r, s in enumerate(fib) if inside[n - 1][s]
                    in (i, None))
            floor += sum(g.counts[n - 1][s] for s in fib[:r])
            cur = fib[r]
        tops[i][t] = floor
    for i, top in tops.items():
        if all(f < 0 for f in top):
            raise DiagramError("no cylinder sits inside component %d at "
                               "depth %d" % (i, depth))
    return tops


def _saturation(g):
    """Per class i and tower, how many floors chain into V_i.

    A floor reaches the floors above it and whatever its tower's top
    reaches; a top reaches every floor of the towers its step leads to.
    So a tower counts whole when some tower its top steps to reaches a
    tower with a floor inside V_i, and otherwise up to its own highest
    such floor.  Chain transitivity makes every count full; the converse
    fails, since a closed cut holding cylinders of every class leaves the
    counts full under a Fails.
    """
    sat = {}
    for i, top in _class_floors(g).items():
        hit = reach(g.rev, [t for t, f in enumerate(top) if f >= 0])
        sat[i] = [h if any(u in hit for u in outs) else f + 1
                  for h, outs, f in zip(g.heights, g.out, top)]
    return sat


def saturation_sizes(g):
    """How many cylinders chain into each minimal class, without
    listing them: {i: count}."""
    return {i: sum(c) for i, c in _saturation(g).items()}


def saturation_sets(g):
    """Cylinders from which each minimal class is chain-reachable.

    Returns {i: frozenset of paths that reach some cylinder inside
    component i}.  The reaching floors of a tower are its lowest ones,
    so each set is listed from the per-tower counts.
    """
    return {i: frozenset(g.paths(v for t, c in enumerate(counts)
                                 for v in range(g.ground[t], g.ground[t] + c)))
            for i, counts in _saturation(g).items()}


class Diverges:
    """Sweep that stalled short of covering every cylinder."""

    __slots__ = ("steps", "uncovered")

    def __init__(self, steps, uncovered):
        self.steps = steps
        self.uncovered = tuple(uncovered)

    def __repr__(self):
        return "Diverges(steps=%d, uncovered=%d)" % (self.steps,
                                                     len(self.uncovered))


def cover_steps(g, cylinders, direction="forward"):
    """Least K with the first K step images of the given cylinders, all
    of g's depth, covering everything, or Diverges when the sweep stalls.

    The set must meet every minimal class: a component none of whose
    cylinders are included can never be swept out, so that input is
    rejected outright.  Backward sweeps follow the step relation
    transposed.
    """
    cyls = list(cylinders)
    if not cyls:
        raise DiagramError("covering set is empty")
    if direction not in ("forward", "backward"):
        raise DiagramError("direction must be forward or backward")
    if g.flagged:
        raise DiagramError("%d cylinders unresolved (%s); sweep counts "
                           "would be unreliable"
                           % (len(g.flagged), _flag_reason(g)[1]))
    start = {g.rank(p, "covering cylinder") for p in cyls}
    met = {_inside(g, p) for p in cyls}
    for i in sorted(_class_floors(g)):
        if i not in met:
            raise DiagramError("covering set misses every cylinder of "
                               "component %d" % i)
    step = g.__getitem__ if direction == "forward" else g.into
    covered = set(start)
    frontier = start
    steps = 0
    while len(covered) < g.size:
        nxt = {w for v in frontier for w in step(v)} - covered
        if not nxt:
            left = sorted(set(range(g.size)) - covered)
            return Diverges(steps, g.paths(left, text=True))
        covered |= nxt
        frontier = nxt
        steps += 1
    return steps


def pseudo_orbit(g, p, text=False):
    """Shortest closed chain of cylinders through p.

    Only meaningful on chain transitive systems, so anything less than
    a Holds verdict at this resolution is rejected.  ``text`` lists the
    cylinders as ``path_text``.
    """
    verdict, _ = _decide(g)
    if verdict != HOLDS:
        raise DiagramError("pseudo-orbits need chain transitivity at this "
                           "resolution, got %s" % verdict)
    src = g.rank(p, "orbit base")
    chain = shortest_path(g, g[src], src)
    if chain is not None:
        return list(g.paths([src] + chain, text))
    raise DiagramError("no closed chain through %s" % path_text(p))
