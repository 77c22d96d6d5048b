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
sizes are read off the quotient; cylinders are listed only where the
output names them.

A tower top's step is exact: its maximal continuations are walked
forward, keyed on each level's representative in the stationary tail,
until every one breaks or stays maximal forever.  Where that cannot
settle a top (the extreme chains fail, or a continuation off the trunks
reaches the end of a finite presentation) its edges are withheld rather
than guessed; such nodes are flagged and verdicts that would rely on
them degrade to Unknown.
"""

from __future__ import annotations

from ._graph import reach, reverse, sccs, shortest_path
from ._report import FAILS, HOLDS, UNKNOWN, DiagramError
from .diagram import OTHER, ROOT
from .order import MAX, MIN, enumerate_paths, extreme_path
from .vershik import vershik_step


def path_text(p):
    """Render a path as pipe-joined edges, ranks counted from one."""
    bits = []
    src = "root"
    for lvl, (v, r) in enumerate(zip(p.verts, p.ranks), start=1):
        bits.append("%d:%s->%s#%d" % (lvl, src, v, r + 1))
        src = v
    return "|".join(bits)


class TowerGraph:
    """Step relation between the level-N towers.

    Tower t stands over ``vertices[t]`` and has ``heights[t]`` floors,
    the depth-N cylinders into that vertex in lex order.  Every floor
    but the top steps to the floor above it, so only the top carries
    edges: ``out[t]`` lists the towers whose ground floors its step
    reaches.  A flagged tower's top has unresolved continuations and
    its out-edges are withheld.
    """

    __slots__ = ("diagram", "depth", "vertices", "heights", "out",
                 "flagged", "size")

    def __init__(self, diagram, depth, vertices, heights, out, flagged):
        self.diagram = diagram
        self.depth = depth
        self.vertices = tuple(vertices)
        self.heights = tuple(heights)
        self.out = tuple(tuple(sorted(t)) for t in out)
        self.flagged = frozenset(flagged)
        self.size = sum(self.heights)

    def floors(self, t):
        """The cylinders of tower t, ground floor first."""
        return enumerate_paths(self.diagram, self.vertices[t], self.depth)

    def expand(self):
        """The CylinderGraph this quotient stands for.

        Floor j of a tower steps to floor j+1 and the top to the ground
        floors of the towers its step reaches, so no step is computed
        per node.
        """
        nodes = []
        ground = []
        for t in range(len(self.vertices)):
            ground.append(len(nodes))
            nodes.extend(self.floors(t))
        out = []
        flagged = []
        for t, outs in enumerate(self.out):
            top = ground[t] + self.heights[t] - 1
            out.extend((j + 1,) for j in range(ground[t], top))
            out.append(tuple(ground[u] for u in outs))
            if t in self.flagged:
                flagged.append(top)
        return CylinderGraph(self.depth, nodes, out, flagged)


class CylinderGraph:
    """Step relation between the depth-N cylinders.

    Nodes are all depth-N paths, towers in vertex listing order and
    floors bottom up.  A node whose deepest edge is not fiber-maximal
    has exactly one out-edge, to its successor; tower tops get the
    forward windows of their exact step.  Flagged node indices mark
    cylinders with unresolved continuations: their out-edges are
    withheld entirely, so the graph under-approximates the dynamics
    there and never invents a step.

    The analysis treats it as a tower graph whose towers all have
    height 1, so hand-built relations go through the same routine.
    """

    __slots__ = ("depth", "nodes", "index", "out", "flagged")

    def __init__(self, depth, nodes, out, flagged):
        self.depth = depth
        self.nodes = tuple(nodes)
        self.index = {p: i for i, p in enumerate(self.nodes)}
        self.out = tuple(tuple(sorted(t)) for t in out)
        self.flagged = frozenset(flagged)

    def __len__(self):
        return len(self.nodes)

    @property
    def size(self):
        return len(self.nodes)

    @property
    def heights(self):
        return (1,) * len(self.nodes)

    def floors(self, t):
        return (self.nodes[t],)

    def reverse(self):
        """In-edge lists, aligned with the node indexing."""
        return reverse(self.out)

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

    One ``vershik_step`` per tower top.  Every top keeps at least one
    target unless flagged, and when nothing is flagged every ground
    floor must be some top's target; a miss then means the order itself
    is defective.
    """
    if depth < 1:
        raise DiagramError("cylinder resolution needs depth at least 1")
    vertices = d.vertices(depth)
    index = {v: t for t, v in enumerate(vertices)}
    out = []
    flagged = []
    for t, v in enumerate(vertices):
        top = extreme_path(d, v, depth, MAX)
        img = vershik_step(d, top)
        if img.unresolved:
            flagged.append(t)
            out.append(())
            continue
        if not img.targets:
            raise DiagramError("no forward step out of %s" % path_text(top))
        for q in img.targets:
            if any(q.ranks):
                raise RuntimeError("step target %s is not a ground floor"
                                   % path_text(q))
        out.append([index[q.end] for q in img.targets])
    if not flagged:
        hit = {u for outs in out for u in outs}
        for t, v in enumerate(vertices):
            if t not in hit:
                ground = extreme_path(d, v, depth, MIN)
                raise DiagramError("cylinder %s has no predecessor"
                                   % path_text(ground))
    return TowerGraph(d, depth, vertices, d.path_counts(depth), out,
                      flagged)


def cylinder_graph(d, depth):
    """The step relation between depth-N cylinders, expanded from the
    tower graph."""
    return tower_graph(d, depth).expand()


def _decide(g):
    """Verdict of a tower or cylinder graph, and for a Fails the closed
    cut as (its towers in listing order, whether it is only the top
    floor of its one tower).

    The closed classes of the cylinder relation come from the closed
    strongly connected sets of towers: one that holds a cycle closes
    every floor of its towers, and a tower with no out-edge at all
    closes only its top floor.
    """
    n = g.size
    heights = g.heights
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
        size = 1 if top_only else sum(heights[t] for t in towers)
        if size < n:
            cuts.append((towers, top_only))
    cut = None
    if cuts:
        # towers are consecutive node ranges, so the cut with the first
        # tower holds the first node
        verdict = FAILS
        cut = min(cuts, key=lambda c: c[0][0])
    elif g.flagged:
        verdict = UNKNOWN
    else:
        verdict = HOLDS
    return verdict, cut


def _analyze(d, g):
    """Chain transitivity verdict and witness; only a Fails cut is
    listed as paths, towers in listing order and floors bottom up."""
    verdict, cut = _decide(g)
    if verdict == FAILS:
        towers, top_only = cut
        if top_only:
            *_, top = g.floors(towers[0])
            paths = [top]
        else:
            paths = [p for t in towers for p in g.floors(t)]
        return verdict, {"cut_size": len(paths),
                         "cut": tuple(path_text(p) for p in paths)}
    if verdict == UNKNOWN:
        return verdict, {"unresolved": len(g.flagged),
                         "checked_to": d.depth}
    return verdict, {"nodes": g.size, "resolution": g.depth}


def chain_transitive(d, depth, graph=None):
    """Whether every cylinder chains to every other at resolution 2^-N.

    Fails comes with a proper nonempty set of cylinders that no chain
    escapes; Holds means the step relation is strongly connected.
    """
    g = graph if graph is not None else tower_graph(d, depth)
    return _analyze(d, g)


def _locate(g, p, name):
    if p.depth != g.depth:
        raise DiagramError("%s has depth %d, graph was built at depth %d"
                           % (name, p.depth, g.depth))
    try:
        return g.index[p]
    except KeyError:
        raise DiagramError("%s is not a path of this diagram" % (name,))


def epsilon_chain(d, p, q, graph=None):
    """Shortest chain of cylinders from p to q, both of one depth.

    Consecutive entries x, y satisfy d(step(x), y) < 2^-N pointwise, so
    the returned list is an epsilon-chain of the dynamics.  Equal ends
    give the one-element chain.
    """
    if p.depth != q.depth:
        raise DiagramError("chain endpoints must share a depth")
    g = graph if graph is not None else cylinder_graph(d, p.depth)
    src = _locate(g, p, "chain source")
    dst = _locate(g, q, "chain target")
    chain = shortest_path(g.out, (src,), dst)
    if chain is not None:
        return [g.nodes[v] for v in chain]
    extra = ("" if not g.flagged
             else " (%d cylinders unresolved, presentation checked to "
             "level %d)" % (len(g.flagged), d.depth))
    raise DiagramError("no chain from %s to %s at resolution 2^-%d%s"
                       % (path_text(p), path_text(q), g.depth, extra))


def _inside(d, p):
    """Component i when every vertex of p lies in V_i, else 0."""
    classes = {d.label(lvl, v) for lvl, v in enumerate(p.verts, start=1)}
    return classes.pop() if len(classes) == 1 else OTHER


def _highest_floors(d, depth, vertices):
    """Per class i, the index of each tower's highest floor inside V_i.

    One pass up the levels records path counts and, per vertex, the
    class whose paths reach it without leaving that class (the root
    belongs to every class).  The highest such floor is the lex-largest
    such path, found greedily from the top edge down; its floor index
    sums the counts below the edges it passes over.
    """
    counts = [{ROOT: 1}]
    inside = [{ROOT: None}]
    for n in range(1, depth + 1):
        lev = d.level(n)
        below, ins = counts[-1], inside[-1]
        counts.append({v: sum(below[s] for s in lev.fibers[v])
                       for v in lev.ids})
        reached = {}
        for v in lev.ids:
            lab = lev.labels[v]
            kept = lab != OTHER and any(ins[s] in (lab, None)
                                        for s in lev.fibers[v])
            reached[v] = lab if kept else OTHER
        inside.append(reached)
    tops = {i: [-1] * len(vertices) for i in range(1, d.k + 1)}
    for t, v in enumerate(vertices):
        i = inside[depth][v]
        if i == OTHER:
            continue
        floor, cur = 0, v
        for n in range(depth, 0, -1):
            fib = d.fiber(n, cur)
            r = max(r for r, s in enumerate(fib) if inside[n - 1][s]
                    in (i, None))
            floor += sum(counts[n - 1][s] for s in fib[:r])
            cur = fib[r]
        tops[i][t] = floor
    return tops


def _class_floors(d, g):
    """Per class i, each tower's highest floor inside V_i, or -1."""
    if isinstance(g, TowerGraph):
        tops = _highest_floors(d, g.depth, g.vertices)
    else:
        tops = {i: [-1] * len(g.nodes) for i in range(1, d.k + 1)}
        for t, p in enumerate(g.nodes):
            i = _inside(d, p)
            if i != OTHER:
                tops[i][t] = 0
    for i, top in tops.items():
        if all(f < 0 for f in top):
            raise DiagramError("no cylinder sits inside component %d at "
                               "depth %d" % (i, g.depth))
    return tops


def _saturation(d, g):
    """Per class i and tower, how many floors chain into V_i.

    A floor reaches the floors above it and whatever its tower's top
    reaches; a top reaches every floor of the towers its step leads to.
    So a tower counts whole when some tower its top steps to reaches a
    tower with a floor inside V_i, and otherwise up to its own highest
    such floor.  Chain transitivity makes every count full; the converse
    fails, since a closed cut holding cylinders of every class leaves the
    counts full under a Fails.
    """
    rev = reverse(g.out)
    sat = {}
    for i, top in _class_floors(d, g).items():
        hit = reach(rev, [t for t, f in enumerate(top) if f >= 0])
        sat[i] = [h if any(u in hit for u in outs) else f + 1
                  for h, outs, f in zip(g.heights, g.out, top)]
    return sat


def saturation_sizes(d, depth, graph=None):
    """How many cylinders chain into each minimal class, without
    listing them: {i: count}."""
    g = graph if graph is not None else tower_graph(d, depth)
    return {i: sum(c) for i, c in _saturation(d, g).items()}


def saturation_sets(d, depth, graph=None):
    """Cylinders from which each minimal class is chain-reachable.

    Returns {i: frozenset of paths that reach some cylinder inside
    component i}.  The reaching floors of a tower are its lowest ones,
    so each set is listed from the per-tower counts.
    """
    g = graph if graph is not None else tower_graph(d, depth)
    return {i: frozenset(p for t, c in enumerate(counts) if c
                         for _, p in zip(range(c), g.floors(t)))
            for i, counts in _saturation(d, g).items()}


class Diverges:
    """Sweep that stalled short of covering every cylinder."""

    __slots__ = ("steps", "uncovered")

    def __init__(self, steps, uncovered):
        self.steps = steps
        self.uncovered = tuple(uncovered)

    def __repr__(self):
        return "Diverges(steps=%d, uncovered=%d)" % (self.steps,
                                                     len(self.uncovered))


def cover_steps(d, cylinders, direction="forward", graph=None):
    """Least K with the first K step images of the given cylinders
    covering everything, or Diverges when the sweep stalls.

    The set must meet every minimal class: a component none of whose
    cylinders are included can never be swept out, so that input is
    rejected outright.  Backward sweeps use the inverse step.
    """
    cyls = list(cylinders)
    if not cyls:
        raise DiagramError("covering set is empty")
    depth = cyls[0].depth
    if any(p.depth != depth for p in cyls):
        raise DiagramError("covering set mixes depths")
    if direction not in ("forward", "backward"):
        raise DiagramError("direction must be forward or backward")
    tg = graph if graph is not None else tower_graph(d, depth)
    if tg.flagged:
        raise DiagramError("%d cylinders unresolved (presentation checked "
                           "to level %d); sweep counts would be unreliable"
                           % (len(tg.flagged), d.depth))
    g = tg.expand() if isinstance(tg, TowerGraph) else tg
    start = {_locate(g, p, "covering cylinder") for p in cyls}
    met = {_inside(d, g.nodes[v]) for v in start}
    for i in sorted(_class_floors(d, tg)):
        if i not in met:
            raise DiagramError("covering set misses every cylinder of "
                               "component %d" % i)
    adj = g.out if direction == "forward" else g.reverse()
    covered = set(start)
    frontier = start
    steps = 0
    while len(covered) < len(g.nodes):
        nxt = {w for v in frontier for w in adj[v]} - covered
        if not nxt:
            left = sorted(set(range(len(g.nodes))) - covered)
            return Diverges(steps, (path_text(g.nodes[v]) for v in left))
        covered |= nxt
        frontier = nxt
        steps += 1
    return steps


def pseudo_orbit(d, p, graph=None):
    """Shortest closed chain of cylinders through p.

    Only meaningful on chain transitive systems, so anything less than
    a Holds verdict at this resolution is rejected.
    """
    tg = graph if graph is not None else tower_graph(d, p.depth)
    verdict, _ = _decide(tg)
    if verdict != HOLDS:
        raise DiagramError("pseudo-orbits need chain transitivity at this "
                           "resolution, got %s" % verdict)
    g = tg.expand() if isinstance(tg, TowerGraph) else tg
    src = _locate(g, p, "orbit base")
    chain = shortest_path(g.out, g.out[src], src)
    if chain is not None:
        return [p] + [g.nodes[v] for v in chain]
    raise DiagramError("no closed chain through %s" % path_text(p))
