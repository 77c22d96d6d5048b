"""Successor dynamics on finite paths and Kakutani-Rokhlin towers.

The successor of a path increments the shallowest edge that is not at its
fiber maximum and refills everything below it minimally; this is the lex
successor among paths with the same range.  A path whose edges are all
fiber-maximal has no successor at its depth: it is the top floor of its
tower, and the set-valued ``vershik_step`` describes where deeper
extensions land after the increment happens further up.
"""

from __future__ import annotations

from .diagram import DiagramError
from .order import (MAX, MIN, Path, enumerate_paths, extreme_chains,
                    extreme_path)


class Maximal:
    """Top floor marker; component i when the path truncates z_{i,max}."""

    __slots__ = ("component",)

    def __init__(self, component=None):
        self.component = component

    def __eq__(self, other):
        return isinstance(other, Maximal) and self.component == other.component

    def __hash__(self):
        return hash(("max", self.component))

    def __repr__(self):
        return "Maximal(%r)" % (self.component,)


class Minimal:
    """Ground floor marker; component i when the path truncates z_{i,min}."""

    __slots__ = ("component",)

    def __init__(self, component=None):
        self.component = component

    def __eq__(self, other):
        return isinstance(other, Minimal) and self.component == other.component

    def __hash__(self):
        return hash(("min", self.component))

    def __repr__(self):
        return "Minimal(%r)" % (self.component,)


def _first_movable(d, p, direction):
    for j in range(p.depth):
        fib = d.fiber(j + 1, p.verts[j])
        if direction == MAX:
            if p.ranks[j] < len(fib) - 1:
                return j
        else:
            if p.ranks[j] > 0:
                return j
    return None


def _identify_extreme(d, p, kind, chains):
    if chains is None:
        chains = extreme_chains(d, kind)
    n = p.depth
    if chains.certain(n):
        for i in range(1, d.k + 1):
            if chains.vertex(i, n) == p.end:
                return i
    return None


def successor(d, p, chains=None):
    """Next path in lex order with the same range, or a Maximal marker.

    ``Maximal(i)`` says the path is the depth-N truncation of z_{i,max};
    ``Maximal(None)`` says it is fiber-maximal but tops no canonical chain
    (or the chain cannot be pinned down from the presentation).
    """
    j = _first_movable(d, p, MAX)
    if j is None:
        return Maximal(_identify_extreme(d, p, MAX, chains))
    fib = d.fiber(j + 1, p.verts[j])
    new_rank = p.ranks[j] + 1
    src = fib[new_rank]
    if j == 0:
        head_verts, head_ranks = (), ()
    else:
        head = extreme_path(d, src, j, MIN)
        head_verts, head_ranks = head.verts, head.ranks
    return Path(head_verts + p.verts[j:],
                head_ranks + (new_rank,) + p.ranks[j + 1:])


def predecessor(d, p, chains=None):
    """Previous path in lex order, or a Minimal marker."""
    j = _first_movable(d, p, MIN)
    if j is None:
        return Minimal(_identify_extreme(d, p, MIN, chains))
    fib = d.fiber(j + 1, p.verts[j])
    new_rank = p.ranks[j] - 1
    src = fib[new_rank]
    if j == 0:
        head_verts, head_ranks = (), ()
    else:
        head = extreme_path(d, src, j, MAX)
        head_verts, head_ranks = head.verts, head.ranks
    return Path(head_verts + p.verts[j:],
                head_ranks + (new_rank,) + p.ranks[j + 1:])


def tower_heights(d, n):
    """Floor counts of the level-n towers, aligned with the vertex listing."""
    return d.path_counts(n)


class KRPartition:
    """All towers of one level; floor j+1 is the successor of floor j."""

    __slots__ = ("level", "vertices", "floors")

    def __init__(self, level, vertices, floors):
        self.level = level
        self.vertices = tuple(vertices)
        self.floors = floors

    def tower(self, v):
        return self.floors[v]

    def heights(self):
        return [len(self.floors[v]) for v in self.vertices]


def towers(d, n, verify=True):
    """The Kakutani-Rokhlin partition at level n, one tower per vertex."""
    vs = d.vertices(n)
    return KRPartition(n, vs, {v: tower(d, v, n, verify) for v in vs})


def tower(d, v, depth, verify=True):
    """Floors of the tower over v, ground first.

    With verify the successor map is checked to climb the floors one by
    one and to top out at the last; this ties the enumeration order to the
    dynamics and is cheap at the depths towers get materialized.
    """
    floors = list(enumerate_paths(d, v, depth))
    if verify:
        for a, b in zip(floors, floors[1:]):
            nxt = successor(d, a)
            if nxt != b:
                raise DiagramError("tower floors out of successor order at %r"
                                   % (a,))
        if not isinstance(successor(d, floors[-1]), Maximal):
            raise DiagramError("tower top still has a successor")
    return floors


def traversal_matrix(d, n):
    """Passes of each level-(n+1) tower through the level-n towers.

    Walks every tower's floors in order; a pass through the tower of u
    starts exactly when the truncated window sits on u's ground floor, so
    ground-floor hits are what gets counted.
    """
    hi = d.vertices(n + 1)
    lo = d.vertices(n)
    col = {u: i for i, u in enumerate(lo)}
    mat = [[0] * len(lo) for _ in hi]
    for r, v in enumerate(hi):
        for p in enumerate_paths(d, v, n + 1):
            if all(rk == 0 for rk in p.ranks[:n]):
                mat[r][col[p.verts[n - 1]]] += 1
    return mat


class StepImage:
    """Forward images of a depth-N cylinder under one successor step."""

    __slots__ = ("targets", "unresolved")

    def __init__(self, targets, unresolved):
        self.targets = frozenset(targets)
        self.unresolved = unresolved


def _step_image(d, p, lookahead, chains, direction):
    n = p.depth
    cmin, cmax = chains
    ahead = cmax if direction == MAX else cmin
    wrap = cmin if direction == MAX else cmax
    kind = MIN if direction == MAX else MAX
    move = successor if direction == MAX else predecessor
    nxt = move(d, p, ahead)
    if isinstance(nxt, Path):
        return StepImage((nxt,), False)

    targets = set()
    unresolved = False

    def window(w, m):
        cur = w
        for lvl in range(m, n, -1):
            fib = d.fiber(lvl, cur)
            cur = fib[0] if kind == MIN else fib[-1]
        return extreme_path(d, cur, n, kind)

    def collect_breaks(m, u):
        # occurrences of u in level-(m+1) fibers that still have room to
        # move donate the window their move refills; stuck ones walk on
        go_on = []
        lev = d.level(m + 1)
        for t in lev.ids:
            fib = lev.fibers[t]
            stuck = len(fib) - 1 if direction == MAX else 0
            for j, s in enumerate(fib):
                if s != u:
                    continue
                if j == stuck:
                    go_on.append(t)
                else:
                    step = j + 1 if direction == MAX else j - 1
                    targets.add(window(fib[step], m))
        return go_on

    def on_trunk(m, u):
        if not ahead.certain(m):
            return None
        for i in range(1, d.k + 1):
            if ahead.vertex(i, m) == u:
                return i
        return 0

    # walks along stuck continuations, one (level, vertex) per entry; a
    # visit only adds targets or sets the flag, so each is made once
    todo = [(n, p.end)]
    seen = set(todo)
    while todo:
        m, u = todo.pop()
        if m == n + lookahead:
            i = on_trunk(m, u)
            if i:
                z = wrap.vertex(i, n) if wrap.certain(n) else None
                if z is None:
                    unresolved = True
                else:
                    targets.add(extreme_path(d, z, n, kind))
            elif i is None or not d.has_level(m + 1):
                unresolved = True
            elif collect_breaks(m, u):
                # off the trunk: one extra level for the walk to break
                unresolved = True
            continue
        if not d.has_level(m + 1):
            unresolved = True
            continue
        for t in collect_breaks(m, u):
            if (m + 1, t) not in seen:
                seen.add((m + 1, t))
                todo.append((m + 1, t))
    return StepImage(targets, unresolved)


def vershik_step(d, p, lookahead=2, chains=None):
    """Depth-N windows reachable one step forward from extensions of p.

    Non-maximal paths step to their successor.  For a maximal path the
    increment happens at some deeper level: walk forward along
    fiber-maximal continuations, and every non-maximal edge met on the way
    contributes the window its increment refills to.  Walks that reach the
    lookahead depth on a z_{i,max} trunk vertex wrap to the z_{i,min}
    window; walks that reach it off-trunk get one extra level to break,
    and the image is flagged unresolved if a continuation survives that.
    """
    if chains is None:
        chains = (extreme_chains(d, MIN), extreme_chains(d, MAX))
    return _step_image(d, p, lookahead, chains, MAX)


def inverse_step(d, p, lookahead=2, chains=None):
    """Mirror of vershik_step: one step backward, min and max swapped."""
    if chains is None:
        chains = (extreme_chains(d, MIN), extreme_chains(d, MAX))
    return _step_image(d, p, lookahead, chains, MIN)


def orbit(d, p, steps, reverse=False, chains=None):
    """Iterate the successor (or predecessor) map from p.

    Returns (paths, terminal): paths starts with p; terminal is the
    Maximal or Minimal marker that stopped the walk early, else None.
    """
    out = [p]
    cur = p
    for _ in range(steps):
        cur = (predecessor(d, cur, chains) if reverse
               else successor(d, cur, chains))
        if not isinstance(cur, Path):
            return out, cur
        out.append(cur)
    return out, None
