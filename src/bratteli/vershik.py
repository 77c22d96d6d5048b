"""Successor dynamics on finite paths and Kakutani-Rokhlin towers.

The successor of a path increments the shallowest edge that is not at its
fiber maximum and refills everything below it minimally; this is the lex
successor among paths with the same range.  A path whose edges are all
fiber-maximal has no successor at its depth: it is the top floor of its
tower, and the set-valued ``vershik_step`` describes where deeper
extensions land after the increment happens further up.
"""

from __future__ import annotations

from .order import (MAX, MIN, Path, _breaks, _chains, _landings,
                    enumerate_paths, extreme_path)


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


def _identify_extreme(d, p, kind):
    chains = _chains(d, kind)
    n = p.depth
    if chains.certain(n):
        for i in range(1, d.k + 1):
            if chains.vertex(i, n) == p.end:
                return i
    return None


def _move(d, p, direction):
    """One lex step toward the ``direction`` end of p's tower.

    Moves the shallowest edge that is not at that end of its fiber one
    place and refills every level below it from the opposite end.  A
    path with no such edge is the tower's extreme floor in that direction.
    """
    j = _first_movable(d, p, direction)
    if j is None:
        end = Maximal if direction == MAX else Minimal
        return end(_identify_extreme(d, p, direction))
    new_rank = p.ranks[j] + (1 if direction == MAX else -1)
    if j == 0:
        head_verts, head_ranks = (), ()
    else:
        src = d.fiber(j + 1, p.verts[j])[new_rank]
        head = extreme_path(d, src, j, MIN if direction == MAX else MAX)
        head_verts, head_ranks = head.verts, head.ranks
    return Path(head_verts + p.verts[j:],
                head_ranks + (new_rank,) + p.ranks[j + 1:])


def successor(d, p):
    """Next path in lex order with the same range, or a Maximal marker.

    ``Maximal(i)`` says the path is the depth-N truncation of z_{i,max};
    ``Maximal(None)`` says it is fiber-maximal but tops no canonical chain
    (or the chain cannot be pinned down from the presentation).
    """
    return _move(d, p, MAX)


def predecessor(d, p):
    """Previous path in lex order, or a Minimal marker."""
    return _move(d, p, MIN)


class KRPartition:
    """All towers of one level; floor j+1 is the successor of floor j."""

    __slots__ = ("level", "vertices", "floors")

    def __init__(self, level, vertices, floors):
        self.level = level
        self.vertices = tuple(vertices)
        self.floors = floors

    def tower(self, v):
        return self.floors[v]


def towers(d, n):
    """The Kakutani-Rokhlin partition at level n, one tower per vertex."""
    vs = d.vertices(n)
    return KRPartition(n, vs, {v: tower(d, v, n) for v in vs})


def tower(d, v, depth):
    """Floors of the tower over v, ground first: the paths into v in lex
    order, so each floor's successor is the next one."""
    return list(enumerate_paths(d, v, depth))


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


def vershik_step(d, p):
    """Depth-N windows reachable one step forward from extensions of p.

    Non-maximal paths step to their successor.  For a maximal path the
    increment happens at some deeper level: walk forward along
    fiber-maximal continuations, and every non-maximal edge met on the
    way contributes the minimal window its increment refills to.  The
    walk is keyed on the level's representative in the landing table, so
    it is finite and exact.  A continuation that stays maximal forever is
    z_{i,max} and wraps to the z_{i,min} window; on a stationary diagram
    whose extreme chains fail, and at the last level of a finite
    presentation for anything off a trunk, the image is flagged
    unresolved.
    """
    nxt = successor(d, p)
    if isinstance(nxt, Path):
        return StepImage((nxt,), False)
    n = p.depth
    lands = _landings(d, n)
    breaks, looped, ended = _breaks(d, n, p.end, lands.rep)
    ground = {lands.landing(MIN, m, s) for m, s in breaks}
    # an unbroken continuation on the trunk of z_{i,max} is that chain,
    # which steps to z_{i,min}; a loop is a continuation maximal forever,
    # so p followed by it is z_{i,max} exactly when p.end is on its trunk
    ahead, wrap = _chains(d, MAX), _chains(d, MIN)
    unresolved = False
    for m, u in ended | ({(n, p.end)} if looped else set()):
        z = None
        if ahead.certain(m) and wrap.certain(n):
            for i in range(1, d.k + 1):
                if ahead.vertex(i, m) == u:
                    z = wrap.vertex(i, n)
        if z is None:
            unresolved = True
        else:
            ground.add(z)
    return StepImage((extreme_path(d, w, n, MIN) for w in ground),
                     unresolved)


def orbit(d, p, steps, reverse=False):
    """Iterate the successor (or predecessor) map from p.

    Returns (paths, terminal): paths starts with p; terminal is the
    Maximal or Minimal marker that stopped the walk early, else None.
    """
    move = predecessor if reverse else successor
    out = [p]
    cur = p
    for _ in range(steps):
        cur = move(d, cur)
        if not isinstance(cur, Path):
            return out, cur
        out.append(cur)
    return out, None
