"""Successor dynamics on finite paths and Kakutani-Rokhlin towers.

The successor of a path increments the shallowest edge that is not at its
fiber maximum and refills everything below it minimally; this is the lex
successor among paths with the same range.  A path whose edges are all
fiber-maximal has no successor at its depth: it is the top floor of its
tower, and the set-valued ``vershik_step`` describes where deeper
extensions land after the increment happens further up.  The floors of
the level-n tower over v, ground first, are ``enumerate_paths(d, v, n)``.
"""

from __future__ import annotations

from itertools import islice

from .order import (MAX, MIN, Path, _breaks, _chains, _landings,
                    enumerate_paths, extreme_path)


class _Extreme:
    """What Maximal and Minimal share but the constructor, counted apart."""

    __slots__ = ("component",)

    def __eq__(self, other):
        return type(other) is type(self) and self.component == other.component

    def __hash__(self):
        return hash((type(self).__name__, self.component))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.component)


class Maximal(_Extreme):
    """Top floor marker; component i when the path truncates z_{i,max}."""

    __slots__ = ()

    def __init__(self, component=None):
        self.component = component


class Minimal(_Extreme):
    """Ground floor marker; component i when the path truncates z_{i,min}."""

    __slots__ = ()

    def __init__(self, component=None):
        self.component = component


def successor(d, p):
    """Next path in lex order with the same range, or a Maximal marker.

    One step of the floor walker.  ``Maximal(i)`` says the path is the
    depth-N truncation of z_{i,max}; ``Maximal(None)`` says it is
    fiber-maximal but tops no canonical chain (or the chain cannot be
    pinned down from the presentation).
    """
    paths, top = orbit(d, p, 1)
    return top or paths[1]


def predecessor(d, p):
    """Previous path in lex order, or a Minimal marker."""
    paths, ground = orbit(d, p, 1, reverse=True)
    return ground or paths[1]


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
    return tuple(map(tuple, mat))


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


def orbit(d, p, steps, reverse=False, text=False):
    """Iterate the successor (or predecessor) map from p.

    Returns (paths, terminal): paths starts with p (each ``path_text`` if
    ``text``); terminal is the Maximal (Minimal) marker of the tower's top
    (ground) floor where the walk stopped early, else None.
    """
    paths = list(islice(enumerate_paths(d, p.end, p.depth, start=p,
                                        reverse=reverse, text=text),
                        steps + 1))
    if len(paths) > steps:
        return paths, None
    kind, mark = (MIN, Minimal) if reverse else (MAX, Maximal)
    chains = _chains(d, kind)
    if chains.certain(p.depth):
        for i in range(1, d.k + 1):
            if chains.vertex(i, p.depth) == p.end:
                return paths, mark(i)
    return paths, mark(None)
