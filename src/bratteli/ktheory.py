"""Exact decisions in the path-count group and its V_o ideal.

Group elements are integer vectors attached to a level; two vectors name
the same class when their pushforwards along the incidence matrices ever
agree.  Every verdict here is computed in exact integer or rational
arithmetic: stationary tails are decided through kernel stabilization and
orbit cycling, everything else is answered relative to the presented
levels or reported Unknown.
"""

from __future__ import annotations

from fractions import Fraction

from ._report import FAILS, HOLDS, UNKNOWN, DiagramError, ValidationReport
from .diagram import DEFAULT_BUDGET, _mat_vec
from .transgraph import dvector_matrix, other_block

# hard ceiling on orbit walks; box arguments terminate well before this
_CYCLE_CAP = 4096


def _dims(d, n, ideal):
    return d.others(n) if ideal else d.vertices(n)


def _block(d, n, ideal):
    return other_block(d, n) if ideal else d.incidence(n)


def _check_vec(d, n, vec, ideal):
    want = len(_dims(d, n, ideal))
    if len(vec) != want:
        raise DiagramError("vector length %d does not match the %d %s "
                           "coordinates of level %d"
                           % (len(vec), want,
                              "V_o" if ideal else "vertex", n))
    return tuple(int(x) for x in vec)


def pushforward(d, x, to_level, ideal=False):
    """Transport the (level, vector) element x to a deeper level."""
    n, vec = x
    if to_level < n:
        raise DiagramError("cannot push from level %d back to %d"
                           % (n, to_level))
    vec = _check_vec(d, n, vec, ideal)
    while n < to_level:
        vec = _mat_vec(_block(d, n, ideal), vec)
        n += 1
    return (n, vec)


def _tail_kill(d, vec, ideal):
    """B^dim image in the stationary tail; zero iff the class is zero."""
    b = _block(d, d.depth, ideal)
    for _ in range(max(len(vec), 1)):
        vec = _mat_vec(b, vec)
    return vec


def class_is_zero(d, n, vec, ideal=False):
    """Whether the vector's class vanishes.  Returns (verdict, witness)."""
    lvl, cur = pushforward(d, (n, vec), max(n, d.depth), ideal)
    if not any(cur):
        return HOLDS, {"vanishes_by": lvl}
    if d.stationary:
        if any(_tail_kill(d, cur, ideal)):
            return FAILS, {"persistent_from": lvl}
        return HOLDS, {"vanishes_in_tail": True}
    return UNKNOWN, {"nonzero_through": lvl}


def eq(d, x, y, ideal=False):
    """Same-class test for two (level, vector) elements."""
    top = max(x[0], y[0])
    _, va = pushforward(d, x, top, ideal)
    _, vb = pushforward(d, y, top, ideal)
    diff = tuple(a - b for a, b in zip(va, vb))
    return class_is_zero(d, top, diff, ideal)


def is_positive(d, n, vec, ideal=False, depth_budget=DEFAULT_BUDGET):
    """Whether the class admits a coordinatewise non-negative member.

    Pushforwards are members, so any non-negative image certifies Holds.
    In a stationary tail the orbit either cycles (exactly never becoming
    non-negative) or the mirrored orbit turns non-negative while the class
    stays nonzero; both give exact Fails.  Otherwise Unknown.
    """
    vec = _check_vec(d, n, vec, ideal)
    lvl, cur = pushforward(d, (n, vec), max(n, d.depth), ideal)
    trail = [vec] if n == lvl else [vec, cur]
    for w in trail:
        if all(e >= 0 for e in w):
            return HOLDS, {"non_negative_member": True}
    if not d.stationary:
        return UNKNOWN, {"checked_to": lvl}
    b = _block(d, d.depth, ideal)
    cap = min(max(32, depth_budget, 4 * len(cur) + 4), _CYCLE_CAP)
    seen = {}
    orbit = cur
    for step in range(cap):
        if all(e >= 0 for e in orbit):
            return HOLDS, {"non_negative_after": step}
        if orbit in seen:
            return FAILS, {"orbit_cycles_without_member": True,
                           "cycle_entry": seen[orbit]}
        seen[orbit] = step
        orbit = _mat_vec(b, orbit)
    if any(_tail_kill(d, cur, ideal)):
        mirror = tuple(-e for e in cur)
        for step in range(cap):
            if all(e >= 0 for e in mirror):
                return FAILS, {"negated_class_positive_after": step}
            mirror = _mat_vec(b, mirror)
    return UNKNOWN, {"orbit_checked": cap}


def _sup(vec):
    return max((abs(e) for e in vec), default=0)


def bounded_norm_membership(d, n, vec, bound, ideal=True):
    """Whether the class keeps sup-norm <= bound representatives deep down.

    With an invertible tail block the deep representatives are exactly the
    pushforwards, so the orbit either escapes the box (exact Fails) or
    revisits a state inside it (exact Holds).  A singular tail only yields
    the sufficient cycling certificate; escapes stay Unknown there.
    """
    if bound < 0:
        raise DiagramError("norm bound must be non-negative")
    lvl, cur = pushforward(d, (n, vec), max(n, d.depth), ideal)
    if not any(cur):
        return HOLDS, {"zero_class": True}
    if not d.stationary:
        if _sup(cur) > bound:
            return UNKNOWN, {"exceeds_at": lvl}
        return HOLDS, {"exhibited_through": lvl}
    b = _block(d, d.depth, ideal)
    invertible = _rank(b) == len(b)
    seen = {}
    step = 0
    while step < _CYCLE_CAP:
        if _sup(cur) > bound:
            if invertible:
                return FAILS, {"unique_member_escapes_after": step}
            return UNKNOWN, {"pushforward_escapes_after": step}
        if cur in seen:
            return HOLDS, {"cycle_entry": seen[cur], "cycle_length":
                           step - seen[cur]}
        seen[cur] = step
        cur = _mat_vec(b, cur)
        step += 1
    return UNKNOWN, {"no_cycle_within": _CYCLE_CAP}


def _rank(rows):
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * inv
                for cc in range(c, cols):
                    m[i][cc] -= f * m[r][cc]
        rank += 1
        r += 1
        if r == len(m):
            break
    return rank


class IndexSet:
    """The k index vectors at one level, coordinates over the V_o listing.

    d_i puts +1 on every vertex whose transition-graph edge leaves Y_i and
    -1 on every vertex whose edge enters it; loops contribute nothing.
    """

    __slots__ = ("level", "vertices", "elements")

    def __init__(self, level, vertices, elements):
        self.level = level
        self.vertices = tuple(vertices)
        self.elements = tuple(tuple(e) for e in elements)
        for e in self.elements:
            if len(e) != len(self.vertices):
                raise DiagramError("index vector length mismatch")
            if any(x not in (-1, 0, 1) for x in e):
                raise DiagramError("index vector entry outside {-1, 0, 1}")
        for r in range(len(self.vertices)):
            col = [e[r] for e in self.elements if e[r]]
            if col and sorted(col) != [-1, 1]:
                raise DiagramError(
                    "vertex %r carries %r, not a single (+1, -1) pair"
                    % (self.vertices[r], col))

    def to_json(self):
        return {"level": self.level,
                "vertices": list(self.vertices),
                "elements": [list(e) for e in self.elements]}


def index_elements(d, n):
    """Index vectors d_1..d_k read off the level-n transition graph."""
    dm = dvector_matrix(d, n)
    k = d.k
    return IndexSet(n, d.others(n),
                    [[row[i] for row in dm] for i in range(k)])


def check_index_relations(s, graphs):
    """Identities the index vectors satisfy, checked exactly.

    The k vectors of s sum to zero.  A proper non-empty subset sums to
    zero at a level exactly when no edge of that level's transition graph
    crosses the subset boundary, so nonvanishing reduces to a cut check on
    every supplied graph.  The rational span has dimension exactly k - 1.
    """
    rep = ValidationReport()
    k = len(s.elements)
    dim = len(s.vertices)
    total = [sum(e[r] for e in s.elements) for r in range(dim)]
    if any(total):
        rep.add("index_sum_zero", FAILS, {"level": s.level, "sum": total})
    else:
        rep.add("index_sum_zero", HOLDS, {"level": s.level})

    subset_bad = None
    levels = []
    for g in graphs:
        levels.append(g.level)
        for mask in range(1, 2 ** k - 1):
            inside = {i + 1 for i in range(k) if mask >> i & 1}
            if not any((a in inside) != (b in inside)
                       for (_, a, b) in g.edges):
                subset_bad = {"level": g.level, "subset": sorted(inside)}
                break
        if subset_bad:
            break
    rep.add("index_proper_subsets", FAILS if subset_bad else HOLDS,
            subset_bad or {"levels": levels})

    got = _rank([list(e) for e in s.elements]) if dim else 0
    if got == k - 1:
        rep.add("index_rank", HOLDS, {"rank": got})
    else:
        rep.add("index_rank", FAILS, {"rank": got, "expected": k - 1})
    return rep


def rational_rank_lower_bound(d, n):
    """Rational rank of the ideal group is at least k: level-n certificate.

    Returns (|V_o^n|, report).  The k index vectors span a (k-1)-dim
    rational space, and the all-ones vector escapes it: writing it as an
    integer combination would put a constant drop of 1 across every edge
    of the transition graph, impossible around any closed walk.  The exact
    rank computation over the rationals certifies both statements.
    """
    rep = ValidationReport()
    k = d.k
    others = d.others(n)
    size = len(others)
    rep.add("V_o_size", HOLDS if size >= k else FAILS,
            {"level": n, "size": size, "k": k})
    dm = dvector_matrix(d, n)
    cols = [[row[i] for row in dm] for i in range(k)]
    got = _rank(cols) if dm else 0
    rep.add("index_rank", HOLDS if got == k - 1 else FAILS,
            {"rank": got, "expected": k - 1})
    full = _rank(cols + [[1] * size]) if size else 0
    if full >= k:
        rep.add("rank_bound", HOLDS,
                {"bound": k, "level": n, "witness": "all_ones"})
    else:
        rep.add("rank_bound", FAILS, {"rank": full, "k": k})
    return size, rep
