"""Order structure: path lex comparison, extreme chains, markers, validation.

Edges sharing a range vertex are ordered by their listing position (the
fiber order).  Finite paths with the same range compare lexicographically
with the deepest differing edge most significant, so a path's sort key is
its rank tuple read deepest first.  The fiber-minimal and fiber-maximal
edges induce backward pointer chains whose level-1 landings define the
markers m_minus and m_plus used by every routing condition below.
"""

from __future__ import annotations

from ._report import (FAILS, HOLDS, UNKNOWN, DiagramError,
                      ValidationReport, worst)
from .diagram import DEFAULT_BUDGET, OTHER, ROOT, _k_simple_check

MIN = "min"
MAX = "max"

# level cap when hunting for marker-state repetition in stationary tails
_STATE_CAP = 256


class Path:
    """Finite path from the root; verts[j] is the range at level j+1."""

    __slots__ = ("verts", "ranks")

    def __init__(self, verts, ranks):
        self.verts = tuple(verts)
        self.ranks = tuple(ranks)

    @property
    def depth(self):
        return len(self.ranks)

    @property
    def end(self):
        return self.verts[-1]

    def key(self):
        # deepest rank is the most significant coordinate
        return tuple(reversed(self.ranks))

    def __eq__(self, other):
        return (isinstance(other, Path) and self.verts == other.verts
                and self.ranks == other.ranks)

    def __hash__(self):
        return hash((self.verts, self.ranks))

    def __repr__(self):
        return "Path(%r, %r)" % (self.verts, self.ranks)


def make_path(d, end, ranks):
    """Reconstruct the path into ``end`` selected by per-level fiber ranks."""
    n = len(ranks)
    if end not in d.vertices(n):
        raise DiagramError("no vertex %r at level %d" % (end, n))
    verts = [None] * n
    verts[n - 1] = end
    cur = end
    for lvl in range(n, 0, -1):
        fib = d.fiber(lvl, cur)
        r = ranks[lvl - 1]
        if not 0 <= r < len(fib):
            raise DiagramError("rank %d outside fiber of %r at level %d"
                               % (r, cur, lvl))
        cur = fib[r]
        if lvl >= 2:
            verts[lvl - 2] = cur
    return Path(verts, ranks)


def extreme_path(d, end, depth, kind):
    """The fiber-minimal or fiber-maximal path into ``end``."""
    verts = [None] * depth
    ranks = [None] * depth
    verts[depth - 1] = end
    cur = end
    for lvl in range(depth, 0, -1):
        fib = d.fiber(lvl, cur)
        idx = 0 if kind == MIN else len(fib) - 1
        ranks[lvl - 1] = idx
        cur = fib[idx]
        if lvl >= 2:
            verts[lvl - 2] = cur
    return Path(verts, ranks)


def path_text(p):
    """Render a path as pipe-joined edges, ranks counted from one."""
    return "|".join(_segment(p.verts, p.ranks, j) for j in range(p.depth))


def _segment(verts, ranks, j):
    return "%d:%s->%s#%d" % (j + 1, verts[j - 1] if j else ROOT, verts[j],
                             ranks[j] + 1)


def enumerate_paths(d, end, depth, start=None, reverse=False, text=False):
    """Yield the depth-``depth`` paths into ``end`` in lex order (descending
    if ``reverse``) from ``start``, one of them, by default the first one;
    as Paths, or as their ``path_text`` if ``text``.

    Runs like an odometer: bump the shallowest edge not at the far end of
    its fiber, refill the levels below it from the near end.  Rendered
    edges are kept, so a bump at level j renders levels 1..j again only.
    No recursion, so any depth works.
    """
    if depth < 1:
        raise DiagramError("level index %d out of range" % depth)
    fibers = [d.level(lvl).fibers for lvl in range(1, depth + 1)]
    if start is None:
        start = extreme_path(d, end, depth, MAX if reverse else MIN)
    verts, ranks = list(start.verts), list(start.ranks)
    segs = [_segment(verts, ranks, j) for j in range(depth)] if text else ()
    while True:
        yield "|".join(segs) if text else Path(verts, ranks)
        for j, r in enumerate(ranks):
            if (r > 0 if reverse else r < len(fibers[j][verts[j]]) - 1):
                break
        else:
            return
        ranks[j] += -1 if reverse else 1
        for lvl in range(j, 0, -1):
            # the levels below j take the near-end edges under it
            src = verts[lvl - 1] = fibers[lvl][verts[lvl]][ranks[lvl]]
            ranks[lvl - 1] = len(fibers[lvl - 1][src]) - 1 if reverse else 0
        if text:
            segs[:j + 1] = [_segment(verts, ranks, i) for i in range(j + 1)]


def pointer_map(d, n, kind):
    """Source of each vertex's extreme incoming edge at level n."""
    lev = d.level(n)
    idx = 0 if kind == MIN else -1
    return {v: lev.fibers[v][idx] for v in lev.ids}


class ExtremeChains:
    """Judgement on X_min or X_max plus the located z-chain vertices."""

    def __init__(self, kind, verdict, witness, trunks, fixed, stable_to, depth):
        self.kind = kind
        self.verdict = verdict
        self.witness = witness
        self.trunks = trunks          # i -> {level: vertex or None}
        self.fixed = fixed            # i -> tail vertex (stationary only)
        self.stable_to = stable_to    # None means certain at every level
        self._depth = depth

    def vertex(self, i, n):
        if self.fixed is not None and n > self._depth:
            return self.fixed.get(i)
        per = self.trunks.get(i)
        return per.get(n) if per else None

    def certain(self, n):
        return self.stable_to is None or n <= self.stable_to


def extreme_chains(d, kind):
    """Locate the candidate extreme chains and decide |X_kind| = k.

    Stationary diagrams are decided exactly through the pointer map of the
    repeating block: the set of infinite extreme paths corresponds to the
    cycles of that map, so the requirement is one fixed point per component
    and none elsewhere.  Non-stationary diagrams get chain candidates by
    chasing pointers down from the last presented level; a level is certain
    when the chase image inside a component is a single vertex.
    """
    k = d.k
    if d.stationary:
        dim = len(d.vertices(d.depth))
        pi = pointer_map(d, d.depth + 1, kind)
        img = set(pi)
        for _ in range(dim + 1):
            img = {pi[v] for v in img}
        moving = sorted(v for v in img if pi[v] != v)
        if moving:
            return ExtremeChains(kind, FAILS, {"cycle_through": moving},
                                 {}, None, None, d.depth)
        fixed = {}
        for v in img:
            lab = d.label(d.depth, v)
            if lab == OTHER:
                return ExtremeChains(kind, FAILS,
                                     {"extreme_path_through_V_o": v},
                                     {}, None, None, d.depth)
            if lab in fixed:
                return ExtremeChains(
                    kind, FAILS,
                    {"component": lab, "two_chains": sorted([fixed[lab], v])},
                    {}, None, None, d.depth)
            fixed[lab] = v
        if len(fixed) != k:
            missing = [i for i in range(1, k + 1) if i not in fixed]
            return ExtremeChains(kind, FAILS, {"missing_chain": missing},
                                 {}, None, None, d.depth)
        trunks = {i: {} for i in fixed}
        for i, e in fixed.items():
            w = e
            trunks[i][d.depth] = w
            for n in range(d.depth - 1, 0, -1):
                w = pointer_map(d, n + 1, kind)[w]
                if d.label(n, w) != i:
                    return ExtremeChains(
                        kind, FAILS,
                        {"chain_leaves_component": {"component": i,
                                                    "level": n, "vertex": w}},
                        {}, None, None, d.depth)
                trunks[i][n] = w
        witness = {"fixed": dict(fixed),
                   "trunk": {i: dict(per) for i, per in trunks.items()}}
        return ExtremeChains(kind, HOLDS, witness, trunks, fixed, None, d.depth)

    sets = {i: set(d.component(d.depth, i)) for i in range(1, k + 1)}
    trunks = {i: {} for i in range(1, k + 1)}
    for n in range(d.depth, 0, -1):
        for i in range(1, k + 1):
            cur = sets[i]
            trunks[i][n] = next(iter(cur)) if len(cur) == 1 else None
        if n >= 2:
            pm = pointer_map(d, n, kind)
            for i in range(1, k + 1):
                sets[i] = {pm[v] for v in sets[i]}
    stable_to = 0
    for n in range(1, d.depth + 1):
        if all(trunks[i][n] is not None for i in range(1, k + 1)):
            stable_to = n
        else:
            break
    witness = {"stable_to": stable_to, "checked_to": d.depth}
    return ExtremeChains(kind, UNKNOWN, witness, trunks, None, stable_to,
                         d.depth)


class MarkerTable:
    """Level-1 landings of both backward pointer chains, per level.

    For stationary diagrams the landing maps evolve deterministically under
    the repeating block, so the table is extended until the joint state
    repeats; every deeper level then reduces to a representative inside the
    detected cycle and all marker queries are exact.
    """

    def __init__(self, d):
        # the level-1 labels, not d: the table lives in d's memo, and a
        # reference back would keep every diagram waiting for the cyclic gc
        self.labels1 = d.level(1).labels
        self._fill(d, 1)

    def _fill(self, d, base):
        # landings on level ``base``: the identity there, then one pointer
        # step per level above it
        ids = d.vertices(base)
        self.min_land = [None] * base + [{v: v for v in ids}]
        self.max_land = [None] * base + [{v: v for v in ids}]
        self.t0 = max(d.depth, base)
        self.period = 0
        limit = self.t0 + _STATE_CAP if d.stationary else d.depth
        seen = {}
        n = base + 1
        while n <= limit:
            for kind, tab in ((MIN, self.min_land), (MAX, self.max_land)):
                pm = pointer_map(d, n, kind)
                tab.append({v: tab[n - 1][pm[v]] for v in d.vertices(n)})
            if d.stationary and n >= d.depth:
                key = (tuple(sorted(self.min_land[n].items())),
                       tuple(sorted(self.max_land[n].items())))
                if key in seen:
                    self.t0 = seen[key]
                    self.period = n - seen[key]
                    break
                seen[key] = n
            n += 1

    @property
    def built(self):
        return len(self.min_land) - 1

    def rep(self, n):
        """Representative table level for n, or None when out of reach."""
        if n <= self.built:
            return n
        if self.period:
            return self.t0 + (n - self.t0) % self.period
        return None

    def landing(self, kind, n, v):
        r = self.rep(n)
        if r is None:
            return None
        tab = self.min_land if kind == MIN else self.max_land
        return tab[r][v]

    def marker(self, kind, n, v):
        """Component the kind-chain from (n, v) lands in, None if unresolved."""
        land = self.landing(kind, n, v)
        if land is None:
            return None
        lab = self.labels1[land]
        return None if lab == OTHER else lab


class _Landings(MarkerTable):
    """The marker table's landings on level n instead of level 1.

    Its representatives tell apart the levels whose landings on level n
    differ, which is what the forward walk of a step image at depth n
    keys its states on.
    """

    def __init__(self, d, n):
        self._fill(d, n)


def _landings(d, n):
    """The diagram's landing table on level n, built on first use."""
    table = d._memo.get(("landings", n))
    if table is None:
        table = d._memo[("landings", n)] = _Landings(d, n)
    return table


def _marker_table(d):
    """The diagram's MarkerTable, built on first use."""
    mt = d._memo.get("markers")
    if mt is None:
        mt = d._memo["markers"] = MarkerTable(d)
    return mt


def _chains(d, kind):
    """The diagram's extreme chains of one kind, located on first use."""
    chains = d._memo.get(kind)
    if chains is None:
        chains = d._memo[kind] = extreme_chains(d, kind)
    return chains


def marker_level(d):
    """Least level from which every V_o vertex has both markers.

    Returns (L, verdict, witness).  Exact for stationary diagrams via the
    table's state cycle; relative to the presentation otherwise.
    """
    mt = _marker_table(d)

    def resolved(n):
        return all(mt.marker(MIN, n, v) is not None
                   and mt.marker(MAX, n, v) is not None
                   for v in d.others(n))

    scan_end = mt.built
    res = {n: resolved(n) for n in range(1, scan_end + 1)}
    if mt.period:
        periodic = range(mt.t0, mt.t0 + mt.period)
        stuck = [n for n in periodic if not res[n]]
        if stuck:
            return None, FAILS, {"unresolved_forever_at": stuck[0]}
        L = mt.t0
        for n in range(mt.t0 - 1, 0, -1):
            if res[n]:
                L = n
            else:
                break
        return L, HOLDS, {"L": L}
    L = None
    for n in range(scan_end, 0, -1):
        if res[n]:
            L = n
        else:
            break
    return L, UNKNOWN, {"relative_L": L, "checked_to": scan_end}


def _breaks(d, level, vertex, rep):
    """Where the maximal continuations of ``vertex`` on ``level`` break.

    Walks forward along the edges that are last in their fibers.  An
    edge met that is not last breaks its continuation: the successor
    takes the next edge of the fiber, and that edge's source, the donor,
    is where the minimal refill starts.  Returns (breaks, looped, ended):

    - breaks: the (level, donor) pairs, the donor lying on that level;
    - looped: a walk state came round again;
    - ended: the (level, vertex) pairs where an unbroken continuation
      reached the presentation's last level, or a level ``rep`` cannot
      place.

    A state is (rep(m), vertex).  Levels with one representative have
    the same landings and the same levels above them, so each state is
    walked once and the walk is finite.  When ``rep`` also tells apart
    the levels whose landings on ``level`` differ, a state comes round
    again exactly when some continuation stays maximal forever.
    """
    breaks, ended = set(), set()
    looped = False
    seen = set()
    todo = [(level, vertex)]
    while todo:
        m, u = todo.pop()
        r = rep(m)
        if r is None or not d.has_level(m + 1):
            ended.add((m, u))
            continue
        if (r, u) in seen:
            looped = True
            continue
        seen.add((r, u))
        lev = d.level(m + 1)
        for t in lev.ids:
            fib = lev.fibers[t]
            for j, s in enumerate(fib):
                if s != u:
                    continue
                if j == len(fib) - 1:
                    todo.append((m + 1, t))
                else:
                    breaks.add((m, fib[j + 1]))
    return breaks, looped, ended


def _aggregate(d, base_L, violations, unknowns):
    """Fold per-level findings into a verdict, letting L absorb transients."""
    mt = _marker_table(d)
    if mt.period:
        recurring = [v for v in violations if v["level"] >= mt.t0]
        if recurring:
            return FAILS, recurring[0]
        hard_unknown = [u for u in unknowns if u["level"] >= mt.t0]
        if hard_unknown:
            return UNKNOWN, hard_unknown[0]
        lift = max((v["level"] + 1 for v in violations + unknowns),
                   default=base_L)
        return HOLDS, {"from_level": max(base_L, lift)}
    if violations:
        return UNKNOWN, {"presented_violation": violations[0]}
    if unknowns:
        return UNKNOWN, unknowns[0]
    return UNKNOWN, {"relative_from": base_L, "checked_to": mt.built}


def _source_compat(d, base_L):
    """Edges sourced in V_o: the successor must refill on the m_plus side."""
    mt = _marker_table(d)
    violations, unknowns = [], []
    for n in range(max(base_L, 1), mt.built + 1):
        if not d.has_level(n + 1):
            break
        lev = d.level(n + 1)
        for v in d.others(n):
            want = mt.marker(MAX, n, v)
            if want is None:
                unknowns.append({"level": n, "vertex": v,
                                 "why": "m_plus unresolved"})
                continue
            for t in lev.ids:
                fib = lev.fibers[t]
                last = len(fib) - 1
                for j, s in enumerate(fib):
                    if s != v:
                        continue
                    if j < last:
                        got = mt.marker(MIN, n, fib[j + 1])
                        if got is None:
                            unknowns.append({"level": n, "vertex": v,
                                             "range": t, "rank": j,
                                             "why": "m_minus unresolved"})
                        elif got != want:
                            violations.append({"level": n, "vertex": v,
                                               "range": t, "rank": j,
                                               "expected": want, "got": got})
                    else:
                        # a maximal edge: the increment comes further up
                        breaks, _, ended = _breaks(d, n + 1, t, mt.rep)
                        got = {mt.marker(MIN, m, s) for m, s in breaks}
                        bad = sorted(c for c in got if c not in (None, want))
                        if bad:
                            violations.append({"level": n, "vertex": v,
                                               "range": t, "rank": j,
                                               "expected": want,
                                               "got": bad[0],
                                               "via": "maximal edge"})
                        if ended or None in got:
                            unknowns.append({"level": n, "vertex": v,
                                             "range": t, "rank": j,
                                             "why": "break beyond presentation"})
    return _aggregate(d, base_L, violations, unknowns)


def _target_compat(d, base_L):
    """Non-maximal edges from V_i into V_o: the successor refills in V_i."""
    mt = _marker_table(d)
    violations, unknowns = [], []
    for n in range(max(3, base_L), mt.built + 1):
        for w in d.others(n):
            fib = d.fiber(n, w)
            for j in range(len(fib) - 1):
                i = d.label(n - 1, fib[j])
                if i == OTHER:
                    continue
                got = mt.marker(MIN, n - 1, fib[j + 1])
                if got is None:
                    unknowns.append({"level": n, "range": w, "rank": j,
                                     "why": "m_minus unresolved"})
                elif got != i:
                    violations.append({"level": n, "range": w, "rank": j,
                                       "expected": i, "got": got})
    return _aggregate(d, base_L, violations, unknowns)


def validate_ordered(d, depth_budget=DEFAULT_BUDGET):
    """Report on the ordered routing conditions over the k-simple axiom.

    Strong simplicity and non-elementarity are qualities of the underlying
    unordered diagram, not of the order: an elementary diagram can carry a
    perfectly valid order, so those two verdicts stay out of this report.
    """
    rep = ValidationReport()
    if _k_simple_check(d, depth_budget, rep) == FAILS:
        for name in ("extreme_paths", "marker_level",
                     "order_compat_source", "order_compat_target"):
            rep.add(name, UNKNOWN, {"blocked_by": "k_simple"})
        return rep

    cmin, cmax = _chains(d, MIN), _chains(d, MAX)
    rep.add("extreme_paths", worst([cmin.verdict, cmax.verdict]),
            {"min": cmin.witness, "max": cmax.witness})

    L, lverdict, lwit = marker_level(d)
    if d.k == 1:
        # a single component leaves nothing to route between towers
        lwit = dict(lwit)
        lwit["single_component"] = True
        rep.add("marker_level", HOLDS, lwit)
        rep.add("order_compat_source", HOLDS, {"vacuous": True})
        rep.add("order_compat_target", HOLDS, {"vacuous": True})
        return rep
    rep.add("marker_level", lverdict, lwit)
    if lverdict == FAILS:
        rep.add("order_compat_source", FAILS, {"blocked_by": "marker_level"})
        rep.add("order_compat_target", FAILS, {"blocked_by": "marker_level"})
        return rep
    base_L = L if L is not None else _marker_table(d).built + 1
    sv, sw = _source_compat(d, base_L)
    rep.add("order_compat_source", sv, sw)
    tv, tw = _target_compat(d, base_L)
    rep.add("order_compat_target", tv, tw)
    return rep
