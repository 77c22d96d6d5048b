"""Leveled multigraph model: levels of vertices, edge fibers, incidence matrices.

A diagram has explicit levels 1..depth plus an implicit root level 0 with a
single vertex.  Level-1 edges carry source "root".  When ``stationary`` is
set, the last explicit level's edge block and labels repeat forever, so the
last two explicit levels must share one vertex list.

Vertices are labeled: component label i in 1..k marks the i-th minimal
sub-diagram V_i, label 0 marks the complementary set V_o.  Edge listing order
inside a common-range fiber is meaningful (it encodes the fiber order used by
the ordered machinery) and is preserved by every construction here.
"""

from __future__ import annotations

import json

from ._report import (DiagramError, FAILS, HOLDS, UNKNOWN, ValidationReport,
                      worst)

OTHER = 0
ROOT = "root"

DEFAULT_BUDGET = 10

# guards the matrix-power cycle searches against pathological blow-up
_MAX_POWER_ITER = 10000


class Level:
    """One explicit level: vertex ids in listing order, labels, edge list."""

    __slots__ = ("ids", "index", "labels", "edges", "fibers")

    def __init__(self, ids, labels, edges):
        self.ids = tuple(ids)
        self.index = {v: i for i, v in enumerate(self.ids)}
        self.labels = dict(labels)
        self.edges = tuple((s, r) for (s, r) in edges)
        fibers = {v: [] for v in self.ids}
        for s, r in self.edges:
            fibers[r].append(s)
        self.fibers = {v: tuple(srcs) for v, srcs in fibers.items()}


class Diagram:
    """Never changed after construction, so what the ordered machinery
    derives from it (marker table, extreme chains) is kept in ``_memo``,
    filled on first use by the accessors in ``order``."""

    def __init__(self, levels, k, stationary):
        self.levels = tuple(levels)
        self.k = k
        self.stationary = stationary
        self._memo = {}
        if not self.levels:
            raise DiagramError("diagram needs at least one level")
        if stationary and len(self.levels) < 2:
            raise DiagramError("stationary presentation needs two explicit levels")
        if stationary:
            a, b = self.levels[-2], self.levels[-1]
            if a.ids != b.ids or a.labels != b.labels:
                raise DiagramError("non-square stationary block: last two "
                                   "vertex lists differ",
                                   "levels[%d]" % (len(self.levels) - 1))

    @property
    def depth(self):
        return len(self.levels)

    def has_level(self, n):
        return n >= 1 and (self.stationary or n <= self.depth)

    def level(self, n):
        if n < 1:
            raise DiagramError("level index %d out of range" % n)
        if n <= self.depth:
            return self.levels[n - 1]
        if self.stationary:
            return self.levels[-1]
        raise DiagramError("level %d beyond non-stationary presentation" % n)

    def vertices(self, n):
        return self.level(n).ids

    def label(self, n, v):
        return self.level(n).labels[v]

    def component(self, n, i):
        """Vertices of V_i at level n, listing order."""
        lev = self.level(n)
        return tuple(v for v in lev.ids if lev.labels[v] == i)

    def others(self, n):
        lev = self.level(n)
        return tuple(v for v in lev.ids if lev.labels[v] == OTHER)

    def fiber(self, n, v):
        """Ordered source ids of the edges into v at level n."""
        return self.level(n).fibers[v]

    def root_vector(self):
        lev = self.levels[0]
        return [len(lev.fibers[v]) for v in lev.ids]

    def incidence(self, n):
        """Integer matrix of the transition level n -> n+1, as tuples.

        Rows follow the listing order of level n+1, columns of level n.
        Built once per level; the stationary tail shares one entry.
        """
        key = ("incidence", min(n, self.depth))
        mat = self._memo.get(key)
        if mat is None:
            lo = self.level(n)
            hi = self.level(n + 1)
            rows = [[0] * len(lo.ids) for _ in hi.ids]
            for ri, v in enumerate(hi.ids):
                for s in hi.fibers[v]:
                    if s == ROOT:
                        continue  # synthetic connection, no multiplicity
                    rows[ri][lo.index[s]] += 1
            mat = self._memo[key] = tuple(tuple(row) for row in rows)
        return mat

    def path_counts(self, n):
        """Root-to-vertex path counts at level n (exact integers)."""
        vec = self.root_vector()
        for j in range(1, n):
            vec = _mat_vec(self.incidence(j), vec)
        return list(vec)

    def to_json(self):
        levels = []
        for lev in self.levels:
            vs = []
            for v in lev.ids:
                lab = lev.labels[v]
                cls = "other" if lab == OTHER else {"minimal": lab}
                vs.append({"id": v, "class": cls})
            es = [{"source": s, "range": r} for (s, r) in lev.edges]
            levels.append({"vertices": vs, "edges": es})
        return {"kind": "bratteli", "k": self.k, "stationary": self.stationary,
                "levels": levels}

    def to_text(self):
        head = "k=%d, %s, %d explicit levels" % (
            self.k, "stationary" if self.stationary else "non-stationary",
            self.depth)
        lines = [head]
        for n in range(1, self.depth + 1):
            lev = self.levels[n - 1]
            tags = ["%s(Y%d)" % (v, lev.labels[v]) if lev.labels[v] else v
                    for v in lev.ids]
            lines.append("level %d: %s" % (n, "  ".join(tags)))
            lines.extend("  %s <- %s" % (v, " ".join(lev.fibers[v]))
                         for v in lev.ids)
        return "\n".join(lines) + "\n"


def parse_diagram(text):
    """Parse and structurally check the diagram JSON format."""
    doc = _parse_json(text)
    if not isinstance(doc, dict) or doc.get("kind") != "bratteli":
        raise DiagramError('top-level object must have "kind": "bratteli"')
    k = doc.get("k")
    # bool is an int subclass, so integer fields compare types exactly
    if type(k) is not int or k < 1:
        raise DiagramError('"k" must be a positive integer', "k")
    stationary = doc.get("stationary")
    if not isinstance(stationary, bool):
        raise DiagramError('"stationary" must be a boolean', "stationary")
    raw_levels = doc.get("levels")
    if not isinstance(raw_levels, list) or not raw_levels:
        raise DiagramError('"levels" must be a non-empty array', "levels")

    levels = []
    prev_ids = None
    for li, raw in enumerate(raw_levels):
        loc = "levels[%d]" % li
        if not isinstance(raw, dict):
            raise DiagramError("level must be an object", loc)
        rverts = raw.get("vertices")
        if not isinstance(rverts, list) or not rverts:
            raise DiagramError("vertices must be a non-empty array", loc)
        ids, labels = [], {}
        for vi, rv in enumerate(rverts):
            vloc = "%s.vertices[%d]" % (loc, vi)
            if not isinstance(rv, dict) or not isinstance(rv.get("id"), str):
                raise DiagramError('vertex needs a string "id"', vloc)
            vid = rv["id"]
            if vid in labels:
                raise DiagramError("duplicate vertex id %r" % vid, vloc)
            if vid == ROOT:
                raise DiagramError('"root" is reserved', vloc)
            cls = rv.get("class")
            if cls == "other":
                lab = OTHER
            elif isinstance(cls, dict) and type(cls.get("minimal")) is int:
                lab = cls["minimal"]
                if not 1 <= lab <= k:
                    raise DiagramError(
                        "minimal component %d outside 1..%d" % (lab, k), vloc)
            else:
                raise DiagramError(
                    'vertex class must be "other" or {"minimal": i}', vloc)
            ids.append(vid)
            labels[vid] = lab
        redges = raw.get("edges")
        if not isinstance(redges, list):
            raise DiagramError("edges must be an array", loc)
        idset = set(ids)
        edges = []
        for ei, re in enumerate(redges):
            eloc = "%s.edges[%d]" % (loc, ei)
            if (not isinstance(re, dict) or not isinstance(re.get("source"), str)
                    or not isinstance(re.get("range"), str)):
                raise DiagramError('edge needs string "source" and "range"', eloc)
            s, r = re["source"], re["range"]
            if r not in idset:
                raise DiagramError("dangling range id %r" % r, eloc)
            if li == 0:
                if s != ROOT:
                    raise DiagramError('level-1 edges must use source "root"', eloc)
            else:
                if s not in prev_ids:
                    raise DiagramError("dangling source id %r" % s, eloc)
            edges.append((s, r))
        lev = Level(ids, labels, edges)
        for v in ids:
            if not lev.fibers[v]:
                raise DiagramError(
                    "r not surjective: vertex %r has no incoming edge" % v,
                    "%s.vertices" % loc)
        levels.append(lev)
        prev_ids = idset

    # every vertex must keep flowing forward while deeper levels exist
    for li in range(len(levels) - 1):
        sources = {s for (s, _) in levels[li + 1].edges}
        for v in levels[li].ids:
            if v not in sources:
                raise DiagramError(
                    "vertex %r at level %d has no outgoing edge" % (v, li + 1),
                    "levels[%d]" % li)
    d = Diagram(levels, k, stationary)
    if stationary:
        sources = {s for (s, _) in levels[-1].edges}
        for v in levels[-1].ids:
            if v not in sources:
                raise DiagramError(
                    "vertex %r starves in the repeated block" % v,
                    "levels[%d]" % (len(levels) - 1))
    return d


def load_diagram(path):
    with open(path, "rb") as fh:
        return parse_diagram(fh.read())


def _parse_json(text):
    """Decode JSON text, or its UTF-8 bytes.  Bytes that are not UTF-8,
    bad syntax, and nesting deeper than the decoder can follow (it raises
    RecursionError) are all a DiagramError."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DiagramError("invalid JSON: %s" % exc)


def _read_json(path):
    """The JSON document in a file: a prescription or a path set."""
    with open(path, "rb") as fh:
        return _parse_json(fh.read())


# --- matrix helpers: integers, and the saturating semirings ---

def _mat_vec(mat, vec):
    """The integer product mat @ vec, as a tuple."""
    return tuple(sum(row[i] * vec[i] for i in range(len(vec))) for row in mat)

def _rows_all_or_none(mat):
    """Each row is all nonzero or all zero."""
    return all(all(row) or not any(row) for row in mat)

def _sub_block(mat, rows, cols):
    return [[mat[r][c] for c in cols] for r in rows]

def _capped(mat, cap):
    return tuple(tuple(min(cap, e) for e in row) for row in mat)

def _capped_mul(a, b, cap):
    """Product saturating at cap: cap 1 is the boolean semiring, cap 2
    keeps the {0, 1, >=2} abstraction exact."""
    m, p = len(b), len(b[0]) if b else 0
    out = []
    for arow in a:
        row = []
        for j in range(p):
            v = 0
            for t in range(m):
                v += arow[t] * b[t][j]
                if v >= cap:
                    v = cap
                    break
            row.append(v)
        out.append(tuple(row))
    return tuple(out)


def _component_indices(d, n, i):
    lev = d.level(n)
    return [lev.index[v] for v in lev.ids if lev.labels[v] == i]


def _search_products(d, start, label, cap, done, budget):
    """Walk products M = B(m-1)...B(start) of label-restricted blocks.

    Returns ("Holds", m) at the first m with done(M), ("Fails", m) when a
    stationary state cycle rules it out, ("Unknown", m) past the budget or
    presentation.  B(j) is the block of incidence(j) between the vertices
    labeled ``label`` at levels j and j+1, with entries capped at ``cap``.
    """
    state = None
    seen = {}
    m = start
    steps = 0
    while True:
        nxt = m + 1
        if not d.has_level(nxt):
            return (UNKNOWN, m)
        block = _capped(_sub_block(d.incidence(m),
                                   _component_indices(d, nxt, label),
                                   _component_indices(d, m, label)), cap)
        state = block if state is None else _capped_mul(block, state, cap)
        m = nxt
        steps += 1
        if done(state):
            return (HOLDS, m)
        in_tail = m >= d.depth
        if d.stationary and in_tail:
            if state in seen:
                return (FAILS, seen[state])
            seen[state] = m
        if not d.stationary and m >= d.depth:
            return (UNKNOWN, m)
        if steps >= max(budget, 64) and not (d.stationary and in_tail):
            return (UNKNOWN, m)
        if steps >= _MAX_POWER_ITER:
            return (UNKNOWN, m)


def _k_simple_check(d, depth_budget, rep):
    """Add the k_simple verdict to rep and return it."""
    k = d.k
    exact_bad = None

    # labels partition with non-empty components, V_o non-empty when k >= 2
    for n in range(1, d.depth + 1):
        for i in range(1, k + 1):
            if not d.component(n, i):
                exact_bad = {"level": n, "missing_component": i}
                rep.note("component %d empty at level %d" % (i, n))
                break
        if exact_bad:
            break
        if k >= 2 and not d.others(n):
            exact_bad = {"level": n, "empty": "V_o"}
            rep.note("V_o empty at level %d with k=%d: diagram decomposes"
                     % (n, k))
            break

    # closure: edges into a component vertex stay inside the component
    if exact_bad is None:
        for n in range(1, d.depth + 1):
            lev = d.level(n)
            if n == 1:
                continue
            below = d.level(n - 1)
            for v in lev.ids:
                i = lev.labels[v]
                if i == OTHER:
                    continue
                for s in lev.fibers[v]:
                    if below.labels[s] != i:
                        exact_bad = {"level": n, "edge": [s, v],
                                     "component": i}
                        rep.note("edge %r -> %r enters component %d from "
                                 "outside at level %d" % (s, v, i, n))
                        break
                if exact_bad:
                    break
            if exact_bad:
                break

    def all_positive(mat):
        return all(all(e for e in row) for row in mat)

    # eventual full connectivity inside each component; stationary tails
    # repeat the level-depth analysis, so starts beyond depth add nothing
    conn = HOLDS
    conn_witness = []
    if exact_bad is None and not d.stationary and d.depth < 2:
        conn = UNKNOWN
        rep.note("single presented level: connectivity unverifiable")
    if exact_bad is None and conn == HOLDS:
        starts = range(1, d.depth + 1) if d.stationary else range(1, d.depth)
        for i in range(1, k + 1):
            for n in starts:
                verdict, m = _search_products(d, n, i, 1, all_positive,
                                              depth_budget)
                if verdict != HOLDS:
                    conn = worst([conn, verdict])
                    conn_witness.append({"component": i, "level": n,
                                         "stalled_at": m})
                    if verdict == FAILS:
                        rep.note("component %d never fully connected from "
                                 "level %d" % (i, n))

    if exact_bad is not None:
        rep.add("k_simple", FAILS, exact_bad)
    elif conn == HOLDS:
        rep.add("k_simple", HOLDS, {"checked_to": d.depth})
    else:
        rep.add("k_simple", conn, conn_witness)
    return rep.verdict("k_simple")


def validate_unordered(d, depth_budget=DEFAULT_BUDGET):
    """Check the k-simple axioms, their strong variant, and non-elementarity.

    Per-level facts (component closure, non-empty classes) are exact.  The
    eventual-connectivity conditions are decided exactly for stationary
    diagrams via matrix-power cycle detection and reported Unknown past the
    budget otherwise.
    """
    rep = ValidationReport()
    _k_simple_check(d, depth_budget, rep)

    # strong variant: deep V_o vertices see all of V_o or none of it
    strong = rep.verdict("k_simple")
    strong_witness = None
    if strong == HOLDS:
        starts = range(1, d.depth + 1) if d.stationary else range(1, d.depth)
        for n in starts:
            if not d.others(n):
                continue  # nothing to connect to
            verdict, m = _search_products(d, n, OTHER, 1, _rows_all_or_none,
                                          depth_budget)
            if verdict != HOLDS:
                strong = worst([strong, verdict])
                strong_witness = {"level": n, "stalled_at": m}
                if verdict == FAILS:
                    rep.note("some deep V_o vertex stays partially connected "
                             "to V_o^%d forever" % n)
                break
    rep.add("strongly_k_simple", strong, strong_witness)

    # non-elementary: deep V_o multiplicities are eventually 0 or >= 2
    def no_single(mat):
        return all(all(e != 1 for e in row) for row in mat)

    nonel = HOLDS
    nonel_witness = None
    if not d.stationary and d.depth < 2 and any(
            d.others(n) for n in range(1, d.depth + 1)):
        nonel = UNKNOWN
    starts = range(1, d.depth + 1) if d.stationary else range(1, d.depth)
    for n in starts:
        if not d.others(n):
            continue
        verdict, m = _search_products(d, n, OTHER, 2, no_single,
                                      depth_budget)
        if verdict != HOLDS:
            nonel = worst([nonel, verdict])
            nonel_witness = {"level": n, "stalled_at": m}
            if verdict == FAILS:
                rep.note("multiplicity exactly 1 persists between V_o levels "
                         "from level %d" % n)
            break
    rep.add("non_elementary", nonel, nonel_witness)
    return rep


def telescope(d, levels):
    """Contract to a subsequence of levels; composite fibers keep lex order.

    ``levels`` starts at 0 (the root).  Composite edges between retained
    levels are listed most-significant-last: two composite paths compare by
    their deepest differing edge, matching the induced fiber order.
    """
    if not levels or levels[0] != 0:
        raise DiagramError("telescoping level list must start at 0")
    for a, b in zip(levels, levels[1:]):
        if b <= a:
            raise DiagramError("telescoping levels must strictly increase")
    if len(levels) < 2:
        raise DiagramError("telescoping needs at least one retained level")
    last = levels[-1]
    if not d.has_level(last):
        raise DiagramError("level %d beyond presentation" % last)

    def comp_sources(a, b, v):
        # ordered sources at level a of all paths from level a into v at b:
        # expand the fiber one level at a time, each source in place
        out = (v,)
        for lvl in range(b, a, -1):
            out = [s for u in out for s in d.fiber(lvl, u)]
        return out

    new_levels = []
    for j in range(1, len(levels)):
        a, b = levels[j - 1], levels[j]
        lev = d.level(b)
        edges = []
        for v in lev.ids:
            for s in comp_sources(a, b, v):
                edges.append((s, v))
        new_levels.append(Level(lev.ids, lev.labels, edges))

    gaps = {b - a for a, b in zip(levels, levels[1:])}
    stat = (d.stationary and len(gaps) == 1 and len(new_levels) >= 2
            and new_levels[-1].ids == new_levels[-2].ids
            and new_levels[-1].labels == new_levels[-2].labels)
    return Diagram(new_levels, d.k, stat)
