"""Seeded input documents for the benchmark workloads.

Pure standard library and pure functions of a ``random.Random``: nothing
here imports the program, so the inputs do not change when the program
does.  The shapes follow the test corpus (one vertex per minimal class
listed first, remainder vertices whose index vectors form two-cycles
between classes), drawn with the benchmark's own generator.

Documents come out unordered; the workloads hand them to the program's
``synthesize`` command once during set-up to obtain ordered diagrams, and
that command's output is itself checked before anything uses it.
"""

from __future__ import annotations

# per remainder vertex: (index vector over Y1..Yk, classes its walk visits)
SHAPES = {
    1: [((0,), (1,))],
    2: [((1, -1), (1, 2)),
        ((-1, 1), (1, 2))],
    3: [((1, -1, 0), (1, 2)),
        ((-1, 1, 0), (1, 2)),
        ((0, 1, -1), (2, 3)),
        ((0, -1, 1), (2, 3))],
}

# remainder-to-remainder multiplicity rows scaled by b >= 1; paired
# columns cancel, so each row reproduces its vertex's index vector
_VO_ROWS = {
    1: lambda b: [(b + 1,)],
    2: lambda b: [(b + 1, b), (b, b + 1)],
    3: lambda b: [(b + 1, b, 0, 0), (b, b + 1, 0, 0),
                  (0, 0, b + 1, b), (0, 0, b, b + 1)],
}


def _ids(k):
    ys = ["y%d" % i for i in range(1, k + 1)]
    ws = ["w%d" % j for j in range(1, len(SHAPES[k]) + 1)]
    return ys, ws


def _vertex_docs(k):
    ys, ws = _ids(k)
    return ([{"id": y, "class": {"minimal": i}}
             for i, y in enumerate(ys, start=1)]
            + [{"id": w, "class": "other"} for w in ws])


def _level(k, fiber_of):
    ys, ws = _ids(k)
    return {"vertices": _vertex_docs(k),
            "edges": [{"source": s, "range": v}
                      for v in ys + ws for s in fiber_of[v]]}


def _block(k, rng):
    """Unordered fibers of one level in the corpus shape."""
    ys, ws = _ids(k)
    fiber_of = {y: [y] * rng.choice((2, 3)) for y in ys}
    rows = _VO_ROWS[k](rng.choice((1, 2)))
    for j, w in enumerate(ws):
        visits = SHAPES[k][j][1]
        fiber = []
        for i in visits:
            # two anchors when both fiber ends sit in the same class
            lo = 2 if len(visits) == 1 else 1
            fiber.extend([ys[i - 1]] * (lo + rng.choice((0, 1))))
        for mult, u in zip(rows[j], ws):
            fiber.extend([u] * mult)
        fiber_of[w] = fiber
    return fiber_of


def _first_level(k):
    ys, ws = _ids(k)
    return _level(k, {v: ["root"] for v in ys + ws})


def _values(k):
    _, ws = _ids(k)
    return {w: list(SHAPES[k][j][0]) for j, w in enumerate(ws)}


def stationary(k, rng, repeats):
    """A stationary diagram presenting its block ``repeats`` times."""
    block = _level(k, _block(k, rng))
    doc = {"kind": "bratteli", "k": k, "stationary": True,
           "levels": [_first_level(k)] + [block] * repeats}
    dv = {"d": [{"level": 2, "values": _values(k)}], "stationary": True}
    return doc, dv


def nonstationary(k, rng, depth):
    """A finite presentation of ``depth`` levels with a fresh block each."""
    doc = {"kind": "bratteli", "k": k, "stationary": False,
           "levels": [_first_level(k)]
           + [_level(k, _block(k, rng)) for _ in range(depth - 1)]}
    dv = {"d": [{"level": n, "values": _values(k)}
                for n in range(2, depth + 1)],
          "stationary": False}
    return doc, dv


def union(ma, mb):
    """Two odometers of multiplicities ma and mb side by side: not simple,
    so chain transitivity Fails with one odometer as the cut."""
    verts = [{"id": "a", "class": {"minimal": 1}},
             {"id": "b", "class": {"minimal": 2}}]
    first = {"vertices": verts,
             "edges": [{"source": "root", "range": "a"},
                       {"source": "root", "range": "b"}]}
    block = {"vertices": verts,
             "edges": ([{"source": "a", "range": "a"}] * ma
                       + [{"source": "b", "range": "b"}] * mb)}
    return {"kind": "bratteli", "k": 2, "stationary": True,
            "levels": [first, block]}


def swap_twin(doc, rng):
    """Copy of an ordered diagram with two distinct-source edges of one
    remainder fiber swapped, one of them an extreme edge so the markers
    move.  Every corpus-shaped diagram has such a fiber."""
    choices = []
    for li, lev in enumerate(doc["levels"][1:], start=1):
        others = {v["id"] for v in lev["vertices"] if v["class"] == "other"}
        fibers = fibers_of(lev)
        for v in sorted(others):
            fib = fibers[v]
            pairs = [(a, b) for a in range(len(fib))
                     for b in range(a + 1, len(fib))
                     if fib[a] != fib[b] and (a == 0 or b == len(fib) - 1)]
            if pairs:
                choices.append((li, v, pairs))
    li, v, pairs = rng.choice(choices)
    a, b = rng.choice(pairs)
    lev = doc["levels"][li]
    fib = fibers_of(lev)
    fib[v][a], fib[v][b] = fib[v][b], fib[v][a]
    twin = dict(doc)
    twin["levels"] = list(doc["levels"])
    twin["levels"][li] = {"vertices": lev["vertices"],
                          "edges": [{"source": s, "range": r}
                                    for r in fib for s in fib[r]]}
    return twin


# -- reading documents back; the output checks use these as the oracle --

def fibers_of(lev):
    """Ordered fiber of each vertex of one level document."""
    fib = {v["id"]: [] for v in lev["vertices"]}
    for e in lev["edges"]:
        fib[e["range"]].append(e["source"])
    return fib


class Presentation:
    """Read-only view of a diagram document with its fibers and root path
    counts cached per level."""

    def __init__(self, doc):
        self.doc = doc
        self.k = doc["k"]
        self._fibers = {}
        self._counts = [{"root": 1}]

    def level(self, n):
        levels = self.doc["levels"]
        if n <= len(levels):
            return levels[n - 1]
        if not self.doc["stationary"]:
            raise ValueError("level %d beyond presentation" % n)
        return levels[-1]

    def ids(self, n):
        return [v["id"] for v in self.level(n)["vertices"]]

    def label(self, n, v):
        """Minimal class of v at level n, or 0 for the remainder."""
        for x in self.level(n)["vertices"]:
            if x["id"] == v:
                return 0 if x["class"] == "other" else x["class"]["minimal"]
        raise KeyError(v)

    def fibers(self, n):
        if n not in self._fibers:
            self._fibers[n] = fibers_of(self.level(n))
        return self._fibers[n]

    def counts(self, n):
        """Root-to-vertex path counts at level n (level 0 is the root)."""
        while len(self._counts) <= n:
            below = self._counts[-1]
            self._counts.append({v: sum(below[s] for s in srcs) for v, srcs
                                 in self.fibers(len(self._counts)).items()})
        return self._counts[n]

    def cylinders(self, n):
        return sum(self.counts(n).values())
