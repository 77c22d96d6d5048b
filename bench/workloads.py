"""The three workloads: their inputs, their operations and output checks.

Each operation is one ``bratteli.cli.main(argv)`` call on files written
here during set-up.  Every ``build_*`` function takes the seed and a
scratch directory and returns the list of ``Op`` that makes one pass of
its workload; ``loop.py`` replays whole passes.

Sizes are chosen so that a seed changes the diagrams but not how much
work a pass holds: every diagram slot fixes its class count, its
presentation length and its depths, and a drawn diagram is kept only
when its cylinder counts at the slot's depths are within 10% of the
slot's profile.  Without that, one seed's diagrams grow twice as fast as
another's, the ops at the middle of the latency distribution change
size from seed to seed, and the figures measure the draw instead of the
program.

The checks hold for any seed.  Where an answer can be computed without
the program (cylinder counts, tower positions, pushforwards, telescoped
path counts, index vectors read off the extreme edges) it is computed
here from the input documents and compared.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import gen
from gen import Presentation

HOLDS, FAILS, UNKNOWN = "Holds", "Fails", "Unknown"
PROFILE_TOLERANCE = 0.1
_RANK = {HOLDS: 0, UNKNOWN: 1, FAILS: 2}
EXIT_OF = {HOLDS: 0, FAILS: 1, UNKNOWN: 3}


class CheckFailed(Exception):
    """An operation's output is wrong."""


class Op:
    """One CLI call; ``check(code, out)`` raises CheckFailed or returns the
    verdicts the output carries."""

    __slots__ = ("id", "argv", "check")

    def __init__(self, id, argv, check):
        self.id = id
        self.argv = argv
        self.check = check


def call(argv):
    """Run the CLI in process and return (exit code, stdout text)."""
    from bratteli.cli import main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _need(cond, msg, *args):
    if not cond:
        raise CheckFailed(msg % args)


def _write(work, name, doc):
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _verdicts(doc):
    """Every verdict an output document carries, in document order."""
    found = []

    def walk(x):
        if isinstance(x, dict):
            for key, val in x.items():
                if key in ("verdict", "chain_transitive") and val in _RANK:
                    found.append(val)
                else:
                    walk(val)
        elif isinstance(x, list):
            for val in x:
                walk(val)

    walk(doc)
    return found


def _plain(code):
    """An output without verdicts counts as the verdict of its exit code,
    which must then be 0."""
    _need(code == 0, "exit %r", code)
    return [HOLDS]


def _reported(code, out, overall=None):
    """Output document and its verdicts, with the exit code checked
    against the worst of them (or against ``overall`` when printed)."""
    doc = json.loads(out)
    found = _verdicts(doc)
    _need(found, "output carries no verdict")
    top = overall(doc) if overall else max(found, key=_RANK.__getitem__)
    _need(code == EXIT_OF[top], "exit %r but verdict %s", code, top)
    return doc, found


def _first(rng, k, repeats, accept, tries=10000):
    for _ in range(tries):
        doc, dv = gen.stationary(k, rng, repeats)
        if accept(Presentation(doc)):
            return doc, dv
    raise RuntimeError("no k=%d diagram drawn in %d tries" % (k, tries))


def _draw(rng, k, repeats, depths, window):
    """A stationary diagram whose cylinder counts at ``depths`` lie within
    PROFILE_TOLERANCE of the slot's profile: the counts of the first draw
    of a fixed generator whose count at the last depth is in ``window``."""
    fixed = random.Random("profile:k%d-x%d:%r" % (k, repeats, depths))
    ref = Presentation(_first(fixed, k, repeats, lambda p: window[0]
                              <= p.cylinders(depths[-1]) <= window[1])[0])
    profile = [ref.cylinders(n) for n in depths]
    return _first(rng, k, repeats, lambda p: all(
        abs(p.cylinders(n) - c) <= PROFILE_TOLERANCE * c
        for n, c in zip(depths, profile)))


def _ordered(work, name, raw, dv):
    """Order a drawn diagram with the program's synthesizer and check the
    result; return the three files and a view of the ordered diagram."""
    raw_path = _write(work, name + ".raw.json", raw)
    dv_path = _write(work, name + ".d.json", dv)
    out_path = os.path.join(work, name + ".json")
    code, _ = call(["synthesize", raw_path, "--d", dv_path, "-o", out_path])
    if code != 0:
        raise RuntimeError("set-up: synthesize exited %d on %s" % (code, name))
    with open(out_path) as fh:
        pres = Presentation(json.load(fh))
    check_dvectors(pres, dv)
    return raw_path, dv_path, out_path, pres


# -- paths, written END:r1,...,rN with one-based ranks as the CLI reads them

def path_arg(end, ranks):
    return "%s:%s" % (end, ",".join(str(r + 1) for r in ranks))


def parse_path_text(text):
    """(verts, ranks) of a path as printed: 1:root->a#1|2:a->b#2|..."""
    verts, ranks = [], []
    for n, seg in enumerate(text.split("|"), start=1):
        lvl, _, rest = seg.partition(":")
        _need(lvl == str(n), "path segment %r out of order", seg)
        edge, _, rank = rest.partition("#")
        verts.append(edge.partition("->")[2])
        ranks.append(int(rank) - 1)
    return verts, ranks


def path_at(pres, end, depth, index):
    """(verts, ranks) of the path at position ``index`` of the tower
    over ``end``."""
    verts, ranks = [None] * depth, [None] * depth
    cur = end
    for n in range(depth, 0, -1):
        verts[n - 1] = cur
        below = pres.counts(n - 1)
        for r, s in enumerate(pres.fibers(n)[cur]):
            if index < below[s]:
                ranks[n - 1], cur = r, s
                break
            index -= below[s]
    return verts, ranks


def tower_index(pres, verts, ranks):
    """Position of a path in its tower, checking that it follows the
    fibers.  Successive floors have successive positions."""
    index = 0
    for n in range(len(verts), 0, -1):
        fib = pres.fibers(n)[verts[n - 1]]
        r = ranks[n - 1]
        _need(0 <= r < len(fib), "rank outside fiber at level %d", n)
        _need(fib[r] == (verts[n - 2] if n >= 2 else "root"),
              "path leaves its fibers at level %d", n)
        below = pres.counts(n - 1)
        index += sum(below[s] for s in fib[:r])
    return index


def _landing_class(pres, n, v, pick):
    """Class reached by following extreme edges down from (n, v), or None
    when level 1 is reached on a remainder vertex."""
    while not pres.label(n, v):
        if n == 1:
            return None
        v = pres.fibers(n)[v][pick]
        n -= 1
    return pres.label(n, v)


def index_vectors(pres, n):
    """Index vector of each resolvable remainder vertex at level n:
    e_i - e_j for the classes its minimal and maximal edges fall to."""
    out = {}
    for v in pres.ids(n):
        if pres.label(n, v):
            continue
        i = _landing_class(pres, n, v, 0)
        j = _landing_class(pres, n, v, -1)
        if i is None or j is None:
            continue
        vec = [0] * pres.k
        vec[i - 1] += 1
        vec[j - 1] -= 1
        out[v] = vec
    return out


def check_dvectors(pres, dv):
    """The ordered diagram realizes the prescription wherever the extreme
    edges resolve; at least one vector must be checked."""
    checked = 0
    top = len(pres.doc["levels"])
    for block in dv["d"]:
        levels = (range(block["level"], top + 1) if dv["stationary"]
                  else [block["level"]])
        for n in levels:
            for v, vec in index_vectors(pres, n).items():
                _need(vec == block["values"][v],
                      "level %d vertex %s realizes %r, prescribed %r",
                      n, v, vec, block["values"][v])
                checked += 1
    _need(checked, "no index vector resolved")


# -- chain: the cylinder-graph verdict on a depth ladder ----------------
#
# Why: this is what `chain --depth` users wait on, and the workload where
# building dynamics on towers instead of paths must show its gain.  Time
# goes to graph building (dynamics), enumerate_paths (order) and
# vershik_step.  The unions exercise the Fails branch and its cut.

# (k, repeats, reference depth, window): the ladder runs from 4 to the
# reference depth; the slot's profile has the window's count of cylinders
# there, where one op takes up to about a second on a 2-CPU machine
CHAIN_SLOTS = [(1, 1, 9, (19000, 20000)), (1, 2, 9, (19000, 20000)),
               (2, 1, 6, (12500, 15400)), (2, 2, 6, (12500, 15400)),
               (3, 1, 6, (25000, 28000)), (3, 2, 6, (25000, 28000))]
# odometer multiplicities of each union; the seed picks which side is which
CHAIN_UNIONS = [(2, 3), (2, 2)]
UNION_CAP = 12000
UNION_RUNGS = 4


def _chain_check(pres, depth, valid):
    nodes = pres.cylinders(depth)

    def check(code, out):
        res, found = _reported(code, out)
        _need(res["nodes"] == nodes, "nodes %r, expected %d", res["nodes"],
              nodes)
        verdict = res["chain_transitive"]
        if valid:
            _need(verdict == HOLDS, "valid diagram got %s", verdict)
            _need(all(v == nodes for v in res["saturation"].values()),
                  "saturation short of every cylinder")
        else:
            _need(verdict == FAILS, "union got %s", verdict)
            cut = res["witness"]["cut"]
            _need(0 < len(cut) == res["witness"]["cut_size"] < nodes,
                  "cut of %d out of %d", len(cut), nodes)
            _need(len({parse_path_text(p)[0][0] for p in cut}) == 1,
                  "cut crosses both odometers")
        return found
    return check


def build_chain(seed, work):
    rng = random.Random("chain:%d" % seed)
    ops = []
    for k, repeats, ref, window in CHAIN_SLOTS:
        name = "k%d-x%d" % (k, repeats)
        raw, dv = _draw(rng, k, repeats, range(4, ref + 1), window)
        _, _, path, pres = _ordered(work, name, raw, dv)
        for depth in range(4, ref + 1):
            ops.append(Op("chain/%s/d%d" % (name, depth),
                          ["chain", path, "--depth", str(depth)],
                          _chain_check(pres, depth, True)))
    for j, mults in enumerate(CHAIN_UNIONS):
        doc = gen.union(*rng.sample(mults, 2))
        path = _write(work, "union-%d.json" % j, doc)
        pres = Presentation(doc)
        top = 4
        while pres.cylinders(top + 1) <= UNION_CAP:
            top += 1
        for depth in range(top - UNION_RUNGS + 1, top + 1):
            ops.append(Op("chain/union-%d/d%d" % (j, depth),
                          ["chain", path, "--depth", str(depth)],
                          _chain_check(pres, depth, False)))
    return ops


# -- walk: point queries that print paths -------------------------------
#
# Why: orbits, towers, chains between given cylinders and covering
# sweeps need node-level answers from the same vershik and dynamics
# layers.  A quotient or cache that speeds up verdicts but slows path
# expansion or successor shows here.  Queries repeat on one (diagram,
# depth), so a per-(diagram, depth) cache would be exercised.

# (k, repeats, graph depth, window): the slot's profile has the window's
# count of cylinders at the graph depth, where chains and sweeps run
WALK_SLOTS = [(1, 1, 7, (2100, 2200)), (1, 2, 7, (2100, 2200)),
              (2, 1, 6, (2200, 2700)), (2, 2, 6, (2200, 2700)),
              (3, 1, 5, (1400, 1700)), (3, 2, 5, (1400, 1700))]
ORBIT_STEPS = 3000
ORBIT_DEEPER = 3     # orbits run this many levels below the graph depth
ORBITS = 2           # per direction
CHAINS = 3
CLOSED = 2


def _orbit_check(pres, depth, start, reverse):
    def check(code, out):
        res = json.loads(out)
        paths = res["paths"]
        _need(res["terminal"] is None, "orbit stopped early")
        _need(len(paths) == ORBIT_STEPS + 1, "%d paths", len(paths))
        end = None
        want = start
        for text in paths:
            verts, ranks = parse_path_text(text)
            _need(len(ranks) == depth, "path of depth %d", len(ranks))
            _need(end in (None, verts[-1]), "orbit left its tower")
            end = verts[-1]
            # strictly monotone in lex order, and no floor skipped
            _need(tower_index(pres, verts, ranks) == want,
                  "floor %d out of sequence", want)
            want += -1 if reverse else 1
        return _plain(code)
    return check


def _towers_check(pres, level):
    counts = pres.counts(level)

    def check(code, out):
        res = json.loads(out)
        _need(res["level"] == level, "level %r", res["level"])
        _need([t["vertex"] for t in res["towers"]] == list(counts),
              "towers out of listing order")
        for t in res["towers"]:
            _need(t["height"] == counts[t["vertex"]] == len(t["floors"]),
                  "tower %s has the wrong height", t["vertex"])
            for i, text in enumerate(t["floors"]):
                verts, ranks = parse_path_text(text)
                _need(verts[-1] == t["vertex"]
                      and tower_index(pres, verts, ranks) == i,
                      "floor %d of %s misplaced", i, t["vertex"])
        return _plain(code)
    return check


def _chain_walk_check(pres, start, end):
    """A chain from start to end; end None means a closed chain."""
    def check(code, out):
        walk = [parse_path_text(t) for t in json.loads(out)]
        _need(len(walk) >= (1 if end else 2), "chain of %d", len(walk))
        for verts, ranks in walk:
            tower_index(pres, verts, ranks)
        _need(walk[0] == start, "chain does not start at its source")
        _need(walk[-1] == (end or start), "chain does not end at its target")
        return _plain(code)
    return check


def _cover_check(direction, depth):
    def check(code, out):
        res = json.loads(out)
        _need(res.get("direction") == direction and res["depth"] == depth,
              "cover answered %r", res)
        _need(isinstance(res["steps"], int) and res["steps"] >= 0,
              "steps %r", res["steps"])
        return _plain(code)
    return check


def _random_path(pres, depth, rng):
    end = rng.choice(pres.ids(depth))
    return path_at(pres, end, depth, rng.randrange(pres.counts(depth)[end]))


def build_walk(seed, work):
    rng = random.Random("walk:%d" % seed)
    ops = []
    for k, repeats, depth, window in WALK_SLOTS:
        name = "k%d-x%d" % (k, repeats)
        raw, dv = _draw(rng, k, repeats, [depth], window)
        _, _, path, pres = _ordered(work, name, raw, dv)
        deep = depth + ORBIT_DEEPER
        counts = pres.counts(deep)
        end = max(counts, key=counts.get)
        for j in range(ORBITS):
            for reverse in (False, True):
                lo = ORBIT_STEPS if reverse else 0
                hi = counts[end] - (0 if reverse else ORBIT_STEPS)
                index = rng.randrange(lo, hi)
                _, ranks = path_at(pres, end, deep, index)
                argv = ["orbit", path, "--start", path_arg(end, ranks),
                        "--steps", str(ORBIT_STEPS)]
                if reverse:
                    argv.append("--reverse")
                ops.append(Op("walk/%s/orbit-%s%d" % (
                    name, "rev" if reverse else "fwd", j), argv,
                    _orbit_check(pres, deep, index, reverse)))
        ops.append(Op("walk/%s/towers" % name,
                      ["towers", path, "--level", str(depth)],
                      _towers_check(pres, depth)))
        for j in range(CHAINS + CLOSED):
            p = _random_path(pres, depth, rng)
            argv = ["chain", path, "--start", path_arg(p[0][-1], p[1])]
            if j < CHAINS:
                q = _random_path(pres, depth, rng)
                argv += ["--end", path_arg(q[0][-1], q[1])]
                ops.append(Op("walk/%s/chain-%d" % (name, j), argv,
                              _chain_walk_check(pres, p, q)))
            else:
                argv.append("--closed")
                ops.append(Op("walk/%s/closed-%d" % (name, j - CHAINS),
                              argv, _chain_walk_check(pres, p, None)))
        for direction in ("forward", "backward"):
            ops.append(Op("walk/%s/cover-%s" % (name, direction),
                          ["cover", path, "--depth", str(depth),
                           "--direction", direction],
                          _cover_check(direction, depth)))
    return ops


# -- check: the analysis pipeline on long presentations -----------------
#
# Why: validation, index checks, transition graphs, synthesis, K-theory
# pushes and telescoping spend their time in parse_diagram, MarkerTable
# and JSON rendering, and build no cylinder graph.  A change to the
# dynamics should leave this workload alone; caching or parse work shows
# here.  Finite presentations end Unknown with witnesses, and twins with
# an extreme edge of one remainder fiber swapped mostly Fail.

# stationary diagrams as (k, repeats of the block), and finite
# presentations as (k, levels) with a fresh block at every level
CHECK_STATIONARY = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
CHECK_FINITE = [(1, 40), (2, 40), (3, 40), (1, 120), (2, 120), (3, 120)]
STATIONARY_PUSH_TO = 12
KPUSH_BOUND = 3


def _validate_check(code, out):
    return _reported(code, out)[1]


def _overall(doc):
    return doc["overall"]


def _check_index_check(code, out):
    return _reported(code, out, _overall)[1]


def _graphs_check(pres, dv):
    def check(code, out):
        graphs = json.loads(out)
        _need(graphs, "no transition graph")
        for g in graphs:
            block = next(b for b in dv["d"] if dv["stationary"]
                         or b["level"] == g["level"])
            for e in g["edges"]:
                vec = [0] * pres.k
                vec[e["source"] - 1] += 1
                vec[e["target"] - 1] -= 1
                _need(vec == block["values"][e["label"]],
                      "level %d edge %s does not match its vector",
                      g["level"], e["label"])
        return _plain(code)
    return check


def _synth_check(pres):
    def check(code, out):
        _need(json.loads(out) == pres.doc,
              "synthesized order differs from the set-up run")
        return _plain(code)
    return check


def _push(pres, vec, frm, to):
    cur = dict(zip(pres.ids(frm), vec))
    for n in range(frm + 1, to + 1):
        cur = {v: sum(cur[s] for s in srcs)
               for v, srcs in pres.fibers(n).items()}
    return list(cur.values())


def _kpush_check(pres, vec, to):
    moved = _push(pres, vec, 2, to)

    def check(code, out):
        res, found = _reported(code, out, _overall)
        _need(res["pushforward"] == {"level": to, "vector": moved},
              "pushforward differs")
        _need(len(found) == 3, "%d checks reported", len(found))
        return found
    return check


def _telescope_check(pres, kept):
    def check(code, out):
        short = Presentation(json.loads(out))
        _need(len(short.doc["levels"]) == len(kept) - 1, "%d levels",
              len(short.doc["levels"]))
        for j, n in enumerate(kept[1:], start=1):
            _need(short.counts(j) == pres.counts(n),
                  "path counts differ at kept level %d", n)
        return _plain(code)
    return check


def build_check(seed, work):
    rng = random.Random("check:%d" % seed)
    slots = ([("k%d-x%d" % s, gen.stationary(s[0], rng, s[1]))
              for s in CHECK_STATIONARY]
             + [("k%d-n%d" % s, gen.nonstationary(s[0], rng, s[1]))
                for s in CHECK_FINITE])
    ops = []
    for name, (raw, dv) in slots:
        raw_path, dv_path, path, pres = _ordered(work, name, raw, dv)
        twin_path = _write(work, name + ".twin.json",
                           gen.swap_twin(pres.doc, rng))
        depth = len(pres.doc["levels"])
        to = STATIONARY_PUSH_TO if pres.doc["stationary"] else depth
        vec = [rng.choice((-1, 0, 1, 2)) for _ in pres.ids(2)]
        kept = [0] + list(range(1, depth + 1, 2))
        ops += [
            Op("check/%s/validate" % name, ["validate", raw_path],
               _validate_check),
            Op("check/%s/validate-ordered" % name,
               ["validate", path, "--ordered"], _validate_check),
            Op("check/%s/twin-ordered" % name,
               ["validate", twin_path, "--ordered"], _validate_check),
            Op("check/%s/check-index" % name, ["check-index", path],
               _check_index_check),
            Op("check/%s/transition-graphs" % name,
               ["transition-graphs", path], _graphs_check(pres, dv)),
            Op("check/%s/synthesize" % name,
               ["synthesize", raw_path, "--d", dv_path], _synth_check(pres)),
            Op("check/%s/kpush" % name,
               ["kpush", path, "--level", "2",
                "--vec=" + ",".join(map(str, vec)), "--to", str(to),
                "--zero", "--positive", "--bound", str(KPUSH_BOUND)],
               _kpush_check(pres, vec, to)),
            Op("check/%s/telescope" % name,
               ["telescope", path, "--levels", ",".join(map(str, kept))],
               _telescope_check(pres, kept)),
        ]
    return ops


WORKLOADS = {"chain": build_chain, "walk": build_walk, "check": build_check}
