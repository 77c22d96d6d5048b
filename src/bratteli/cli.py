"""Command line front end over the library.

Every command is a pure function of its input files and flags, so
repeated invocations print byte-identical output.  Exit codes follow
the verdict lattice: 0 when everything asked for Holds, 1 when a check
Fails (the counterexample is in the output), 2 on usage or parse
errors, 3 when a verdict stayed Unknown within budget, 4 when the
program itself broke (a bug, never a verdict).  With --strict an
Unknown exits 1 instead.

Paths on the command line are written END:r1,r2,...,rN with one-based
fiber ranks, deepest edge last; the same shape the orbit and chain
commands print, minus the source annotations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii as _ascii

from ._report import FAILS, HOLDS, DiagramError, ValidationReport, worst
from .diagram import (DEFAULT_BUDGET, _read_json, load_diagram, telescope,
                      validate_unordered)
from .dynamics import (Diverges, chain_transitive, cover_steps,
                       cylinder_graph, epsilon_chain, pseudo_orbit,
                       saturation_sizes, tower_graph)
from .ktheory import (bounded_norm_membership, check_index_relations,
                      class_is_zero, index_elements, is_positive, pushforward,
                      rational_rank_lower_bound)
from .order import (MIN, _chains, extreme_path, make_path, marker_level,
                    validate_ordered)
from .realize import load_dvectors, synthesize_order
from .transgraph import index_pushforward, transition_graph
from .vershik import Maximal, orbit, towers


def _budget(args):
    if args.budget is not None:
        return args.budget
    env = os.environ.get("BDK_BUDGET")
    if env is None:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        raise DiagramError("BDK_BUDGET must be an integer, got %r" % env)
    if value < 0:
        raise DiagramError("BDK_BUDGET must be at least 0, got %d" % value)
    return value


def _emit(text, args):
    """Write text to -o FILE or stdout.  A JSON document (anything but a
    str) is written as ``json.dumps(doc, indent=2, default=str)`` plus a
    newline would be, piece by piece instead of as one string."""
    out = getattr(args, "output", None)
    with open(out, "w") if out else nullcontext(sys.stdout) as fh:
        if isinstance(text, str):
            fh.write(text)
        else:
            _write_json(text, fh.write, "\n")
            fh.write("\n")


def _write_json(obj, write, indent):
    # strings are escaped as json escapes them and containers laid out as
    # indent=2 lays them out; every other leaf and key goes to json.dumps
    if isinstance(obj, str):
        write(_ascii(obj))
    elif not isinstance(obj, (dict, list, tuple)):
        write(json.dumps(obj, default=str))
    elif not obj:
        write("{}" if isinstance(obj, dict) else "[]")
    else:
        inner = indent + "  "
        keyed = isinstance(obj, dict)
        sep = "{" if keyed else "["
        for item in obj:
            head = sep + inner
            if keyed:
                head += _ascii(item if isinstance(item, str)
                               else json.dumps(item, default=str)) + ": "
                item = obj[item]
            if isinstance(item, str):
                write(head + _ascii(item))
            else:
                write(head)
                _write_json(item, write, inner)
            sep = ","
        write(indent + ("}" if keyed else "]"))


def _exit_for(overall, args):
    if overall == HOLDS:
        return 0
    if overall == FAILS:
        return 1
    return 1 if getattr(args, "strict", False) else 3


def _parse_path(d, text):
    head, sep, tail = text.rpartition(":")
    if not sep:
        raise DiagramError("path syntax is END:r1,r2,... with one-based "
                           "ranks, got %r" % text)
    try:
        ranks = tuple(int(r) - 1 for r in tail.split(","))
    except ValueError:
        raise DiagramError("bad rank list in %r" % text)
    if any(r < 0 for r in ranks):
        raise DiagramError("ranks are counted from one in %r" % text)
    return make_path(d, head, ranks)


def _report_lines(rep):
    lines = []
    for c in rep.checks:
        tail = ""
        if c.witness is not None:
            tail = "  %s" % json.dumps(c.witness, sort_keys=True, default=str)
        lines.append("%-24s %s%s" % (c.property, c.verdict, tail))
    for note in rep.findings:
        lines.append("note: %s" % note)
    return lines


def cmd_validate(args):
    d = load_diagram(args.diagram)
    budget = _budget(args)
    rep = (validate_ordered(d, budget) if args.ordered
           else validate_unordered(d, budget))
    if args.format == "text":
        body = "\n".join(_report_lines(rep) + ["overall: %s" % rep.overall()])
        _emit(body + "\n", args)
    else:
        _emit(rep.to_json(), args)
    return _exit_for(rep.overall(), args)


def cmd_telescope(args):
    d = load_diagram(args.diagram)
    try:
        levels = [int(x) for x in args.levels.split(",")]
    except ValueError:
        raise DiagramError("--levels wants a comma list of integers")
    out = telescope(d, levels)
    if args.format == "text":
        _emit(out.to_text(), args)
    else:
        _emit(out.to_json(), args)
    return 0


def cmd_towers(args):
    d = load_diagram(args.diagram)
    part = towers(d, args.level)
    floors = {v: part.tower(v, text=True) for v in part.vertices}
    if args.format == "text":
        lines = []
        for v in part.vertices:
            lines.append("%s (height %d)" % (v, len(floors[v])))
            lines.extend("  " + f for f in floors[v])
        _emit("\n".join(lines) + "\n", args)
    else:
        _emit({"level": part.level,
               "towers": [{"vertex": v, "height": len(floors[v]),
                           "floors": floors[v]} for v in part.vertices]},
              args)
    return 0


def cmd_orbit(args):
    d = load_diagram(args.diagram)
    p = _parse_path(d, args.start)
    paths, terminal = orbit(d, p, args.steps, reverse=args.reverse,
                            text=True)
    stop = None
    if terminal is not None:
        stop = {"kind": "maximal" if isinstance(terminal, Maximal)
                else "minimal",
                "component": terminal.component}
    if args.format == "text":
        if stop is not None:
            paths.append("stopped: %s(%s)" % (stop["kind"],
                                              stop["component"]))
        _emit("\n".join(paths) + "\n", args)
    else:
        _emit({"paths": paths, "terminal": stop}, args)
    return 0


def _first_level(d):
    """The marker level, at least 2: the first level with index vectors.

    On a stationary diagram it can lie past the presentation.
    """
    L, verdict, wit = marker_level(d)
    if L is None:
        raise DiagramError("markers never resolve: %s" % (wit,))
    return max(2, L)


def _resolved_graphs(d):
    return [transition_graph(d, n)
            for n in range(_first_level(d), d.depth + 1)]


def cmd_transition_graphs(args):
    d = load_diagram(args.diagram)
    graphs = ([transition_graph(d, args.level)] if args.level is not None
              else _resolved_graphs(d))
    if args.format == "dot":
        _emit("\n".join(g.to_dot() for g in graphs), args)
    elif args.format == "text":
        lines = []
        for g in graphs:
            lines.append("level %d" % g.level)
            lines.extend("  %s: Y%d -> Y%d" % (v, i, j)
                         for v, i, j in g.edges)
        _emit("\n".join(lines) + "\n", args)
    else:
        _emit([g.to_json() for g in graphs], args)
    return 0


def cmd_index(args):
    d = load_diagram(args.diagram)
    s = index_elements(d, args.level if args.level is not None
                       else _first_level(d))
    if args.format == "text":
        lines = ["level %d" % s.level]
        for i, vec in enumerate(s.elements, start=1):
            lines.append("d%d = (%s) over %s"
                         % (i, ", ".join("%+d" % x for x in vec),
                            ", ".join(s.vertices)))
        _emit("\n".join(lines) + "\n", args)
    else:
        _emit(s.to_json(), args)
    return 0


def cmd_check_index(args):
    d = load_diagram(args.diagram)
    n = args.level if args.level is not None else _first_level(d)
    s = index_elements(d, n)
    rep = check_index_relations(s, _resolved_graphs(d))
    size, rank_rep = rational_rank_lower_bound(d, n)
    push_rep = index_pushforward(d)
    checks = rep.checks + rank_rep.checks + push_rep.checks
    overall = worst(c.verdict for c in checks)
    doc = {"level": n, "V_o_size": size,
           "checks": [c.to_json() for c in checks],
           "overall": overall}
    if args.format == "text":
        lines = []
        for hold in (rep, rank_rep, push_rep):
            lines.extend(_report_lines(hold))
        lines.append("overall: %s" % overall)
        _emit("\n".join(lines) + "\n", args)
    else:
        _emit(doc, args)
    return _exit_for(overall, args)


def cmd_synthesize(args):
    d = load_diagram(args.diagram)
    dv = load_dvectors(args.d)
    out = synthesize_order(d, dv)
    if args.format == "text":
        _emit(out.to_text(), args)
    else:
        _emit(out.to_json(), args)
    return 0


def cmd_chain(args):
    d = load_diagram(args.diagram)
    if args.start is None:
        if args.depth is None:
            raise DiagramError("chain needs either a start path or --depth")
        if args.format == "dot":
            _emit(cylinder_graph(d, args.depth).to_dot(), args)
            return 0
        g = tower_graph(d, args.depth)
        verdict, wit = chain_transitive(d, args.depth, graph=g)
        sat = saturation_sizes(d, args.depth, graph=g)
        doc = {"depth": args.depth, "nodes": g.size,
               "chain_transitive": verdict, "witness": wit,
               "saturation": {"Y%d" % i: size
                              for i, size in sorted(sat.items())}}
        if args.format == "text":
            lines = ["chain_transitive %s nodes=%d" % (verdict, g.size)]
            lines.extend("E%d covers %d/%d" % (i, size, g.size)
                         for i, size in sorted(sat.items()))
            _emit("\n".join(lines) + "\n", args)
        else:
            _emit(doc, args)
        return _exit_for(verdict, args)
    p = _parse_path(d, args.start)
    if args.closed:
        walk = pseudo_orbit(d, p, text=True)
    else:
        if args.end is None:
            raise DiagramError("chain needs an end path unless --closed")
        q = _parse_path(d, args.end)
        walk = epsilon_chain(d, p, q, text=True)
    if args.format == "text":
        _emit("\n".join(walk) + "\n", args)
    else:
        _emit(walk, args)
    return 0


def _cover_set(d, args):
    if args.set is not None:
        entries = _read_json(args.set)
        if (not isinstance(entries, list) or not entries
                or not all(isinstance(e, str) for e in entries)):
            raise DiagramError("--set wants a JSON array of path strings")
        return [_parse_path(d, e) for e in entries]
    chains = _chains(d, MIN)
    cyls = []
    for i in range(1, d.k + 1):
        z = chains.vertex(i, args.depth)
        if z is None:
            raise DiagramError("cannot locate the minimal path of component "
                               "%d at depth %d" % (i, args.depth))
        cyls.append(extreme_path(d, z, args.depth, MIN))
    return cyls


def cmd_cover(args):
    d = load_diagram(args.diagram)
    cyls = _cover_set(d, args)
    res = cover_steps(d, cyls, direction=args.direction)
    if isinstance(res, Diverges):
        doc = {"diverges": {"steps": res.steps,
                            "uncovered": list(res.uncovered)}}
        code = 1
    else:
        doc = {"steps": res, "direction": args.direction,
               "depth": cyls[0].depth}
        code = 0
    if args.format == "text":
        if code:
            _emit("diverges after %d steps, %d cylinders uncovered\n"
                  % (res.steps, len(res.uncovered)), args)
        else:
            _emit("%d\n" % res, args)
    else:
        _emit(doc, args)
    return code


def cmd_kpush(args):
    d = load_diagram(args.diagram)
    try:
        vec = tuple(int(x) for x in args.vec.split(","))
    except ValueError:
        raise DiagramError("--vec wants a comma list of integers")
    budget = _budget(args)
    # pushing to its own level checks the level and the vector length
    pushforward(d, (args.level, vec), args.level, ideal=args.ideal)
    doc = {"level": args.level, "vector": list(vec)}
    rep = ValidationReport()
    if args.to is not None:
        lvl, moved = pushforward(d, (args.level, vec), args.to,
                                 ideal=args.ideal)
        doc["pushforward"] = {"level": lvl, "vector": list(moved)}
    if args.zero:
        rep.add("class_is_zero", *class_is_zero(
            d, args.level, vec, ideal=args.ideal, depth_budget=budget))
    if args.positive:
        rep.add("is_positive", *is_positive(
            d, args.level, vec, ideal=args.ideal, depth_budget=budget))
    if args.bound is not None:
        rep.add("bounded_norm_membership", *bounded_norm_membership(
            d, args.level, vec, args.bound, ideal=args.ideal,
            depth_budget=budget))
    if rep.checks:
        doc["checks"] = [c.to_json() for c in rep.checks]
        doc["overall"] = rep.overall()
    if args.format == "text":
        lines = ["(%s) at level %d" % (", ".join(str(x) for x in vec),
                                       args.level)]
        if "pushforward" in doc:
            lines.append("-> level %d: (%s)"
                         % (args.to, ", ".join(str(x) for x in
                                               doc["pushforward"]["vector"])))
        _emit("\n".join(lines + _report_lines(rep)) + "\n", args)
    else:
        _emit(doc, args)
    return _exit_for(rep.overall(), args)


def _count(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0, got %d" % value)
    return value


def _add_common(sp, fmt=("json", "text")):
    sp.add_argument("diagram", help="diagram JSON file")
    sp.add_argument("--format", choices=fmt, default="json")
    sp.add_argument("-o", "--output", metavar="FILE",
                    help="write output here instead of stdout")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="bratteli",
        description="k-simple ordered Bratteli diagrams and their dynamics")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the simplicity and order "
                        "axioms")
    _add_common(sp)
    sp.add_argument("--ordered", action="store_true",
                    help="also check the order conditions")
    sp.add_argument("--budget", type=_count, default=None,
                    help="extra levels to search (default BDK_BUDGET or 10)")
    sp.add_argument("--strict", action="store_true",
                    help="treat Unknown as failure")

    sp = sub.add_parser("telescope", help="contract to a subsequence of "
                        "levels")
    _add_common(sp)
    sp.add_argument("--levels", required=True,
                    help="comma list of retained levels starting at the "
                    "root, e.g. 0,1,3")

    sp = sub.add_parser("towers", help="print the Kakutani-Rokhlin towers "
                        "of one level")
    _add_common(sp)
    sp.add_argument("--level", type=int, default=1)

    sp = sub.add_parser("orbit", help="iterate the successor map from a "
                        "path")
    _add_common(sp)
    sp.add_argument("--start", required=True, metavar="PATH",
                    help="path as END:r1,r2,... with one-based ranks")
    sp.add_argument("--steps", type=_count, required=True)
    sp.add_argument("--reverse", action="store_true",
                    help="iterate the predecessor map instead")

    sp = sub.add_parser("transition-graphs", help="the graphs L_n read off "
                        "the markers")
    _add_common(sp, fmt=("json", "text", "dot"))
    sp.add_argument("--level", type=int, default=None,
                    help="one level only (default: every resolvable level)")

    sp = sub.add_parser("index", help="index vectors of the remainder "
                        "vertices")
    _add_common(sp)
    sp.add_argument("--level", type=int, default=None,
                    help="level to read (default: first resolvable)")

    sp = sub.add_parser("check-index", help="relations, rank and transport "
                        "of the index vectors")
    _add_common(sp)
    sp.add_argument("--level", type=int, default=None)
    sp.add_argument("--strict", action="store_true")

    sp = sub.add_parser("synthesize", help="order an unordered diagram from "
                        "prescribed d-vectors")
    _add_common(sp)
    sp.add_argument("--d", required=True, metavar="FILE",
                    help="d-vector JSON file")

    sp = sub.add_parser("chain", help="epsilon-chains between cylinders, "
                        "or the transitivity report")
    _add_common(sp, fmt=("json", "text", "dot"))
    sp.add_argument("--start", metavar="PATH", default=None)
    sp.add_argument("--end", metavar="PATH", default=None)
    sp.add_argument("--closed", action="store_true",
                    help="shortest closed chain through the start path")
    sp.add_argument("--depth", type=int, default=None,
                    help="cylinder depth for the transitivity report")
    sp.add_argument("--strict", action="store_true")

    sp = sub.add_parser("cover", help="steps until the sweep of a cylinder "
                        "set covers everything")
    _add_common(sp)
    sp.add_argument("--set", metavar="FILE", default=None,
                    help="JSON array of paths (default: the k minimal "
                    "cylinders)")
    sp.add_argument("--depth", type=int, default=3,
                    help="cylinder depth for the default set")
    sp.add_argument("--direction", choices=("forward", "backward"),
                    default="forward")

    sp = sub.add_parser("kpush", help="transport a K-theory vector and "
                        "test its class")
    _add_common(sp)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--vec", required=True,
                    help="comma list of integers over the vertex listing")
    sp.add_argument("--to", type=int, default=None,
                    help="push forward to this level")
    sp.add_argument("--ideal", action="store_true",
                    help="work in the ideal subdiagram coordinates")
    sp.add_argument("--zero", action="store_true",
                    help="test whether the class is zero")
    sp.add_argument("--positive", action="store_true",
                    help="test positivity of the class")
    sp.add_argument("--bound", type=int, default=None, metavar="M",
                    help="test membership in the norm-M bounded part")
    sp.add_argument("--budget", type=_count, default=None)
    sp.add_argument("--strict", action="store_true")

    return ap


_parser = None


def main(argv=None):
    # built once: parsing leaves no state in it, each call gets new args
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except DiagramError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug, not a verdict: say so, keep the traceback for the report
        import traceback
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
