"""Spans around the program's layers, installed from outside the program.

``Tracer.install()`` replaces every public function, every public method
and every constructor of public classes in the eight layer modules with
a wrapper that opens a span, so nothing under ``src/`` changes.  Module
functions are replaced in every ``bratteli`` module that imported them,
since ``from .x import f`` copies the reference.

A span has a name, a parent, the operation it belongs to, its start and
end, and its busy time.  For a plain call busy time is the duration.  A
generator's span covers its whole iteration, from the call to the last
item, but it is busy only while the generator runs; the consumer's work
between items stays with the consumer.  Self time is busy time minus the
busy time of the spans opened while it ran.  A function that is already
running gets no span when it is entered again, so recursion through the
module global (``enumerate_paths``) yields one span for the outermost
call.

Functions named as counted-only (plain accessors called up to a million
times a pass, where a span would cost more than the call) are counted
but get no span; their time stays with the span that called them.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "diagram", "order", "vershik", "dynamics", "transgraph",
          "ktheory", "realize")


class Tracer:
    def __init__(self):
        self.names = []       # "layer.qualname" per function id
        self.layer = []       # layer of each function id
        self.keep = False     # record individual spans
        self.op = -1          # operation the next spans belong to
        self.cols = {c: array("d") for c in ("start", "end", "busy", "self")}
        self.cols.update({c: array("l") for c in ("name", "parent", "op")})
        self.reset()

    def reset(self):
        """Forget the aggregates; recorded spans stay."""
        self.calls = Counter()      # function id -> spans
        self.busy = Counter()       # function id -> busy seconds
        self.self_time = Counter()  # function id -> self seconds
        self.errors = Counter()     # layer -> DiagramError raised there
        self.counts = Counter()     # named counters fed by result hooks
        self._stack = []            # [sid, fid, child seconds]
        self._active = Counter()    # function id -> open spans
        self._last_error = None

    # -- spans ---------------------------------------------------------

    def _enter(self, fid):
        sid = -1
        if self.keep:
            sid = len(self.cols["name"])
            self.cols["name"].append(fid)
            self.cols["parent"].append(self._stack[-1][0]
                                       if self._stack else -1)
            self.cols["op"].append(self.op)
            for c in ("start", "end", "busy", "self"):
                self.cols[c].append(0.0)
        self.calls[fid] += 1
        return sid

    def _resume(self, sid, fid):
        self._active[fid] += 1
        self._stack.append([sid, fid, 0.0])
        return time.perf_counter()

    def _suspend(self, t0):
        dt = time.perf_counter() - t0
        sid, fid, child = self._stack.pop()
        self._active[fid] -= 1
        self.busy[fid] += dt
        self.self_time[fid] += dt - child
        if self._stack:
            self._stack[-1][2] += dt
        if sid >= 0:
            self.cols["busy"][sid] += dt
            self.cols["self"][sid] += dt - child
        return dt

    def _stamp(self, sid, start):
        if sid >= 0:
            self.cols["start"][sid] = start
            self.cols["end"][sid] = time.perf_counter()

    def _error(self, fid, exc, error_type):
        if isinstance(exc, error_type) and exc is not self._last_error:
            self._last_error = exc
            self.errors[self.layer[fid]] += 1

    def _wrap(self, fn, fid, error_type, hook, counted):
        tracer = self

        if counted:
            def count_wrapper(*args, **kwargs):
                tracer.calls[fid] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    tracer._error(fid, exc, error_type)
                    raise
            wrapper = count_wrapper
        elif inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                if tracer._active[fid]:
                    return fn(*args, **kwargs)
                sid = tracer._enter(fid)
                return tracer._iterate(fn(*args, **kwargs), sid, fid,
                                       error_type, hook, time.perf_counter())
            wrapper = gen_wrapper
        else:
            def wrapper(*args, **kwargs):
                if tracer._active[fid]:
                    return fn(*args, **kwargs)
                sid = tracer._enter(fid)
                start = t0 = tracer._resume(sid, fid)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer._error(fid, exc, error_type)
                    raise
                finally:
                    tracer._suspend(t0)
                    tracer._stamp(sid, start)
                if hook is not None:
                    hook(tracer.counts, result)
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _iterate(self, gen, sid, fid, error_type, hook, start):
        try:
            while True:
                t0 = self._resume(sid, fid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException as exc:
                    self._error(fid, exc, error_type)
                    raise
                finally:
                    self._suspend(t0)
                if hook is not None:
                    hook(self.counts, item)
                yield item
        finally:
            gen.close()
            self._stamp(sid, start)

    # -- installation ----------------------------------------------------

    def install(self, hooks, counted):
        """Wrap the layers of the imported ``bratteli`` package.

        ``hooks`` maps "layer.qualname" to a function called with the
        counters and each result (each item, for a generator); names in
        ``counted`` get counted-only wrappers.
        """
        self._counted = set(counted)
        from bratteli._report import DiagramError
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "bratteli" or name.startswith("bratteli.")]
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules["bratteli." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._add(layer, obj, DiagramError,
                                              hooks)
                elif inspect.isclass(obj):
                    for name, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                                not name.startswith("_")
                                or name == "__init__"):
                            setattr(obj, name, self._add(layer, fn,
                                                         DiagramError,
                                                         hooks))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        missing = (set(hooks) | self._counted) - set(self.names)
        if missing:
            raise RuntimeError("no public function %s to trace"
                               % ", ".join(sorted(missing)))

    def _add(self, layer, fn, error_type, hooks):
        fid = len(self.names)
        name = "%s.%s" % (layer, fn.__qualname__)
        self.names.append(name)
        self.layer.append(layer)
        return self._wrap(fn, fid, error_type, hooks.get(name),
                          name in self._counted)

    # -- results -----------------------------------------------------------

    def per_layer(self):
        """Calls and self seconds per layer, errors, and per-function calls
        and busy seconds, from the aggregates since the last reset."""
        calls, self_s = Counter(), Counter()
        for fid, n in self.calls.items():
            calls[self.layer[fid]] += n
            self_s[self.layer[fid]] += self.self_time[fid]
        by_name = {self.names[fid]: (n, self.busy[fid])
                   for fid, n in self.calls.items()}
        return calls, self_s, Counter(self.errors), by_name

    def write(self, path, extra):
        """Write the recorded spans, one column per field, gzip JSON."""
        t0 = min(self.cols["start"], default=0.0)
        cols = {c: list(v) for c, v in self.cols.items()
                if v.typecode == "l"}
        for c in ("start", "end"):
            cols[c + "_us"] = [round((t - t0) * 1e6) for t in self.cols[c]]
        for c in ("busy", "self"):
            cols[c + "_us"] = [round(t * 1e6) for t in self.cols[c]]
        doc = {"names": self.names, "columns": cols,
               "note": "span i has columns[*][i]; parent -1 marks an "
                       "op's root span; op indexes the ops list; times in "
                       "microseconds from the first span's start"}
        doc.update(extra)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
