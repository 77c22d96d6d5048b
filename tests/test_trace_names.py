"""The benchmark tracer names functions of the layers by "layer.qualname";
a rename in the library must not leave one of those names dangling.

``bench/loop.py`` is loaded as a plain module (its top level imports
only the standard library) and its counted-only names and result hooks
are resolved against the ``bratteli`` modules the way the tracer does:
a public function or method, or a constructor, defined in that layer.
"""

import importlib
import importlib.util
import inspect
import os

_LOOP = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench",
                     "loop.py")


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_loop", _LOOP)
    loop = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loop)
    return sorted(set(loop.COUNTED_ONLY) | set(loop._trace_hooks()))


def test_traced_names_resolve():
    names = _traced_names()
    assert names
    for name in names:
        layer, *path = name.split(".")
        mod = importlib.import_module("bratteli." + layer)
        owner, obj = mod, mod
        for attr in path:
            owner, obj = obj, getattr(obj, attr, None)
            assert obj is not None, name
        assert inspect.isfunction(obj), name
        assert all(not p.startswith("_") or p == "__init__" for p in path), \
            name
        assert obj.__module__ == mod.__name__, name
        if len(path) == 2:
            assert inspect.isclass(owner) and path[-1] in vars(owner), name
