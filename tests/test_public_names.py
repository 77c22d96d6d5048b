"""Every public name is reached by the command line or says why it stays.

Name references are followed through the AST of ``src/bratteli/*.py``,
starting from ``cli.main`` and the ``cmd_*`` functions.  A reached
function, class or constant reaches every name its body mentions; a
name bound by ``from .x import y`` resolves to ``y`` in module ``x``.
A submodule counts as reached once one of its definitions is.  Names
the command line never reaches must be listed, with a reason, under
"Library-only names" in the README.
"""

import ast
import os
import re

import bratteli

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src", "bratteli")


def _modules():
    """Per module: its top-level definitions and its relative imports."""
    out = {}
    for fname in sorted(os.listdir(_SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(_SRC, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        defs, imports = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            defs[n.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (node.module,
                                                           alias.name)
        out[fname[:-3]] = (defs, imports)
    return out


def _resolve(mods, module, name):
    """The (module, name) that defines ``name`` as seen from ``module``."""
    seen = set()
    while (module, name) not in seen:
        seen.add((module, name))
        defs, imports = mods[module]
        if name in defs:
            return module, name
        if name not in imports:
            return None
        module, name = imports[name]
    return None


def _reached():
    mods = _modules()
    cli_defs = mods["cli"][0]
    todo = [("cli", n) for n in cli_defs
            if n == "main" or n.startswith("cmd_")]
    reached = set(todo)
    while todo:
        module, name = todo.pop()
        node = mods[module][0][name]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                target = _resolve(mods, module, sub.id)
                if target is not None and target not in reached:
                    reached.add(target)
                    todo.append(target)
    return mods, reached


def _library_only():
    """Names listed under the README's "Library-only names" heading."""
    with open(os.path.join(_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    m = re.search(r"^## Library-only names\n(.*?)(?=^## |\Z)", text,
                  re.S | re.M)
    assert m, "README has no Library-only names section"
    names = []
    for line in m.group(1).splitlines():
        if line.startswith("- "):
            names.extend(re.findall(r"`(\w+)`", line.split(":")[0]))
    return names


def _public_definitions(mods):
    """Each __all__ name with the (module, name) that defines it, or
    None for a submodule."""
    out = {}
    for name in bratteli.__all__:
        if name in mods:
            out[name] = None
        else:
            target = _resolve(mods, "__init__", name)
            assert target is not None, name
            out[name] = target
    return out


def test_every_public_name_is_reached_or_listed():
    mods, reached = _reached()
    reached_modules = {m for m, _ in reached}
    listed = set(_library_only())
    unexplained = []
    for name, target in sorted(_public_definitions(mods).items()):
        hit = (name in reached_modules if target is None
               else target in reached)
        if not hit and name not in listed:
            unexplained.append(name)
    assert unexplained == []


def test_every_listed_name_exists_and_is_not_reached():
    mods, reached = _reached()
    public = _public_definitions(mods)
    listed = _library_only()
    assert listed
    assert len(listed) == len(set(listed))
    for name in listed:
        assert name in public, name
        assert public[name] not in reached, \
            "%s is reached from the command line; unlist it" % name
