"""Every name a csplab module exports, and every top-level function or class
it defines, is reached by something other than its own unit tests: a family
builder, a CLI command, a demo, the benchmark harness, the acceptance gate
or a test oracle.

The scan is syntactic.  A name counts as referenced where it appears as a
name, as an attribute, or as a string constant equal to it (the benchmark
tracer names the functions it wraps as strings).  Imports and ``__all__``
lists do not count, so a re-export in ``csplab/__init__.py`` keeps nothing
alive.  A reference inside a top-level ``def`` or ``class`` counts only once
that definition is itself reached, so neither recursion nor a chain of
otherwise unused helpers keeps a name alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "csplab"

# Reached by no caller yet; kept as the size check of the planned
# Fuss-Catalan families (see ROADMAP.md).
EXEMPT = {"fuss_catalan"}

DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _exports(tree):
    """The module's ``__all__``, or its public top-level names without one."""
    for node in tree.body:
        if _is_all(node):
            return [elt.value for elt in node.value.elts]
    names = []
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def _references(node):
    """The names, attributes and string constants under node."""
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _callers():
    """Every file outside src/ whose references count."""
    tests = ROOT / "tests"
    return [
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        tests / "test_acceptance.py",
        *sorted(tests.glob("*_oracle.py")),
    ]


def reached_names(modules, callers):
    """Names referenced by the callers or by module-level code, and, until
    nothing changes, by each top-level definition whose name is reached."""
    reached = set()
    definitions = []  # (name, the references in its body)
    for tree in callers:
        reached |= _references(tree)
    for tree in modules:
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                definitions.append((node.name, _references(node)))
            elif not (_is_all(node) or isinstance(node, (ast.Import, ast.ImportFrom))):
                reached |= _references(node)
    grew = True
    while grew:
        grew = False
        for name, refs in definitions:
            if name in reached and not refs <= reached:
                reached |= refs
                grew = True
    return reached


def unreached_names():
    modules = {
        path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    reached = reached_names(modules.values(), map(_parse, _callers()))
    unreached = []
    for name, tree in modules.items():
        defined = [node.name for node in tree.body if isinstance(node, DEFINITIONS)]
        for export in dict.fromkeys(_exports(tree) + defined):
            if export not in reached and export not in EXEMPT:
                unreached.append(f"{name}.{export}")
    return unreached


def test_every_export_is_reached():
    unreached = unreached_names()
    assert not unreached, "reached by nothing: " + ", ".join(unreached)


def test_scan_reads_strings_and_skips_unreached_definitions():
    module = ast.parse(
        "__all__ = ['f', 'g', 'h', 'k']\n"
        "def f():\n    return f() + h()\n"
        "def g():\n    return k()\n"
        "TARGETS = [('m', 'g')]\n"
    )
    assert _exports(module) == ["f", "g", "h", "k"]
    reached = reached_names([module], [])
    assert {"g", "k"} <= reached
    assert not {"f", "h"} & reached
    assert "f" in reached_names([module], [ast.parse("f()")])
