"""The package's import rules: every module of ``src/nbwalks`` imports only
the standard library or, relatively, itself (zero runtime dependencies), and
every module but ``__init__`` uses each name it imports.  Its one-routine
rules: one function in the package runs Tarjan's algorithm, and every SCC
split calls it; one place builds an edge space, ``Graph.edge_space``, and
every consumer of a graph reads that.  And its surface rule: every name the
package exports has a reader in the package, the benchmark, the acceptance
suite or README."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "nbwalks").glob("*.py"))


def imports(tree):
    """(module name, relative level) of each import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, 0
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", node.level


def unused_imports(tree):
    """Names bound by the module's imports that no expression reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_imports_are_stdlib_or_relative():
    assert len(SOURCES) > 10
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, level in imports(tree):
            if level == 0:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("import os\nfrom numpy import array\nfrom . import exact\n")
    found = [(n, lv) for n, lv in imports(tree)
             if lv == 0 and n.partition(".")[0] not in sys.stdlib_module_names]
    assert found == [("numpy", 0)]


def test_every_import_is_used():
    for path in SOURCES:
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            assert unused_imports(tree) == [], path.name


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from math import isfinite, lcm as least\nx = least(2, os.sep)\n")
    assert unused_imports(tree) == ["isfinite"]


def scc_routines(tree):
    """Names of the functions that run Tarjan's algorithm: named after it,
    or keeping a low-link (an assigned ``low`` or ``lowlink``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stores = {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            if "tarjan" in node.name.lower() or stores & {"low", "lowlink"}:
                found.append(node.name)
    return found


def test_one_scc_routine():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(path.name, name) for name in scc_routines(tree)]
    assert found == [("exact.py", "_tarjan_sccs")]


def test_the_check_sees_a_second_scc_routine():
    tree = ast.parse("def _tarjan(n):\n    pass\n\n"
                     "def blocks(out):\n    low = [0] * len(out)\n    return low\n\n"
                     "def scc_decompose(g):\n    return _tarjan(g)\n")
    assert scc_routines(tree) == ["_tarjan", "blocks"]


def edge_space_builds(tree):
    """Names of the functions calling ``build_edge_space`` (by name or as an
    attribute), one entry per call; ``<module>`` for a call outside any
    function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "build_edge_space":
                    found.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_one_edge_space_build():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(path.name, name) for name in edge_space_builds(tree)]
    assert found == [("graphs.py", "edge_space")]


def test_the_check_sees_a_second_edge_space_build():
    tree = ast.parse("class Graph:\n    def edge_space(self):\n"
                     "        return build_edge_space(self)\n\n"
                     "def radius(g):\n    es = build_edge_space(g)\n"
                     "    return [edgespace.build_edge_space(h) for h in (g,)]\n\n"
                     "ES = build_edge_space(G)\n")
    assert edge_space_builds(tree) == ["edge_space", "radius", "radius", "<module>"]


def names_read(tree):
    """Names the code reads, bare or as an attribute."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
               and isinstance(n.ctx, ast.Load)})


def unused_exports(exported, readers, acceptance, readme):
    """Exported names that no reader tree reads, the acceptance tree does
    not import from the package, and README does not name in backticks."""
    used = set().union(*map(names_read, readers))
    used |= {a.name for n in ast.walk(acceptance)
             if isinstance(n, ast.ImportFrom) and (n.module or "").startswith("nbwalks")
             for a in n.names}
    used |= set(re.findall(r"`([A-Za-z_]\w*)`", readme))
    return sorted(set(exported) - used)


def test_every_export_has_a_reader():
    init = ast.parse((ROOT / "src" / "nbwalks" / "__init__.py").read_text(encoding="utf-8"))
    exported = next(ast.literal_eval(n.value) for n in init.body if isinstance(n, ast.Assign)
                     and any(getattr(t, "id", None) == "__all__" for t in n.targets))
    assert len(exported) > 40
    readers = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
               for p in SOURCES + sorted((ROOT / "bench").glob("*.py"))
               if p.name != "__init__.py"]
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unused_exports(exported, readers, acceptance, readme) == []


def test_the_check_sees_an_unused_export():
    readers = [ast.parse("import nbwalks\nx = nbwalks.a(b)\nc = 1\n"),
               ast.parse("def d():\n    return e\n")]
    acceptance = ast.parse("from nbwalks import f\nfrom helpers import g\nimport h\n")
    readme = "`i` and `j()` and k, `nbwalks.l`\n```python\nm\n```\n"
    exported = list("abcdefghijklm")
    assert unused_exports(exported, readers, acceptance, readme) == [
        "c", "d", "g", "h", "j", "k", "l", "m"]
