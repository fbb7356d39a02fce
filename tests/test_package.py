"""The package's zero-runtime-dependency rule: every module of
``src/nbwalks`` imports only the standard library or, relatively, itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "nbwalks").glob("*.py"))


def imports(tree):
    """(module name, relative level) of each import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, 0
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", node.level


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
