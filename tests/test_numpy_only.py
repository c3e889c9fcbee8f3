"""The package is numpy-only: every ``ctrlab`` module imports only from
numpy, the standard library and ``ctrlab`` itself."""

import ast
import sys
from pathlib import Path

import pytest

import ctrlab

PACKAGE = Path(ctrlab.__file__).resolve().parent


def imported_roots(path: Path) -> set:
    """The top-level names of every absolute import in ``path``; a relative
    import is ``ctrlab``'s own."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("ctrlab" if node.level else node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_only_numpy_and_stdlib(module):
    allowed = {"numpy", "ctrlab"} | set(sys.stdlib_module_names)
    foreign = sorted(imported_roots(PACKAGE / module) - allowed)
    assert not foreign, f"ctrlab/{module} imports {foreign}"


def test_scan_sees_a_foreign_import(tmp_path):
    """The scan reads nested and aliased imports, and ``from`` forms."""
    path = tmp_path / "m.py"
    path.write_text("import os.path as p\nfrom . import data\n"
                    "def f():\n    from scipy.stats import rankdata\n"
                    "    import pandas, numpy.linalg\n", encoding="utf-8")
    assert imported_roots(path) == {"os", "ctrlab", "scipy", "pandas",
                                    "numpy"}
