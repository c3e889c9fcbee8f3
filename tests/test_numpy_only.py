"""The package is numpy-only: every ``ctrlab`` module imports only from
numpy, the standard library and ``ctrlab`` itself. And it touches no
global random state: randomness comes only from generators built with
``np.random.default_rng``, which byte-identical reports need."""

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


# The numpy.random names that build or type a generator of one's own.
SEEDED_RANDOM = {"default_rng", "SeedSequence", "Generator"}
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
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


def global_random_uses(path: Path) -> list:
    """Every ``np.random.<name>`` or ``numpy.random.<name>``, and every
    name imported from ``numpy.random``, outside SEEDED_RANDOM, and every
    import of the standard library's ``random``, in source order."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr not in SEEDED_RANDOM:
            parent = node.value
            if (isinstance(parent, ast.Attribute) and parent.attr == "random"
                    and isinstance(parent.value, ast.Name)
                    and parent.value.id in ("np", "numpy")):
                uses.append((node.lineno, f"{parent.value.id}.random."
                             f"{node.attr}"))
        elif isinstance(node, ast.Import):
            uses.extend((node.lineno, f"import {a.name}") for a in node.names
                        if a.name.split(".")[0] == "random")
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] == "random":
                uses.append((node.lineno, f"from {node.module} import"))
            elif node.module == "numpy.random":
                uses.extend((node.lineno, f"from numpy.random import {a.name}")
                            for a in node.names
                            if a.name not in SEEDED_RANDOM)
    return [use for _, use in sorted(uses)]


@pytest.mark.parametrize("module", MODULES)
def test_module_touches_no_global_random_state(module):
    uses = global_random_uses(PACKAGE / module)
    assert not uses, f"ctrlab/{module} uses global random state: {uses}"


def test_scan_sees_global_random_state(tmp_path):
    """The scan reads each form, also inside a function, and lets the
    seeded generator's names through."""
    path = tmp_path / "m.py"
    path.write_text(
        "import random\nimport numpy as np\nfrom random import shuffle\n"
        "from numpy.random import default_rng, rand\n"
        "rng = np.random.default_rng(np.random.SeedSequence(1))\n"
        "def f(g: np.random.Generator):\n"
        "    np.random.seed(0)\n    return numpy.random.normal()\n",
        encoding="utf-8")
    assert global_random_uses(path) == [
        "import random", "from random import",
        "from numpy.random import rand", "np.random.seed",
        "numpy.random.normal"]
