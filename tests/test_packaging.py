import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_entry_points() -> list:
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    groups = [project.get("scripts", {}), project.get("gui-scripts", {})]
    groups += project.get("entry-points", {}).values()
    return [target for group in groups for target in group.values()]


def test_every_entry_point_imports():
    for target in declared_entry_points():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module.strip())
        attr = attr.split("[")[0].strip()  # drop any [extras]
        for part in attr.split(".") if attr else []:
            obj = getattr(obj, part)
        assert callable(obj) or not attr, target
