import importlib
import pkgutil
from pathlib import Path

import pytest

import ctrlab

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_entry_points() -> list:
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
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


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(ctrlab.__path__)))
def test_every_exported_name_exists(name):
    """``from ctrlab.<module> import *`` works: every name a module lists
    in ``__all__`` is defined there."""
    module = importlib.import_module(f"ctrlab.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"ctrlab.{name}.__all__ names {missing}"
