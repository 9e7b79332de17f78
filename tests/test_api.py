"""The package's public names: every submodule's __all__ is importable."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pxdg

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(pxdg.__path__))

# the console entry point, not library API
NOT_REEXPORTED = {"cli"}


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve_and_are_reexported(name):
    module = importlib.import_module(f"pxdg.{name}")
    assert module.__all__
    for attr in module.__all__:
        assert hasattr(module, attr), f"pxdg.{name}.__all__ lists {attr}"
        if name not in NOT_REEXPORTED:
            assert getattr(pxdg, attr, None) is getattr(module, attr), \
                f"pxdg does not re-export pxdg.{name}.{attr}"


@pytest.mark.parametrize("name", sorted(
    {"__init__"} | set(SUBMODULES) - {"cli"}))
def test_only_the_cli_writes_files(name):
    # file formats have one owner: library callers get arrays and records
    source = Path(pxdg.__path__[0], f"{name}.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            assert "csv" not in {a.name for a in node.names}, name
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "csv", name
        elif isinstance(node, ast.Call):
            func = node.func
            called = getattr(func, "id", getattr(func, "attr", None))
            assert called != "open", f"pxdg.{name} opens a file"
