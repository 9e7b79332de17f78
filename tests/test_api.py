"""The package's public names and the module globals the benchmark wraps."""

import ast
import importlib
import pkgutil
from collections import Counter
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


# the module globals perfbench/worker.py wraps to time setup_s (problem and
# mesh) and solve_s (run), and to read each solve's L2 error
BENCHMARK_HOOKS = {
    "cli": ("manufactured_problem", "run", "l2_error"),
    "study": ("manufactured_problem", "build_uniform_mesh", "run", "l2_error"),
}


def test_benchmark_hooks_see_every_setup_and_solve(tmp_path, monkeypatch):
    # every problem, mesh and solve of a CLI run goes through a wrapped
    # name, so no setup or solve time can leave setup_s or solve_s unseen
    from pxdg.cli import main
    seen = []  # (hook, args, result) per wrapped call

    def counting(hook, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.append((hook, args, out))
            return out
        return wrapper

    for name, attrs in BENCHMARK_HOOKS.items():
        module = importlib.import_module(f"pxdg.{name}")
        for attr in attrs:
            monkeypatch.setattr(module, attr,
                                counting(f"{name}.{attr}", getattr(module, attr)))
    out = str(tmp_path / "out.csv")
    assert main(["solve", "--b", "0.5", "--nx", "4", "--ny", "3",
                 "--out", out]) == 0
    assert main(["study", "--b", "0,0.5", "--nx", "3,4", "--out", out]) == 0
    assert Counter(hook for hook, _, _ in seen) == {
        "cli.manufactured_problem": 1, "cli.run": 1, "cli.l2_error": 1,
        "study.manufactured_problem": 2, "study.build_uniform_mesh": 5,
        "study.run": 4, "study.l2_error": 4}
    made = [res for hook, _, res in seen
            if hook.endswith(("manufactured_problem", "build_uniform_mesh"))]
    for hook, args, _ in seen:
        if hook.endswith("manufactured_problem"):
            # the worker reads b as the one positional argument
            assert len(args) == 1 and isinstance(args[0], float)
        elif hook.endswith("run"):
            assert any(args[0].mesh is res for res in made), hook
        elif hook.endswith("l2_error"):
            assert any(args[1] is res for res in made), hook
