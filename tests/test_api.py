"""The package's public names and the module globals the benchmark wraps."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
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


@pytest.mark.parametrize("name", sorted({"__init__"} | set(SUBMODULES)))
def test_only_the_exponent_field_reads_its_func(name):
    # ExponentField.__call__ checks every value against [p1, p2]; reading
    # .func anywhere else would sample p around that check
    tree = ast.parse(Path(pxdg.__path__[0], f"{name}.py").read_text())
    inside = {id(n) for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "ExponentField"
              for n in ast.walk(node)}
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "func"
             and id(node) not in inside]
    assert not reads, f"pxdg.{name} reads .func at lines {reads}"


def test_only_the_sampler_calls_a_datum():
    # p, xi, u_D and the exact u reach their callables through mesh._sample
    # alone, which holds every result to one shape contract: no call of an
    # attribute xi, u_D or func, or of a name func, outside it
    found = []
    for name in sorted({"__init__"} | set(SUBMODULES)):
        tree = ast.parse(Path(pxdg.__path__[0], f"{name}.py").read_text())
        inside = {id(n) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_sample" for n in ast.walk(node)}
        found += [(name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and (getattr(node.func, "attr", None) in {"xi", "u_D", "func"}
                       or getattr(node.func, "id", None) == "func")]
    assert not found, f"a datum called outside mesh._sample: {found}"


@pytest.mark.parametrize("name", SUBMODULES)
def test_no_module_imports_a_name_it_never_uses(name):
    # __init__ imports to re-export; every other module reads each name it
    # binds by import, so a deleted caller leaves no dead import behind
    tree = ast.parse(Path(pxdg.__path__[0], f"{name}.py").read_text())
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    unused = bound - {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name)}
    assert not unused, f"pxdg.{name} never uses {sorted(unused)}"


def test_every_private_name_and_constant_is_read():
    # a module-level function or class named _x, or constant named X_Y or
    # _x, that no module of the package reads is dead code a refactor left
    # behind; dunder names are exempt
    trees = [ast.parse(Path(pxdg.__path__[0], f"{name}.py").read_text())
             for name in ["__init__", *SUBMODULES]]
    read = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    defined = []
    for node in (n for tree in trees for n in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined += [node.name] if node.name.startswith("_") else []
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined += [t.id for t in targets if isinstance(t, ast.Name)
                        and (t.id.isupper() or t.id.startswith("_"))]
    dead = {name for name in defined
            if not name.startswith("__") and name not in read}
    assert not dead, f"pxdg never reads {sorted(dead)}"


def test_every_system_matrix_field_is_read_by_the_u_solve():
    # SystemMatrix holds what the u-solve reads and nothing more: each field
    # is read as an attribute in solve_linear or _precondition, so no array
    # is kept for the tests alone
    tree = ast.parse(Path(pxdg.__path__[0], "solver.py").read_text())
    read = {node.attr for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            and func.name in {"solve_linear", "_precondition"}
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    fields = {f.name for f in dataclasses.fields(pxdg.solver.SystemMatrix)}
    assert not fields - read, f"never read: {sorted(fields - read)}"


def test_solve_linear_never_returns_a_missing_product():
    # every exit of the u-solve returns the pair (x, A x), the product
    # formed or NaN beside a NaN x, so no caller branches on a missing
    # one: no return of solve_linear puts the constant None in its tuple
    tree = ast.parse(Path(pxdg.__path__[0], "solver.py").read_text())
    func, = (node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and node.name == "solve_linear")
    returns = [node for node in ast.walk(func) if isinstance(node, ast.Return)]
    assert returns and all(isinstance(node.value, ast.Tuple)
                           for node in returns)
    found = [node.lineno for node in returns for item in node.value.elts
             if isinstance(item, ast.Constant) and item.value is None]
    assert not found, f"solve_linear returns None at lines {found}"


def test_only_run_writes_the_solver_state():
    # run owns the SolverState it returns: no other function stores to an
    # attribute of a name state, by plain or augmented assignment, so the
    # step functions return what they did and run records it
    found = []
    for name in sorted({"__init__"} | set(SUBMODULES)):
        tree = ast.parse(Path(pxdg.__path__[0], f"{name}.py").read_text())
        found += [(name, func.name, node.lineno)
                  for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and func.name != "run"
                  for node in ast.walk(func)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and getattr(node.value, "id", None) == "state"]
    assert not found, f"SolverState written outside run: {found}"


def test_only_assemble_matrix_names_float32():
    # the precision of the preconditioner's transforms has one owner:
    # assemble_matrix chooses it, and _precondition reads it off the arrays
    found = []
    for name in sorted({"__init__"} | set(SUBMODULES)):
        tree = ast.parse(Path(pxdg.__path__[0], f"{name}.py").read_text())
        owner = {id(n) for node in ast.walk(tree)
                 if name == "solver" and isinstance(node, ast.FunctionDef)
                 and node.name == "assemble_matrix" for n in ast.walk(node)}
        found += [(name, node.lineno) for node in ast.walk(tree)
                  if "float32" in (getattr(node, "id", None),
                                   getattr(node, "attr", None))
                  and id(node) not in owner]
    assert not found, f"float32 named outside assemble_matrix: {found}"


def test_dg_imports_only_numpy():
    # B and B^T are stencils on numpy arrays: no sparse matrix, and no
    # cache of one, comes back into dg. Beyond numpy it needs only the
    # dataclass decorator and the mesh its fields live on.
    tree = ast.parse(Path(pxdg.__path__[0], "dg.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + node.module)
    assert imported <= {"__future__", "dataclasses", "numpy", ".mesh"}, \
        f"pxdg.dg imports {sorted(imported)}"


def test_no_module_imports_scipy():
    # the package runs on numpy alone: scipy.linalg maps a second OpenBLAS,
    # whose thread pool stalls numpy's products after it, and importing
    # scipy.sparse, which held A until A kept its own bands, raised peak RSS
    # by about 20 MiB
    found = {}
    for name in sorted({"__init__"} | set(SUBMODULES)):
        tree = ast.parse(Path(pxdg.__path__[0], f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                mods = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found.setdefault(name, set()).update(
                mod for mod in mods if mod.split(".")[0] == "scipy")
    assert not {name: mods for name, mods in found.items() if mods}


def test_a_solve_loads_no_scipy(tmp_path):
    # the imports a module makes indirectly too: a fresh interpreter that
    # runs a solve has loaded no scipy module
    code = ("import sys\n"
            "from pxdg.cli import main\n"
            "rc = main(['solve', '--b', '0.5', '--nx', '6', '--alg', '1',\n"
            f"           '--out', {str(tmp_path / 'u.csv')!r}])\n"
            "print(rc, [m for m in sys.modules if m.startswith('scipy')])\n")
    path = [str(Path(pxdg.__path__[0]).parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 []"


def test_readme_library_example_runs():
    # README's python block, run as written in a fresh interpreter with
    # every warning an error, so the documented entry points cannot rot
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    code = blocks[0].split("```")[0]
    path = [str(Path(pxdg.__path__[0]).parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    iterations, error = out.split()
    assert int(iterations) > 0 and 0.0 < float(error) < 1.0


# the module globals perfbench/worker.py wraps to time setup_s (problem and
# mesh) and solve_s (run), and to read each solve's L2 error
BENCHMARK_HOOKS = {
    "cli": ("manufactured_problem", "run", "l2_error"),
    "study": ("manufactured_problem", "build_uniform_mesh", "run", "l2_error"),
}


# the module globals perfbench/worker.py wraps when traced; a name missing
# here would leave its span absent from the trace without an error. Its
# dg.lifting span still wraps the removed lifting_matrices, so it is absent
# until that span is rewired.
TRACED_HOOKS = {
    "solver": ("assemble_matrix", "solve_linear", "_precondition", "_eta_from",
               "eval_Jh"),
    "dg": (),
    "energy": ("edge_weights",),
    "mesh": ("edge_weights",),
}


@pytest.mark.parametrize("name", sorted(TRACED_HOOKS))
def test_traced_benchmark_hooks_exist(name):
    module = importlib.import_module(f"pxdg.{name}")
    for attr in TRACED_HOOKS[name]:
        assert callable(getattr(module, attr, None)), f"pxdg.{name}.{attr}"


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
