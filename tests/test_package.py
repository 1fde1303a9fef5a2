"""The package's public surface."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import dcopt
from dcopt import solvers

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in dcopt.__all__ if not hasattr(dcopt, name)]
    assert missing == []
    assert len(set(dcopt.__all__)) == len(dcopt.__all__)


def test_benchmark_names_are_exported():
    # perfbench reads dcopt.<name>; submodules such as dcopt.solvers are not exports
    used = set()
    for script in ("run.py", "probe_rss.py"):
        used |= set(re.findall(r"\bdcopt\.(\w+)", (ROOT / "perfbench" / script).read_text()))
    used = {name for name in used
            if not name.startswith("__") and not inspect.ismodule(getattr(dcopt, name, None))}
    assert {"solve", "generate_instance", "load_instance"} <= used
    assert sorted(used - set(dcopt.__all__)) == []


def test_readme_quick_start_names_are_exported():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"from dcopt import \(([^)]*)\)", readme).group(1)
    names = {name.strip() for name in block.split(",") if name.strip()}
    assert "solve" in names
    assert sorted(names - set(dcopt.__all__)) == []


def test_readme_layout_lists_every_module():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Layout\n\n```\n(.*?)```", readme, re.S).group(1)
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    modules = [p.name for p in (ROOT / "src" / "dcopt").glob("*.py") if p.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)


def test_instances_imports_only_linalg_from_the_package():
    # the instance data layer knows nothing of regularizers or solvers
    tree = ast.parse((ROOT / "src" / "dcopt" / "instances.py").read_text())
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    package = [line.split(" import ")[0] for line in imports
               if line.startswith("from .") or "dcopt" in line]
    assert package == ["from .linalg"]


def test_solvers_take_L_from_the_caller():
    # L has one owner, the caller; a private lmax_gram path in the solver layer
    # would recompute it and need its own report of an unconverged estimate
    tree = ast.parse((ROOT / "src" / "dcopt" / "solvers.py").read_text())
    from_linalg = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "linalg"
                   for alias in node.names]
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    assert sorted(from_linalg) == ["_check_positive", "_gemv_pair", "_is_count"]
    assert "logging" not in modules


def test_solve_hands_the_pass_data_not_a_callback(monkeypatch):
    # the pass forms the pdca residual from (beta, A x^t, b) itself; a closure
    # over the loop's beta and Ax was right only where the loop happened to call it
    tree = ast.parse((ROOT / "src" / "dcopt" / "solvers.py").read_text())
    solve = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "solve")
    nested = [getattr(node, "name", "lambda") for node in ast.walk(solve) if node is not solve
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert nested == []

    real, args = solvers._gemv_pair, []
    monkeypatch.setattr(solvers, "_gemv_pair", lambda *a: (args.extend(a), real(*a))[1])
    inst = dcopt.generate_instance(8, 12, 2, seed=1)
    cfg = dcopt.SolverConfig("pdca_e", max_iter=5, L_override=dcopt.lmax_gram(inst.A).value)
    dcopt.solve(inst, dcopt.L1MinusL2(1e-3), cfg)
    flat = [item for a in args for item in (a if isinstance(a, tuple) else (a,))]
    assert flat and not any(map(callable, flat))


def test_import_leaves_the_process_pool_unloaded():
    # a plan runs in one process; nothing in dcopt needs concurrent.futures.process
    code = "import sys, dcopt; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_unloaded():
    # the gemv pair reaches numpy's own BLAS through ctypes; scipy.linalg.blas
    # would double the resident set of a fresh process
    code = "import sys, dcopt; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "False"
