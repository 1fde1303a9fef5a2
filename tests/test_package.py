"""The package's public surface."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dcopt
from dcopt import bench, cli, regularizers, solvers

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


def test_readme_claims_name_existing_tests():
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## Claims\n(.*?)(?=^## |\Z)", readme, re.S | re.M).group(1)
    claims = re.findall(r"^- (.*?)(?=^- |\Z)", section, re.S | re.M)
    assert len(claims) >= 9 and all("`tests/" in claim for claim in claims)
    missing = []
    for test_id in re.findall(r"`(tests/[^`]*)`", section):
        # a [param] suffix names one case of a test that exists when its function does
        path, name = re.fullmatch(r"(tests/\w+\.py)::([\w:]+)(?:\[[^\]]*\])?", test_id).groups()
        file = ROOT / path
        scope = ast.parse(file.read_text()) if file.is_file() else None
        for part in name.split("::"):
            scope = next((node for node in getattr(scope, "body", ())
                          if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                          and node.name == part), None)
        if scope is None:
            missing.append(f"{path}::{name}")
    assert missing == []


def test_readme_command_line_lists_every_option(capsys):
    # the usage block names each subcommand's options as the parser defines them
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## Command line\n(.*?)(?=^## )", readme, re.S | re.M).group(1)
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    listed, parsed = {}, {}
    for command in ("gen", "solve", "bench"):
        [line] = [line for line in block.splitlines() if line.startswith(f"dcopt {command} ")]
        listed[command] = set(re.findall(r"--[\w-]+", line))
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        parsed[command] = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
    assert listed == parsed


def test_readme_input_examples_parse(monkeypatch):
    # the README's plan block, Python plan and regularizer spellings go through the one reader
    readme = (ROOT / "README.md").read_text()
    plans = re.search(r"^## Benchmark plans\n(.*?)(?=^## )", readme, re.S | re.M).group(1)
    bench.parse_plan(re.search(r"```\n(.*?)```", plans, re.S).group(1))
    monkeypatch.setattr(bench, "run_benchmark", lambda plan: [])  # build the plan, run nothing
    namespace = {}
    exec(re.search(r"```python\n(.*?)```", plans, re.S).group(1), namespace)
    assert bench.parse_plan((ROOT / "scripts" / "plans" / "desk-log.plan").read_text()) == \
        namespace["plan"]
    commands = re.search(r"^## Command line\n(.*?)(?=^## )", readme, re.S | re.M).group(1)
    families = "|".join(map(re.escape, regularizers._FAMILIES))
    specs = re.findall(rf"(?<![\w-])((?:{families}):[^`\s]+)", commands)
    assert len(specs) >= 6
    for spec in specs:
        regularizers.parse_reg(spec)


def test_perfbench_wrapped_names_resolve():
    # run.py skips a wrapped name that has gone, so a rename would read its layer metrics as 0
    text = (ROOT / "perfbench" / "run.py").read_text()
    wrapped = re.findall(r'\(dcopt\.(\w+), "(\w+)",', text)
    assert len(wrapped) >= 5
    missing = [f"dcopt.{module}.{attr}" for module, attr in wrapped
               if not (inspect.ismodule(getattr(dcopt, module, None))
                       and hasattr(getattr(dcopt, module), attr))]
    assert missing == []


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
