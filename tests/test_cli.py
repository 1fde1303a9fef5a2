"""End-to-end command-line behavior: gen, solve, bench, and exit codes."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import re
import shutil
import struct
import subprocess
import sys
import venv
from pathlib import Path

import numpy as np
import pytest

from dcopt.cli import main
from dcopt.diagnostics import DescentReport, merit
from dcopt.instances import generate_instance, load_instance, save_instance
from dcopt.linalg import lmax_gram
from dcopt.regularizers import parse_reg
from dcopt.solvers import SOLVERS, SolverConfig, solve
from oracles import merit_loop

TINY_PLAN_TEXT = """\
grid = 20x50x3
lambdas = 1e-3
reg = log:eps=0.5
solvers = gist, pdca_e
instances = 2
seed = 5
"""


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture(scope="session")
def dcopt_script(tmp_path_factory):
    """Install a copy of this checkout into a throwaway venv; return its ``dcopt``.

    The venv sees the host's site-packages (numpy, setuptools), and
    setuptools' ``develop`` command writes the ``[project.scripts]`` entry
    point without pip, ``wheel`` or a network.  PYTHONPATH is dropped so the
    copy's package is found through the venv's ``easy-install.pth``, as an
    installed package would be, and not through a relative ``src`` path.
    """
    root = Path(__file__).resolve().parents[1]
    base = tmp_path_factory.mktemp("install")
    proj = base / "proj"
    proj.mkdir()
    shutil.copy2(root / "pyproject.toml", proj)
    shutil.copytree(root / "src", proj / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    env_dir = base / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    bindir = env_dir / "bin"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [str(bindir / "python"), "-c",
         "import sys; sys.argv = ['setup.py', 'develop', '--no-deps']; "
         "from setuptools import setup; setup()"],
        cwd=proj, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, f"setup.py develop failed:\n{proc.stderr}"
    return str(bindir / "dcopt")


def poisoned_instance(value, m=20, n=50, s=3):
    """A generated instance with A[0, 0] = value, set after the constructor's checks."""
    inst = generate_instance(m, n, s, seed=5)
    A = inst.A.copy()
    A[0, 0] = value
    object.__setattr__(inst, "A", A)
    return inst


class TestGen:
    def test_default_filename(self, workdir):
        rc, out, _ = run_cli("gen", "--m", "15", "--n", "40", "--s", "4", "--seed", "9")
        assert rc == 0
        assert out.strip() == "instance-m15-n40-s4-seed9.dcin"
        inst = load_instance(out.strip())
        assert (inst.m, inst.n, inst.s) == (15, 40, 4)
        assert inst.seed == 9

    def test_explicit_out_and_noise(self, workdir):
        rc, out, _ = run_cli("gen", "--m", "10", "--n", "25", "--s", "2",
                             "--seed", "3", "--noise", "0", "--out", "inst.dcin")
        assert rc == 0
        assert out.strip() == "inst.dcin"
        inst = load_instance("inst.dcin")
        assert inst.noise_scale == 0.0
        assert np.array_equal(inst.b, inst.A @ inst.ground_truth)

    def test_negative_seed_is_exit_2(self, workdir):
        rc, out, err = run_cli("gen", "--m", "8", "--n", "20", "--s", "2", "--seed", "-1")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: seed must be an integer in [0, 2**64)")
        assert list(workdir.iterdir()) == []

    def test_console_script_installed(self, workdir, dcopt_script):
        proc = subprocess.run(
            [dcopt_script, "gen", "--m", "8", "--n", "20", "--s", "2", "--seed", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith(".dcin")


class TestSolve:
    @pytest.fixture()
    def instance_path(self, workdir):
        run_cli("gen", "--m", "20", "--n", "50", "--s", "3", "--seed", "5")
        return "instance-m20-n50-s3-seed5.dcin"

    def test_summary_line_format(self, instance_path):
        rc, out, _ = run_cli("solve", "--instance", instance_path,
                             "--reg", "l1-l2:lambda=1e-3", "--solver", "pdca_e")
        assert rc == 0
        assert re.fullmatch(
            r"\d+,(converged|iteration_cap),\d\.\d{4}e[+-]\d{2},\d\.\d{4}e[+-]\d{2}",
            out.strip(),
        )

    @pytest.mark.parametrize("solver", ["pdca_e", "pdca", "gist"])
    def test_all_solvers_run(self, instance_path, solver):
        rc, out, _ = run_cli("solve", "--instance", instance_path,
                             "--reg", "log:lambda=1e-3,eps=0.5", "--solver", solver,
                             "--max-iter", "600")
        assert rc == 0
        status = out.strip().split(",")[1]
        assert status in ("converged", "iteration_cap")

    def test_trace_file(self, instance_path, workdir):
        rc, out, _ = run_cli("solve", "--instance", instance_path,
                             "--reg", "l1-l2:lambda=1e-3", "--solver", "pdca_e",
                             "--trace", "tr.csv")
        assert rc == 0
        iters = int(out.strip().split(",")[0])
        lines = (workdir / "tr.csv").read_text().splitlines()
        assert lines[0] == "t,F,E,step_norm,beta"
        assert len(lines) == iters + 2  # header plus rows t = 0..iters
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == ""  # no step into x^0
        last = lines[-1].split(",")
        assert last[4] == ""  # no extrapolation weight on the final row

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_trace_columns_match_solve_and_merit_oracle(self, instance_path, workdir, solver):
        rc, _, _ = run_cli("solve", "--instance", instance_path,
                           "--reg", "l1-l2:lambda=1e-3", "--solver", solver, "--trace", "tr.csv")
        assert rc == 0
        inst = load_instance(instance_path)
        L = lmax_gram(inst.A).value
        res = solve(inst, parse_reg("l1-l2:lambda=1e-3"),
                    SolverConfig(algorithm=solver, L_override=L))
        rows = [line.split(",") for line in (workdir / "tr.csv").read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == [repr(float(f)) for f in res.objective_trace]
        if solver == "gist":
            assert all(r[2] == "" and r[4] == "" for r in rows)
        else:
            assert [r[2] for r in rows] == [repr(e) for e in merit(res, L).tolist()]
            assert [r[2] for r in rows] == [repr(e) for e in merit_loop(res, L)]
            betas = [r[4] for r in rows[:-1]]
            assert betas == [repr(float(b)) for b in res.beta_trace]
            if solver == "pdca":
                assert set(betas) == {"0.0"}

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_required_options_give_the_default_config(self, monkeypatch, instance_path, solver):
        configs = []

        def recording_solve(inst, spec, cfg):
            configs.append(cfg)
            return solve(inst, spec, cfg)

        monkeypatch.setattr("dcopt.cli.solve", recording_solve)
        rc, _, _ = run_cli("solve", "--instance", instance_path,
                           "--reg", "l1-l2:lambda=1e-3", "--solver", solver)
        assert rc == 0
        [cfg] = configs
        assert dataclasses.replace(cfg, L_override=None) == SolverConfig(algorithm=solver)

    @pytest.mark.filterwarnings("error")  # no overflow warning may pre-empt the exit code
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1e200])
    def test_non_finite_A_is_exit_2(self, monkeypatch, workdir, value):
        # load would reject this A, so hand the instance to the command directly
        monkeypatch.setattr("dcopt.cli.load_instance", lambda path: poisoned_instance(value))
        rc, out, err = run_cli("solve", "--instance", "poisoned.dcin",
                               "--reg", "l1-l2:lambda=1e-3", "--solver", "pdca_e")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ||A v||^2 is not finite at power iteration 1")

    def test_restart_and_adaptive_flags(self, instance_path):
        rc, out, _ = run_cli("solve", "--instance", instance_path,
                             "--reg", "l1-l2:lambda=1e-3", "--solver", "pdca_e",
                             "--restart", "0", "--no-adaptive")
        assert rc == 0

    @pytest.mark.parametrize("restart", ["-1", "-5"])
    def test_negative_restart_is_exit_2(self, instance_path, restart):
        rc, out, err = run_cli("solve", "--instance", instance_path,
                               "--reg", "l1-l2:lambda=1e-3", "--solver", "pdca_e",
                               "--restart", restart)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: --restart must be >= 0")

    @pytest.mark.parametrize("option", [("--max-iter", "0"), ("--tol", "-1"), ("--tol", "nan")])
    def test_bad_option_fails_before_L_is_computed(self, monkeypatch, instance_path, option):
        monkeypatch.setattr("dcopt.cli.lmax_gram", lambda A: pytest.fail("lmax_gram ran"))
        rc, out, err = run_cli("solve", "--instance", instance_path,
                               "--reg", "l1-l2:lambda=1e-3", "--solver", "pdca", *option)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_unconverged_L_is_reported_once(self, monkeypatch, caplog, instance_path):
        monkeypatch.setattr("dcopt.linalg._LMAX_MAX_ITER", 3)
        with caplog.at_level("WARNING"):
            rc, _, err = run_cli("solve", "--instance", instance_path,
                                 "--reg", "l1-l2:lambda=1e-3", "--solver", "pdca_e")
        assert rc == 0
        assert err.splitlines() == ["warning: lmax_gram did not converge; using best estimate"]
        assert caplog.records == []

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_solver_abort_is_exit_3(self, monkeypatch, overflow_instance, solver):
        # load would reject this b, so hand the instance to the command directly
        monkeypatch.setattr("dcopt.cli.load_instance", lambda path: overflow_instance)
        with np.errstate(over="ignore", invalid="ignore"):
            rc, out, err = run_cli("solve", "--instance", "overflow.dcin",
                                   "--reg", "l1-l2:lambda=1e-3", "--solver", solver)
        assert rc == 3
        assert out.startswith("0,aborted,")
        assert "solver aborted: non-finite iterate at t=0" in err

    def test_overflowing_b_is_exit_2_at_load(self, workdir, overflow_instance):
        save_instance(overflow_instance, "overflow.dcin")
        rc, out, err = run_cli("solve", "--instance", "overflow.dcin",
                               "--reg", "l1-l2:lambda=1e-3", "--solver", "pdca_e")
        assert rc == 2
        assert out == ""
        assert "error: A and b must be finite" in err

    def test_empty_A_is_exit_2_at_load(self, workdir):
        # a hand-made container with m = 3, n = 0, s = 0: a header and b only
        header = struct.pack("<4sIQQQQd", b"DCIN", 1, 3, 0, 0, 0, 0.0)
        (workdir / "empty.dcin").write_bytes(header + np.zeros(3).tobytes())
        rc, out, err = run_cli("solve", "--instance", "empty.dcin",
                               "--reg", "l1-l2:lambda=1e-3", "--solver", "pdca_e")
        assert rc == 2
        assert out == ""
        assert err.splitlines() == [
            "error: A has shape (3, 0); it needs at least one row and one column"]

    def test_missing_instance_is_exit_2(self, workdir):
        rc, _, err = run_cli("solve", "--instance", "nope.dcin",
                             "--reg", "l1-l2:lambda=1e-3", "--solver", "pdca_e")
        assert rc == 2
        assert "error" in err

    def test_bad_reg_is_exit_2(self, instance_path):
        rc, _, err = run_cli("solve", "--instance", instance_path,
                             "--reg", "l1-l2:lambda=oops", "--solver", "pdca_e")
        assert rc == 2
        assert "error" in err


class TestBench:
    def test_end_to_end(self, workdir):
        (workdir / "tiny.plan").write_text(TINY_PLAN_TEXT)
        rc, out, _ = run_cli("bench", "--plan", "tiny.plan",
                             "--out-csv", "out.csv", "--out-md", "out.md")
        assert rc == 0
        assert out.splitlines() == ["out.csv", "out.md"]
        csv_text = (workdir / "out.csv").read_text()
        assert csv_text.endswith("\n")
        assert csv_text.splitlines()[0].startswith("n,m,s,t_lmax,iter_gist")
        assert len(csv_text.splitlines()) == 2
        md_text = (workdir / "out.md").read_text()
        assert md_text.startswith("| n | m | s |")

    def test_jobs_flag_is_gone(self, workdir):
        # a plan runs in one process; argparse rejects the old pool option
        (workdir / "tiny.plan").write_text(TINY_PLAN_TEXT)
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--plan", "tiny.plan", "--out-csv", "out.csv", "--jobs", "2")
        assert exc.value.code == 2
        assert not (workdir / "out.csv").exists()

    def test_non_finite_A_is_exit_2(self, monkeypatch, workdir):
        monkeypatch.setattr("dcopt.bench.generate_instance",
                            lambda m, n, s, **kw: poisoned_instance(float("nan"), m, n, s))
        (workdir / "tiny.plan").write_text(TINY_PLAN_TEXT)
        rc, out, err = run_cli("bench", "--plan", "tiny.plan", "--out-csv", "out.csv")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ||A v||^2 is not finite at power iteration 1")
        assert not (workdir / "out.csv").exists()

    @staticmethod
    def abort_gist(monkeypatch):
        """Make every gist run in dcopt.bench report an abort."""
        def solve_or_abort(inst, spec, cfg):
            res = solve(inst, spec, cfg)
            if cfg.algorithm == "gist":
                res = dataclasses.replace(res, status="aborted", message="forced abort")
            return res

        monkeypatch.setattr("dcopt.bench.solve", solve_or_abort)

    def test_inadmissible_weight_is_exit_2_with_tables(self, monkeypatch, workdir):
        # a weight far above the l1-l2 bound: one line per record, and the
        # abort lines wait until every weight is admissible
        self.abort_gist(monkeypatch)
        (workdir / "big.plan").write_text(
            TINY_PLAN_TEXT.replace("log:eps=0.5", "l1-l2").replace("1e-3", "1e3"))
        rc, out, err = run_cli("bench", "--plan", "big.plan",
                               "--out-csv", "out.csv", "--out-md", "out.md")
        assert rc == 2
        assert out.splitlines() == ["out.csv", "out.md"]
        assert len((workdir / "out.csv").read_text().splitlines()) == 2
        lines = err.splitlines()
        assert len(lines) == 2 * 2  # replicates x solvers
        for rep, line in zip((0, 0, 1, 1), lines):
            assert re.fullmatch(rf"inadmissible weight: lam=1000 vs bound \S+ "
                                rf"on \(20,50,3\) rep {rep}", line), line

    def test_solver_abort_is_exit_3(self, monkeypatch, workdir):
        self.abort_gist(monkeypatch)
        (workdir / "tiny.plan").write_text(TINY_PLAN_TEXT)
        rc, out, err = run_cli("bench", "--plan", "tiny.plan", "--out-csv", "out.csv")
        assert rc == 3
        assert out.splitlines() == ["out.csv"]
        assert err.splitlines() == [
            f"solver abort: gist on (20,50,3) rep {rep}: forced abort" for rep in (0, 1)]

    def test_descent_violation_is_exit_2_without_tables(self, monkeypatch, workdir):
        monkeypatch.setattr("dcopt.bench.check_descent", lambda res, L: DescentReport(1, 0.5))
        (workdir / "tiny.plan").write_text(TINY_PLAN_TEXT)
        rc, out, err = run_cli("bench", "--plan", "tiny.plan", "--out-csv", "out.csv")
        assert rc == 2
        assert out == ""
        assert err == ("invariant violation: descent inequality violated 1 times "
                       "(max shortfall 5.000e-01) by pdca_e on cell (20, 50, 3) rep 0 "
                       "lam 0.001\n")
        assert not (workdir / "out.csv").exists()

    def test_malformed_plan_is_exit_2(self, workdir):
        (workdir / "bad.plan").write_text("grid = 10x20\nseed = 0\n")
        rc, _, err = run_cli("bench", "--plan", "bad.plan", "--out-csv", "out.csv")
        assert rc == 2
        assert "error" in err

    def test_missing_plan_is_exit_2(self, workdir):
        rc, _, err = run_cli("bench", "--plan", "ghost.plan", "--out-csv", "out.csv")
        assert rc == 2


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("tune")

    def test_solver_choices_enforced(self, workdir):
        with pytest.raises(SystemExit):
            run_cli("solve", "--instance", "x.dcin", "--reg", "l1-l2:lambda=1",
                    "--solver", "sgd")
