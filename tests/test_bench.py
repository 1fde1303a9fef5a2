"""Plan parsing, the benchmark driver, table rendering, and determinism."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dcopt import bench as bench_mod
from dcopt.bench import (
    BenchmarkPlan,
    InvariantViolation,
    RunRecord,
    cell_rows,
    nontiming_fingerprint,
    parse_plan,
    render_table,
    replicate_seed,
    run_benchmark,
)
from dcopt.diagnostics import DescentReport
from dcopt.instances import l12_lambda_bound
from dcopt.linalg import LmaxResult
from dcopt.solvers import objective, solve

TINY_PLAN = BenchmarkPlan(
    grid=((20, 50, 3),),
    lambdas=(1e-3,),
    reg="l1-l2",
    instances_per_cell=2,
    master_seed=4,
)


@pytest.fixture(scope="module")
def tiny_records():
    return run_benchmark(TINY_PLAN)


def record(solver, replicate=0, status="converged", iterations=10, fval=0.5, lambda_bound=None):
    """A hand-made run of cell 10x20x2 at lam 1e-3."""
    return RunRecord(m=10, n=20, s=2, lam=1e-3, replicate=replicate, seed=0, solver=solver,
                     iterations=iterations, status=status, fval=fval, residual=0.0,
                     wall_seconds=1.0, t_lmax=0.5, lambda_bound=lambda_bound)


class TestParsePlan:
    def test_full_roundtrip(self):
        text = """
        # sparse recovery benchmark
        grid = 10x20x2; 20x40x4
        lambdas = 1e-3, 5e-4
        reg = log:eps=0.5
        solvers = gist, pdca
        instances = 2
        seed = 7
        """
        plan = parse_plan(text)
        assert plan.grid == [(10, 20, 2), (20, 40, 4)]
        assert plan.lambdas == [1e-3, 5e-4]
        assert plan.reg == "log:eps=0.5"
        assert plan.solvers == ["gist", "pdca"]
        assert plan.instances_per_cell == 2
        assert plan.master_seed == 7

    def test_every_key_is_required(self):
        full = ("grid=10x20x2\nlambdas=1e-3\nreg=l1-l2\nsolvers=gist,pdca_e,pdca\n"
                "seed=0\ninstances=1")
        parse_plan(full)
        for line in full.splitlines():
            key = line.split("=", 1)[0]
            with pytest.raises(ValueError, match=f"missing keys \\['{key}'\\]"):
                parse_plan(full.replace(line, ""))

    def test_programmatic_defaults(self):
        assert TINY_PLAN.solvers == ["gist", "pdca_e", "pdca"]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("grid=10x20x2\nlambdas=1e-3\nreg=l1-l2:lambda=1\nsolvers=gist\ninstances=1\nseed=0",
             "lambda"),
            ("grid=10x20\nlambdas=1e-3\nreg=l1-l2\nsolvers=gist\ninstances=1\nseed=0",
             "MxNxS"),
            ("grid=10x20x2\nbogus=1\nlambdas=1e-3\nreg=l1-l2\nsolvers=gist\ninstances=1\nseed=0",
             "unknown plan key"),
            ("lambdas=1e-3\nreg=l1-l2\nsolvers=gist\ninstances=1\nseed=0",
             "grid"),
            ("grid=10x20x2\nlambdas=1e-3\nreg=l1-l2\nsolvers=sgd\ninstances=1\nseed=0",
             "solver"),
            ("grid=10x20x2\nlambdas=1e-3\nreg=l1-l2\nsolvers=gist\ninstances=1\nseed=0\n"
             "trace=yes", "unknown plan key"),
        ],
    )
    def test_rejects_malformed(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_plan(text)

    @pytest.mark.parametrize(("reg", "fragment"), [
        ("huh:eps=1", "unknown regularizer family"),
        ("log:theta=1", "not valid for family"),
        ("log:eps=0.5,eps=1", "duplicate parameter"),
        ("log", "takes parameters"),
        ("log:eps", "malformed parameter"),
        ("log:eps=0.5,", "malformed parameter"),
        ("log:lambda=1e-3,eps=0.5", "lambda"),
        ("log:eps=-1", "eps must exceed"),
        ("scad:theta=nan", "theta must exceed"),
    ])
    def test_rejects_bad_reg(self, reg, fragment):
        text = f"grid=10x20x2\nlambdas=1e-3\nreg={reg}\nsolvers=gist\ninstances=1\nseed=0"
        with pytest.raises(ValueError, match=fragment):
            parse_plan(text)


PLANS = Path(__file__).resolve().parents[1] / "scripts" / "plans"


class TestCommittedPlans:
    @pytest.mark.parametrize("path", sorted(PLANS.glob("*.plan")), ids=lambda p: p.stem)
    def test_plan_parses(self, path):
        parse_plan(path.read_text())  # raises on a malformed plan

    def test_desk_plans_share_their_instances(self):
        # the l1-l2 and log desk tables are computed on identical instances
        l12, log = (parse_plan((PLANS / f"desk-{name}.plan").read_text())
                    for name in ("l1l2", "log"))
        assert (l12.reg, log.reg) == ("l1-l2", "log:eps=0.5")
        assert dataclasses.replace(log, reg=l12.reg) == l12

    def test_full_grid_has_ten_scaled_desk_cells(self):
        plan = parse_plan((PLANS / "full-grid-l1l2.plan").read_text())
        assert plan.grid == [(720 * i, 2560 * i, 80 * i) for i in range(1, 11)]
        assert plan.reg == "l1-l2"


class TestPlanValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            BenchmarkPlan(grid=(), lambdas=(1e-3,), reg="l1-l2")

    def test_rejects_bad_family_params_fast(self):
        with pytest.raises(ValueError):
            BenchmarkPlan(grid=((10, 20, 2),), lambdas=(1e-3,), reg="log")

    def test_rejects_zero_instances(self):
        with pytest.raises(ValueError):
            BenchmarkPlan(grid=((10, 20, 2),), lambdas=(1e-3,),
                          reg="l1-l2", instances_per_cell=0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            BenchmarkPlan(grid=((10, 20, 2),), lambdas=(-1e-3,), reg="l1-l2")

    @pytest.mark.parametrize("bad", [-5.0, float("nan"), float("inf")])
    def test_checks_every_lambda(self, bad):
        with pytest.raises(ValueError, match="lam"):
            BenchmarkPlan(grid=((10, 20, 2),), lambdas=(1e-3, bad), reg="l1-l2")

    @pytest.mark.parametrize("cell", [(10, 20, 30), (0, 20, 2), (10, 20, 0),
                                      (6, 10, True), (6.0, 10, 2), (6, 10.5, 2)])
    def test_checks_every_cell(self, cell):
        with pytest.raises(ValueError, match="grid cell"):
            BenchmarkPlan(grid=((10, 20, 2), cell), lambdas=(1e-3,), reg="l1-l2")

    @pytest.mark.parametrize("count", [True, 1.5, 2.0, -1])
    def test_instances_must_be_a_count(self, count):
        with pytest.raises(ValueError, match="instances_per_cell"):
            BenchmarkPlan(grid=((10, 20, 2),), lambdas=(1e-3,), reg="l1-l2",
                          instances_per_cell=count)

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64, "0", None, True])
    def test_master_seed_must_be_a_64_bit_integer(self, seed):
        # -1 would alias 2**64 - 1 through the 64-bit mask of combine_seed, and
        # True ran as seed 1
        with pytest.raises(ValueError, match="master_seed"):
            BenchmarkPlan(grid=((10, 20, 2),), lambdas=(1e-3,), reg="l1-l2",
                          master_seed=seed)

    def test_numpy_integers_accepted(self):
        plan = BenchmarkPlan(grid=[tuple(np.int64(v) for v in (10, 20, 2))], lambdas=(1e-3,),
                             reg="l1-l2", instances_per_cell=np.int32(2),
                             master_seed=np.uint64(2**64 - 1))
        assert plan.master_seed == 2**64 - 1

    @pytest.mark.parametrize("repeat", [
        {"grid": [(10, 20, 2)] * 2},
        {"lambdas": [1e-3] * 2},
        {"solvers": ["pdca_e"] * 2},
    ], ids=["grid", "lambdas", "solvers"])
    def test_rejects_repeated_entries(self, repeat):
        plan = {"grid": [(10, 20, 2)], "lambdas": [1e-3], "reg": "l1-l2", **repeat}
        with pytest.raises(ValueError, match="repeats"):
            BenchmarkPlan(**plan)


class TestReplicateSeed:
    def test_deterministic(self):
        assert replicate_seed(0, 720, 2560, 80, 3) == replicate_seed(0, 720, 2560, 80, 3)

    def test_sensitive_to_every_component(self):
        base = replicate_seed(0, 10, 20, 2, 0)
        assert replicate_seed(1, 10, 20, 2, 0) != base
        assert replicate_seed(0, 11, 20, 2, 0) != base
        assert replicate_seed(0, 10, 21, 2, 0) != base
        assert replicate_seed(0, 10, 20, 3, 0) != base
        assert replicate_seed(0, 10, 20, 2, 1) != base

    def test_numpy_integer_components(self):
        # a signed numpy master seed overflowed inside the 64-bit mask
        want = replicate_seed(1, 720, 2560, 80, 0)
        assert replicate_seed(np.int64(1), 720, 2560, 80, 0) == want
        assert replicate_seed(np.int32(1), np.int64(720), 2560, 80, np.uint64(0)) == want
        for seed in (1.0, -1, 2**64, True):
            with pytest.raises(ValueError, match="seed must be an integer in"):
                replicate_seed(seed, 720, 2560, 80, 0)


class TestRunRecord:
    @pytest.mark.parametrize(("bound", "admissible"),
                             [(None, True), (2e-3, True), (1e-3, False), (5e-4, False)])
    def test_admissible_iff_lam_below_bound(self, bound, admissible):
        rec = record("pdca", lambda_bound=bound)  # lam = 1e-3
        assert rec.admissible is admissible
        assert nontiming_fingerprint([rec]).splitlines()[0].endswith(f",{admissible},")


class TestRunBenchmark:
    def test_record_and_row_counts(self, tiny_records):
        # cells x replicates x lambdas x solvers
        assert len(tiny_records) == 1 * 2 * 1 * 3
        assert len(cell_rows(tiny_records)) == 1

    def test_records_carry_positive_lmax_time(self, tiny_records):
        assert all(r.t_lmax > 0.0 for r in tiny_records)

    def test_accelerated_solvers_converge_on_easy_cell(self, tiny_records):
        # plain pdca may legitimately hit the cap even here
        assert all(r.status == "converged" for r in tiny_records
                   if r.solver in ("pdca_e", "gist"))
        assert all(r.status != "aborted" for r in tiny_records)
        assert all(r.admissible for r in tiny_records)

    def test_instances_shared_across_lambdas(self):
        plan = dataclasses.replace(TINY_PLAN, lambdas=(1e-3, 5e-4), solvers=["pdca_e"])
        records = run_benchmark(plan)
        by_rep = {}
        for rec in records:
            by_rep.setdefault(rec.replicate, set()).add(rec.seed)
        for seeds in by_rep.values():
            assert len(seeds) == 1  # same instance seed regardless of lambda

    def test_lambda_zero_recovers_interpolation(self):
        # with no penalty and m < n the residual can be driven to zero
        plan = dataclasses.replace(TINY_PLAN, lambdas=(0.0,), solvers=["pdca_e", "gist"])
        records = run_benchmark(plan)
        assert all(r.status == "converged" for r in records)
        assert all(r.fval < 1e-6 for r in records)

    def test_fval_is_the_objective_at_the_final_iterate(self, monkeypatch):
        # the record takes F from the objective trace; it must be F(x_final)
        # itself, as a Python float, so the fingerprint prints a plain repr
        runs = []

        def recording_solve(inst, spec, cfg):
            res = solve(inst, spec, cfg)
            runs.append((inst, spec, res))
            return res

        monkeypatch.setattr(bench_mod, "solve", recording_solve)
        plan = dataclasses.replace(TINY_PLAN, lambdas=(1e-3, 5e-3), reg="log:eps=0.5")
        records = run_benchmark(plan)
        assert len(runs) == len(records) == 2 * 2 * 3
        for rec, (inst, spec, res) in zip(records, runs):
            assert type(rec.fval) is float
            assert rec.fval == objective(inst, spec, res.x_final)

    def test_lambda_bound_once_per_instance(self, monkeypatch):
        calls = []

        def counting_bound(inst):
            calls.append(inst.seed)
            return l12_lambda_bound(inst)

        monkeypatch.setattr(bench_mod, "l12_lambda_bound", counting_bound)
        records = run_benchmark(dataclasses.replace(TINY_PLAN, lambdas=(1e-3, 5e-4, 1e-4)))
        assert sorted(calls) == sorted({r.seed for r in records})

    def test_records_come_in_plan_order(self):
        # cell, then replicate, then lambda, then solver, each in the order the plan lists
        plan = BenchmarkPlan(grid=[(20, 50, 3), (15, 40, 2)], lambdas=[5e-4, 1e-3],
                             reg="l1-l2", solvers=["pdca", "gist"],
                             instances_per_cell=2, master_seed=4)
        records = run_benchmark(plan)
        assert [(r.m, r.n, r.s, r.replicate, r.lam, r.solver) for r in records] == [
            (*cell, rep, lam, solver) for cell in plan.grid for rep in range(2)
            for lam in plan.lambdas for solver in plan.solvers]

    def test_descent_violation_is_an_invariant_violation(self, monkeypatch):
        # gist has no beta trace, so the first audited run is pdca_e's
        monkeypatch.setattr(bench_mod, "check_descent", lambda res, L: DescentReport(2, 1e-3))
        with pytest.raises(InvariantViolation, match=r"violated 2 times \(max shortfall "
                           r"1\.000e-03\) by pdca_e on cell \(20, 50, 3\) rep 0 lam 0\.001$"):
            run_benchmark(TINY_PLAN)

    def test_unconverged_lmax_is_an_invariant_violation(self, monkeypatch):
        monkeypatch.setattr(bench_mod, "lmax_gram",
                            lambda A: LmaxResult(1.0, False, 5))
        with pytest.raises(InvariantViolation, match="lmax"):
            run_benchmark(TINY_PLAN)


class TestRendering:
    def test_csv_header_exact(self, tiny_records):
        out = render_table(tiny_records, "csv")
        assert out.splitlines()[0] == (
            "n,m,s,t_lmax,iter_gist,iter_pdcae,iter_pdca,"
            "cpu_gist,cpu_pdcae,cpu_pdca,fval_gist,fval_pdcae,fval_pdca"
        )

    def test_csv_row_structure(self, tiny_records):
        lines = render_table(tiny_records, "csv").splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert len(cells) == 13
        assert cells[0] == "50" and cells[1] == "20" and cells[2] == "3"

    def test_markdown_structure(self, tiny_records):
        lines = render_table(tiny_records, "markdown").splitlines()
        assert lines[0].startswith("| n | m | s |")
        assert set(lines[1]) <= {"|", "-"}
        assert len(lines) == 3

    def test_fval_format(self):
        records = [record(name, fval=0.0297432) for name in ("gist", "pdca_e", "pdca")]
        assert "2.9743e-02" in render_table(records, "csv")

    def test_iter_cell_says_max_only_when_every_replicate_caps(self):
        def mk(capped):
            return [
                record(name, replicate=rep, iterations=5000,
                       status="iteration_cap" if rep < capped else "converged")
                for rep in range(10) for name in ("gist", "pdca_e", "pdca")
            ]

        assert ",max," in render_table(mk(10), "csv").splitlines()[1]
        assert "max" not in render_table(mk(9), "csv").splitlines()[1]

    def test_missing_solver_leaves_blank_cells(self):
        records = [record("gist")]
        line = render_table(records, "csv").splitlines()[1]
        assert ",,," not in render_table(records, "markdown")
        assert line.split(",")[5] == ""  # iter_pdcae absent

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            render_table([], "csv")

    def test_unknown_format_rejected(self, tiny_records):
        with pytest.raises(ValueError):
            render_table(tiny_records, "html")


class TestFingerprint:
    def test_repeat_run_is_bit_identical(self, tiny_records):
        again = run_benchmark(TINY_PLAN)
        assert nontiming_fingerprint(again) == nontiming_fingerprint(tiny_records)

    def test_master_seed_changes_fingerprint(self, tiny_records):
        other = run_benchmark(dataclasses.replace(TINY_PLAN, master_seed=5))
        assert nontiming_fingerprint(other) != nontiming_fingerprint(tiny_records)

    def test_ignores_wall_clock(self, tiny_records):
        slowed = [dataclasses.replace(r, wall_seconds=r.wall_seconds + 99.0,
                                      t_lmax=r.t_lmax + 99.0)
                  for r in tiny_records]
        assert nontiming_fingerprint(slowed) == nontiming_fingerprint(tiny_records)

    def test_sensitive_to_iterations(self, tiny_records):
        bumped = [dataclasses.replace(r, iterations=r.iterations + 1)
                  for r in tiny_records]
        assert nontiming_fingerprint(bumped) != nontiming_fingerprint(tiny_records)

    def test_table_is_a_function_of_its_records(self, tiny_records):
        rebuilt = [dataclasses.replace(r) for r in tiny_records]
        assert nontiming_fingerprint(rebuilt) == nontiming_fingerprint(tiny_records)
        assert render_table(rebuilt, "csv") == render_table(tiny_records, "csv")


# The last bits of numpy's log, power, cbrt and arccos depend on the numpy build
# and on the SIMD kernels it dispatches to, so the pins hold for one of each.
_PINNED_NUMPY = "2.4.6"
_PINNED_SIMD = ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]


def _fingerprint_pin_skip_reason() -> str | None:
    if np.__version__ != _PINNED_NUMPY:
        return f"fingerprints are pinned for numpy {_PINNED_NUMPY}, not {np.__version__}"
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    if found != _PINNED_SIMD:
        return f"fingerprints are pinned for SIMD features {_PINNED_SIMD}, not {found}"
    if os.environ.get("NPY_DISABLE_CPU_FEATURES"):
        return "NPY_DISABLE_CPU_FEATURES changes numpy's SIMD dispatch"
    return None


@pytest.mark.parametrize(
    ("reg", "digest"),
    [
        ("l1-l2", "567821ff3e986285"),
        ("log:eps=0.5", "485bbfebc660f650"),
        ("mcp:theta=2.5", "ebbe24eee0074699"),
        ("scad:theta=3.7", "099d1efca34b5fd3"),
        ("tl1:a=1.0", "7029532eaf51cf61"),
    ],
    ids=["l1-l2", "log", "mcp", "scad", "tl1"],
)
def test_per_family_fingerprint_is_pinned(reg, digest):
    reason = _fingerprint_pin_skip_reason()
    if reason:
        pytest.skip(reason)
    plan = BenchmarkPlan(grid=[(60, 200, 8)], lambdas=[1e-3, 5e-3], reg=reg,
                         instances_per_cell=2, master_seed=3)
    text = nontiming_fingerprint(run_benchmark(plan))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def _simd_found() -> list[str]:
    return np.show_config(mode="dicts")["SIMD Extensions"]["found"]


def feature_runs() -> dict:
    """numpy's SIMD features, and (family, solver, replicate, lam, iterations,
    status, F) for every run of a small plan per family."""
    runs = []
    for reg in ("l1-l2", "log:eps=0.5", "mcp:theta=2.5", "scad:theta=3.7", "tl1:a=1.0"):
        plan = BenchmarkPlan(grid=[(60, 200, 8)], lambdas=[1e-3, 5e-3], reg=reg,
                             instances_per_cell=2, master_seed=3)
        family = reg.partition(":")[0]
        runs += [[family, r.solver, r.replicate, r.lam, r.iterations, r.status, r.fval]
                 for r in run_benchmark(plan)]
    return {"found": _simd_found(), "runs": runs}


def test_pdca_family_counts_hold_across_cpu_features():
    # numpy's SIMD kernels move the last bits of the instances, but pdca_e and
    # pdca must still take the same steps; gist's backtracking may not
    found = _simd_found()
    above = found[found.index("X86_V3") + 1:] if "X86_V3" in found else []
    if os.environ.get("NPY_DISABLE_CPU_FEATURES"):
        pytest.skip("NPY_DISABLE_CPU_FEATURES is already set")
    if not above:
        pytest.skip(f"numpy finds no SIMD features above X86_V3 (found {found})")
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(above),
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    code = "import json; from test_bench import feature_runs; print(json.dumps(feature_runs()))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=600)
    assert out.returncode == 0, out.stderr
    there = json.loads(out.stdout)
    assert not set(above) & set(there["found"])
    here = feature_runs()["runs"]
    assert [run[:4] for run in there["runs"]] == [run[:4] for run in here]
    gist_spread = 0
    for run, other in zip(here, there["runs"]):
        (iters, status, F), (iters_other, status_other, F_other) = run[4:], other[4:]
        assert status == status_other, run
        if run[1] == "gist":
            gist_spread = max(gist_spread, abs(iters - iters_other))
        else:
            assert iters == iters_other and abs(F - F_other) <= 1e-12 * abs(F), (run, other)
    print(f"gist iteration counts moved by up to {gist_spread} without {' '.join(above)}")
