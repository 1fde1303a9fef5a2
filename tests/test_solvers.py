"""The extrapolation schedule, both DC solvers, the line-search baseline, and a pdca
run's certificate: the descent audit and the stationarity residual."""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcopt import linalg, replicate_seed
from dcopt import solvers as solvers_module
from dcopt.instances import ProblemInstance, generate_instance, l12_lambda_bound
from dcopt.linalg import lmax_gram
from dcopt.regularizers import (MCP, SCAD, L1MinusL2, LogPenalty, TransformedL1, full_prox,
                                p1_prox, reg_value)
from dcopt.solvers import (SOLVERS, DescentReport, SolverConfig, _beta_table, check_descent,
                           objective, solve, stationarity_residual)
from oracles import (descent_audit_loop, grid_min_1d, kkt_residual, merit_loop, textbook_gist,
                     textbook_pdca)

ALL_SPECS = [
    L1MinusL2(1e-3),
    LogPenalty(1e-3, 0.5),
    MCP(1e-3, 5.0),
    SCAD(1e-3, 3.7),
    TransformedL1(1e-3, 1.0),
]


def identity_instance(b):
    return ProblemInstance(
        A=np.eye(len(b)),
        b=np.asarray(b, dtype=float),
        ground_truth=np.zeros(len(b)),
        support=np.array([0], dtype=np.int64),
        seed=0,
        noise_scale=0.0,
    )


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(algorithm="pdca_e")
        assert cfg.tol == 1e-5
        assert cfg.max_iter == 5000
        assert cfg.restart_period == 200
        assert cfg.adaptive_restart is True
        assert cfg.L_override is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(algorithm="newton"),
            dict(algorithm="pdca", tol=0.0),
            dict(algorithm="pdca", max_iter=0),
            dict(algorithm="pdca_e", restart_period=-1),
            dict(algorithm="pdca", L_override=-1.0),
            dict(algorithm="pdca", tol=float("nan")),
            dict(algorithm="pdca", L_override=float("nan")),
            dict(algorithm="pdca_e", L_override=float("inf")),
            # bool is a Real: True ran as tol 1, or as L = 1, where pdca diverged
            dict(algorithm="pdca", tol=True),
            dict(algorithm="pdca", L_override=True),
            # 1/5e-324 overflows; as L it ran until p1_prox refused mu in the first step
            dict(algorithm="pdca", tol=5e-324),
            dict(algorithm="pdca_e", L_override=5e-324),
            # the prox weight 1/L is inf, or 2**-1024, whose own reciprocal overflows
            dict(algorithm="pdca_e", L_override=2.0 ** -1024),
            dict(algorithm="pdca_e", L_override=sys.float_info.max),
            # 1/value overflows in the scalar's own type, where numpy warned before refusing
            dict(algorithm="pdca_e", L_override=np.float32(1e-40)),
            dict(algorithm="pdca_e", L_override=np.float16(1e-5)),
            dict(algorithm="pdca", tol=np.float32(1e-40)),
            dict(algorithm="pdca", tol=np.float16(1e-5)),
            # 0 is the one spelling of "no fixed restart"
            dict(algorithm="pdca_e", restart_period=None),
        ],
    )
    def test_validation(self, kwargs):
        # the message names the field at fault
        field = next((key for key in kwargs if key != "algorithm"), "algorithm")
        with pytest.raises(ValueError, match=field):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("L", [math.nextafter(2.0 ** -1024, 1.0), 1e-300,
                                   1.0 / math.nextafter(2.0 ** -1024, 1.0), np.float32(3e38)])
    def test_accepted_L_gives_an_accepted_step_weight(self, L):
        SolverConfig(algorithm="pdca_e", L_override=L)
        assert np.array_equal(p1_prox(L1MinusL2(0.0), np.ones(2), 1.0 / L), np.ones(2))

    @pytest.mark.parametrize("field", ["max_iter", "restart_period"])
    @pytest.mark.parametrize("value", [2.5, 200.0, True])
    def test_rejects_non_integer_counts(self, field, value):
        # restart_period=2.5 never equals the since-restart counter, so it would never fire;
        # True is an Integral, and would run as a one-step cap or a restart every step
        least = {"max_iter": 1, "restart_period": 0}[field]
        with pytest.raises(ValueError, match=f"{field} must be an integer >= {least}"):
            SolverConfig(algorithm="pdca_e", **{field: value})

    def test_accepts_numpy_integer_counts(self):
        cfg = SolverConfig(algorithm="pdca_e", max_iter=np.int64(7), restart_period=np.int32(3))
        assert (cfg.max_iter, cfg.restart_period) == (7, 3)

    def test_frozen(self):
        cfg = SolverConfig(algorithm="pdca")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.L_override = 1.0


def restart_runs(beta_trace: np.ndarray) -> list[int]:
    """Lengths of the runs of a beta trace between resets, cut where beta falls."""
    cuts = np.flatnonzero(beta_trace[1:] < beta_trace[:-1]) + 1
    return np.diff(np.concatenate(([0], cuts, [len(beta_trace)]))).tolist()


def assert_runs_read_the_table(beta_trace: np.ndarray, runs: list[int]) -> None:
    # each run after a reset reads the table from its start: beta_0, beta_1, ...
    table = _beta_table(max(runs))
    assert np.array_equal(beta_trace, np.concatenate([table[:r] for r in runs]))


class TestNextBeta:
    """The beta each step uses: _beta_table, and solve's k, the steps since a reset."""

    def test_first_values(self):
        b0, b1, b2 = _beta_table(3)
        assert b0 == 0.0
        assert b1 == 0.0
        # (theta_1 - 1)/theta_2 with theta_1 = golden ratio: frozen value
        assert b2 == pytest.approx(0.2817535, abs=1e-6)

    def test_monotone_growth_without_restart(self):
        betas = _beta_table(50)
        assert all(b2 >= b1 for b1, b2 in zip(betas[2:], betas[3:]))
        assert betas[-1] < 1.0
        assert betas == _beta_table(2000)[:50]  # an entry does not depend on the table size

    def test_fixed_restart_resets(self, small_instance, small_L):
        cfg = SolverConfig(algorithm="pdca_e", L_override=small_L, max_iter=10,
                           restart_period=3, adaptive_restart=False)
        res = solve(small_instance, L1MinusL2(1e-3), cfg)
        table = _beta_table(3)
        assert res.beta_trace.tolist() == [table[t % 3] for t in range(10)]
        # k hits the period on the fourth step
        assert res.beta_trace[3] == 0.0
        assert res.beta_trace[2] > 0.0

    def test_adaptive_trigger_resets(self, small_instance, small_L):
        cfg = SolverConfig(algorithm="pdca_e", L_override=small_L, restart_period=0)
        res = solve(small_instance, L1MinusL2(1e-3), cfg)
        runs = restart_runs(res.beta_trace)
        assert len(runs) >= 3  # no fixed restart, so each reset is the adaptive trigger's
        assert_runs_read_the_table(res.beta_trace, runs)

    def test_counter_restarts_after_adaptive_reset(self, small_instance, small_L):
        # a run cut short by the adaptive trigger is followed by a full period: the
        # trigger resets k, so the next fixed restart comes 81 steps after it
        period = 81
        cfg = SolverConfig(algorithm="pdca_e", L_override=small_L, restart_period=period)
        res = solve(small_instance, L1MinusL2(1e-3), cfg)
        runs = restart_runs(res.beta_trace)
        assert max(runs) == period
        assert any(a < period == b for a, b in zip(runs, runs[1:]))
        assert_runs_read_the_table(res.beta_trace, runs)

    def test_range_over_long_run(self, small_instance, small_L):
        cfg = SolverConfig(algorithm="pdca_e", L_override=small_L, restart_period=5)
        res = solve(small_instance, L1MinusL2(1e-3), cfg)
        assert res.iterations > 2000
        # every beta lies in [0, beta_{T-1}], and the bound is reached
        assert res.beta_trace.min() == 0.0
        assert res.beta_trace.max() == _beta_table(5)[-1] < 1.0


class TestPdcaOnHandInstances:
    def test_identity_no_penalty_hits_exact_solution(self):
        inst = identity_instance([0.3, -1.2, 2.0])
        cfg = SolverConfig(algorithm="pdca_e", L_override=1.0)
        res = solve(inst, L1MinusL2(0.0), cfg)
        assert res.status == "converged"
        assert res.iterations == 2  # lands exactly, then a zero step
        assert np.array_equal(res.x_final, inst.b)

    def test_pdca_equals_pdca_e_with_unit_restart(self, small_instance, small_L):
        # restart every step forces beta = 0, reducing one solver to the other
        spec = L1MinusL2(1e-3)
        plain = solve(small_instance, spec, SolverConfig(algorithm="pdca", L_override=small_L))
        forced = solve(
            small_instance, spec,
            SolverConfig(algorithm="pdca_e", L_override=small_L,
                         restart_period=1, adaptive_restart=False),
        )
        assert plain.iterations == forced.iterations
        assert np.array_equal(plain.x_final, forced.x_final)
        assert np.array_equal(plain.objective_trace, forced.objective_trace)
        assert not forced.beta_trace.any()

    def test_extrapolation_speeds_up_convergence(self, small_instance, small_L):
        spec = L1MinusL2(1e-3)
        plain = solve(small_instance, spec, SolverConfig(algorithm="pdca", L_override=small_L))
        extra = solve(small_instance, spec, SolverConfig(algorithm="pdca_e", L_override=small_L))
        assert extra.iterations < plain.iterations

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_converges_with_small_residual(self, spec, small_instance, small_L):
        cfg = SolverConfig(algorithm="pdca_e", L_override=small_L)
        res = solve(small_instance, spec, cfg)
        assert res.status == "converged"
        assert stationarity_residual(small_instance, spec, res.x_final, small_L) <= 10 * cfg.tol

    def test_merit_monotone_along_run(self, small_instance, small_L):
        res = solve(small_instance, L1MinusL2(1e-3),
                    SolverConfig(algorithm="pdca_e", L_override=small_L))
        report = check_descent(res, small_L)
        assert report.violations == 0
        merit = np.array(merit_loop(res, small_L))
        assert np.all(merit[1:] <= merit[:-1])


class TestSolveResultContract:
    @staticmethod
    def assert_trace_contract(res, algorithm):
        t = res.iterations
        assert len(res.objective_trace) == t + 1
        assert len(res.step_norm_trace) == t
        assert (res.beta_trace is None) == (algorithm == "gist")
        if res.beta_trace is not None:
            assert len(res.beta_trace) == t
        if algorithm == "pdca":
            assert not res.beta_trace.any()

    def test_iterations_is_the_step_count(self, small_instance, small_L):
        res = solve(small_instance, L1MinusL2(1e-3),
                    SolverConfig(algorithm="pdca_e", L_override=small_L, max_iter=7))
        shorter = dataclasses.replace(res, step_norm_trace=res.step_norm_trace[:-2])
        assert (res.iterations, shorter.iterations) == (7, 5)

    @pytest.mark.parametrize("algorithm", SOLVERS)
    def test_trace_contract_converged(self, algorithm, small_instance, small_L):
        res = solve(small_instance, MCP(1e-3, 5.0),
                    SolverConfig(algorithm=algorithm, L_override=small_L))
        assert res.status == "converged"
        self.assert_trace_contract(res, algorithm)
        assert res.objective_trace[0] == pytest.approx(
            0.5 * float(small_instance.b @ small_instance.b))

    @pytest.mark.parametrize("max_iter", [3, 7])
    @pytest.mark.parametrize("algorithm", SOLVERS)
    def test_trace_contract_at_cap(self, algorithm, max_iter, small_instance, small_L):
        res = solve(small_instance, L1MinusL2(1e-3),
                    SolverConfig(algorithm=algorithm, L_override=small_L, max_iter=max_iter))
        assert res.status == "iteration_cap"
        assert res.iterations == max_iter
        assert res.message == ""
        self.assert_trace_contract(res, algorithm)

    @pytest.mark.parametrize("algorithm", SOLVERS)
    def test_aborts_on_non_finite_iterate(self, algorithm, overflow_instance):
        # grad f(0) = -A.T b overflows to -inf, so the first prox input is infinite;
        # A = 0.5 * ones((4, 1)) has lambda_max(A.T A) = 1 exactly
        with np.errstate(over="ignore", invalid="ignore"):
            res = solve(overflow_instance, L1MinusL2(1e-3),
                        SolverConfig(algorithm=algorithm, L_override=1.0))
        assert res.status == "aborted"
        assert res.message == "non-finite iterate at t=0"
        assert res.iterations == 0
        assert np.array_equal(res.x_final, [0.0])
        self.assert_trace_contract(res, algorithm)

    def test_gist_aborts_when_backtracking_exceeds_its_cap(self, monkeypatch, small_instance):
        # a full prox that never lowers F leaves every one of the 100 trials rejected
        monkeypatch.setattr("dcopt.solvers.full_prox", lambda spec, z, L_t: z + 1.0)
        res = solve(small_instance, L1MinusL2(1e-3), SolverConfig(algorithm="gist"))
        assert res.status == "aborted"
        assert res.message == "backtracking exceeded 100 trials at t=0"
        assert res.iterations == 0
        self.assert_trace_contract(res, "gist")

    def test_final_objective_matches_trace(self, small_instance, small_L):
        # bench and the CLI report F from the trace instead of recomputing it
        spec = LogPenalty(1e-3, 0.5)
        for algorithm in SOLVERS:
            res = solve(small_instance, spec,
                        SolverConfig(algorithm=algorithm, L_override=small_L))
            assert objective(small_instance, spec, res.x_final) == res.objective_trace[-1], algorithm

    def test_abort_on_absurd_curvature(self, small_instance):
        with np.errstate(over="ignore", invalid="ignore"):
            res = solve(small_instance, L1MinusL2(1e-3),
                        SolverConfig(algorithm="pdca_e", L_override=1e-300))
        assert res.status == "aborted"
        assert "non-finite" in res.message
        assert len(res.objective_trace) == res.iterations + 1
        assert len(res.step_norm_trace) == res.iterations

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm", ["pdca_e", "pdca"])
    def test_diverging_run_aborts_without_a_warning(self, algorithm):
        # L = 1 is below lambda_max (2.80): the iterates grow until 0.5 ||Ax - b||^2
        # overflows while x is still finite, and no numpy warning may pre-empt the abort
        inst = generate_instance(4, 6, 2, seed=0)
        res = solve(inst, L1MinusL2(1e-3), SolverConfig(algorithm=algorithm, L_override=1.0))
        assert res.status == "aborted"
        assert res.message == f"non-finite objective at t={res.iterations}"
        assert res.iterations > 100 and np.isfinite(res.objective_trace).all()
        self.assert_trace_contract(res, algorithm)
        assert check_descent(res, 1.0).violations > 0

    def test_wall_seconds_populated(self, small_instance, small_L):
        res = solve(small_instance, L1MinusL2(1e-3),
                    SolverConfig(algorithm="pdca_e", L_override=small_L))
        assert res.wall_seconds > 0.0

    @pytest.mark.parametrize("algorithm", SOLVERS)
    def test_pdca_family_needs_L_and_gist_ignores_it(self, algorithm, monkeypatch,
                                                     small_instance):
        # L has one owner, the caller: solve never estimates it on its own
        def no_pass(*args, **kwargs):
            raise AssertionError("A was read before L_override was checked")
        monkeypatch.setattr("dcopt.solvers._gemv_pair", no_pass)
        monkeypatch.setattr("dcopt.linalg._gemv_pair", no_pass)
        cfg = SolverConfig(algorithm=algorithm, max_iter=3)
        if algorithm == "gist":
            assert solve(small_instance, L1MinusL2(1e-3), cfg).iterations == 3
        else:
            with pytest.raises(ValueError, match=r"L_override.*lmax_gram\(inst\.A\)\.value"):
                solve(small_instance, L1MinusL2(1e-3), cfg)


class TestRegularizerCalls:
    """Each solver calls the regularizer layer through the names in dcopt.solvers.

    perfbench's traced run wraps exactly these names to time the layer per
    solver; a solver that bypassed them would make those metrics read 0.
    """

    CALLED = {
        "gist": {"full_prox", "reg_value"},
        "pdca_e": {"p1_prox", "p2_subgrad", "reg_value"},
        "pdca": {"p1_prox", "p2_subgrad", "reg_value"},
    }

    @pytest.mark.parametrize("algorithm", SOLVERS)
    def test_calls_go_through_module_names(self, algorithm, monkeypatch, small_instance, small_L):
        calls = dict.fromkeys(("p1_prox", "p2_subgrad", "reg_value", "full_prox"), 0)
        for name in calls:
            def counted(*args, _name=name, _inner=getattr(solvers_module, name), **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(solvers_module, name, counted)
        res = solve(small_instance, TransformedL1(1e-3, 1.0),
                    SolverConfig(algorithm=algorithm, L_override=small_L, max_iter=4))
        assert res.iterations == 4
        assert {name for name, n in calls.items() if n} == self.CALLED[algorithm]


class TestGist:
    def test_identity_no_penalty_hits_exact_solution(self):
        inst = identity_instance([0.5, -2.0])
        res = solve(inst, L1MinusL2(0.0), SolverConfig(algorithm="gist"))
        assert res.status == "converged"
        assert np.array_equal(res.x_final, inst.b)

    def test_scalar_mcp_matches_grid_scan(self):
        # F(x) = 0.5 (x-3)^2 + mcp(x); the flat region makes x = 3 optimal
        inst = identity_instance([3.0])
        spec = MCP(1.0, 2.0)
        res = solve(inst, spec, SolverConfig(algorithm="gist", tol=1e-9))
        fun = lambda u: objective(inst, spec, np.array([u]))
        u_ref = grid_min_1d(fun, -6.0, 6.0)
        assert res.status == "converged"
        assert fun(float(res.x_final[0])) <= fun(u_ref) + 1e-6
        assert res.x_final[0] == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_converges_with_small_residual(self, spec, small_instance, small_L):
        cfg = SolverConfig(algorithm="gist")
        res = solve(small_instance, spec, cfg)
        assert res.status == "converged"
        assert stationarity_residual(small_instance, spec, res.x_final, small_L) <= 10 * cfg.tol

    def test_objective_never_exceeds_window_start(self, small_instance):
        # nonmonotone in general, but never above F(0) given the M-window rule
        res = solve(small_instance, SCAD(1e-3, 3.7), SolverConfig(algorithm="gist"))
        assert np.all(res.objective_trace <= res.objective_trace[0] + 1e-12)


class TestSolversAgree:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_final_objectives_comparable(self, spec, small_instance, small_L):
        # different stationary points are possible, but on this well-behaved
        # instance all three solvers should land at essentially the same level
        vals = []
        for alg in ("pdca_e", "pdca", "gist"):
            L = small_L if alg != "gist" else None
            res = solve(small_instance, spec,
                        SolverConfig(algorithm=alg, L_override=L))
            vals.append(objective(small_instance, spec, res.x_final))
        spread = (max(vals) - min(vals)) / max(1e-12, abs(min(vals)))
        assert spread <= 5e-2


@pytest.fixture(scope="module")
def pdca_e_run(small_instance, small_L):
    res = solve(small_instance, LogPenalty(1e-3, 0.5),
                SolverConfig(algorithm="pdca_e", L_override=small_L))
    return res, small_L


class TestCheckDescent:
    def test_clean_run_has_no_violations(self, pdca_e_run):
        res, L = pdca_e_run
        report = check_descent(res, L)
        assert report.violations == 0
        assert report.max_violation == 0.0
        merit = np.array(merit_loop(res, L))
        assert np.all(merit[1:] <= merit[:-1])

    def test_plain_pdca_also_clean(self, small_instance, small_L):
        res = solve(small_instance, L1MinusL2(1e-3),
                    SolverConfig(algorithm="pdca", L_override=small_L))
        report = check_descent(res, small_L)
        assert report.violations == 0

    def test_detects_merit_bump(self, pdca_e_run):
        # negative control: push one objective value, and so its merit, up past the slack
        res, L = pdca_e_run
        obj = res.objective_trace.copy()
        k = len(obj) // 2
        obj[k] += 1e-3
        broken = dataclasses.replace(res, objective_trace=obj)
        report = check_descent(broken, L)
        assert report.violations >= 1
        # the bump turns step k-1's merit drop d into d - 1e-3
        merit = merit_loop(res, L)
        assert report.max_violation >= 1e-3 - (merit[k - 1] - merit[k])

    def test_detects_inflated_step(self, pdca_e_run):
        # negative control: claim a larger step than the merit drop supports
        res, L = pdca_e_run
        steps = res.step_norm_trace.copy()
        steps[0] *= 64.0
        broken = dataclasses.replace(res, step_norm_trace=steps)
        report = check_descent(broken, L)
        assert report.violations >= 1

    @pytest.mark.parametrize("algorithm", ["pdca_e", "pdca"])
    @pytest.mark.parametrize("spec", [L1MinusL2(1e-3), LogPenalty(1e-3, 0.5), MCP(1e-3, 5.0),
                                      TransformedL1(1e-3, 1.0)], ids=lambda s: s.name)
    def test_matches_step_by_step_loop(self, small_instance, small_L, spec, algorithm):
        res = solve(small_instance, spec, SolverConfig(algorithm=algorithm, L_override=small_L))
        obj = res.objective_trace.copy()
        obj[len(obj) // 2] += 1e-3
        steps = res.step_norm_trace * 64.0
        for run, L in ((res, small_L), (res, small_L / 64.0),
                       (dataclasses.replace(res, objective_trace=obj), small_L),
                       (dataclasses.replace(res, step_norm_trace=steps), small_L)):
            report = check_descent(run, L)
            assert (report.violations, report.max_violation) == descent_audit_loop(run, L)
            assert type(report.violations) is int and type(report.max_violation) is float

    def test_matches_loop_on_aborted_and_non_finite_traces(self, pdca_e_run, overflow_instance):
        with np.errstate(over="ignore", invalid="ignore"):
            aborted = solve(overflow_instance, L1MinusL2(1e-3),
                            SolverConfig(algorithm="pdca", L_override=1.0))
        assert aborted.iterations == 0
        assert check_descent(aborted, 1.0) == DescentReport(0, 0.0)
        assert descent_audit_loop(aborted, 1.0) == (0, 0.0)
        res, L = pdca_e_run
        obj = res.objective_trace.copy()
        obj[3], obj[5], obj[7] = np.nan, np.inf, -np.inf
        broken = dataclasses.replace(res, objective_trace=obj)
        report = check_descent(broken, L)
        assert (report.violations, report.max_violation) == descent_audit_loop(broken, L)

    def test_requires_merit_trace(self, small_instance):
        res = solve(small_instance, L1MinusL2(1e-3), SolverConfig(algorithm="gist"))
        assert res.beta_trace is None
        with pytest.raises(ValueError, match="needs a pdca_e or pdca run"):
            check_descent(res, 1.0)

    def test_rejects_inconsistent_lengths(self, pdca_e_run):
        res, L = pdca_e_run
        for name in ("objective_trace", "step_norm_trace", "beta_trace"):
            broken = dataclasses.replace(res, **{name: getattr(res, name)[:-1]})
            with pytest.raises(ValueError, match="inconsistent with iterations"):
                check_descent(broken, L)

    @pytest.mark.parametrize("L", [math.nan, 0.0, -1.0, math.inf, True, 5e-324])
    def test_rejects_bad_L(self, pdca_e_run, L):
        res, _ = pdca_e_run
        with pytest.raises(ValueError, match="L must be positive and finite"):
            check_descent(res, L)


class TestStationarityResidual:
    @pytest.mark.parametrize("L", [math.nan, 0.0, -1.0, math.inf, True, 5e-324])
    def test_rejects_bad_L(self, L):
        inst = identity_instance([1.0, 0.0])
        with pytest.raises(ValueError, match="L must be positive and finite"):
            stationarity_residual(inst, L1MinusL2(0.1), np.zeros(2), L)

    def test_zero_at_exact_minimizer(self):
        # no penalty, identity design: x = b is stationary
        inst = identity_instance([0.7, -0.3])
        got = stationarity_residual(inst, L1MinusL2(0.0), inst.b.copy(), 1.0)
        assert got == 0.0

    def test_hand_value_at_origin(self):
        # x = 0: residual reduces to ||p1_prox(A^T b / L, 1/L)|| / 1;
        # soft thresholding (1, 0) by 0.1 leaves norm 0.9
        inst = identity_instance([1.0, 0.0])
        got = stationarity_residual(inst, L1MinusL2(0.1), np.zeros(2), 1.0)
        assert got == pytest.approx(0.9, abs=1e-12)

    def test_small_after_convergence(self, small_instance, small_L):
        cfg = SolverConfig(algorithm="pdca_e", L_override=small_L)
        res = solve(small_instance, L1MinusL2(1e-3), cfg)
        assert res.status == "converged"
        got = stationarity_residual(small_instance, L1MinusL2(1e-3), res.x_final, small_L)
        assert got <= 10 * cfg.tol

    def test_large_far_from_stationarity(self, small_instance, small_L):
        got = stationarity_residual(small_instance, L1MinusL2(1e-3),
                                    np.zeros(small_instance.n), small_L)
        assert got > 1e-2


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("size", [(40, 100, 5), (70, 200, 8), (100, 300, 10)],
                         ids=lambda size: "x".join(map(str, size)))
def test_converged_runs_meet_the_papers_stationarity(size, seed):
    # the oracle checks the papers' definition, not stationarity_residual's prox map; at
    # lam = 1e-2 a p1_prox threshold 1% high or an l1-l2 xi 10% short breaks the bound
    inst = generate_instance(*size, seed=seed)
    L = lmax_gram(inst.A).value
    checked = 0
    for spec in ALL_SPECS:
        spec = dataclasses.replace(spec, lam=1e-2)
        for algorithm in SOLVERS:
            cfg = SolverConfig(algorithm=algorithm, L_override=L)
            res = solve(inst, spec, cfg)
            if res.status == "converged":
                checked += 1
                kkt = kkt_residual(inst.A, inst.b, spec, res.x_final)
                bound = 2.0 * L * cfg.tol * max(1.0, float(np.linalg.norm(res.x_final)))
                assert kkt <= bound, (type(spec).__name__, algorithm, kkt, bound)
    # plain pdca may hit the cap; every other run converges
    assert checked >= 2 * len(ALL_SPECS)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(period=st.integers(0, 400), adaptive=st.booleans(), spec=st.sampled_from(ALL_SPECS),
       m=st.integers(5, 40), n=st.integers(10, 80), s=st.integers(1, 5),
       seed=st.integers(0, 2**32), lam_share=st.floats(0.01, 0.9))
def test_stationarity_theorem_holds_across_schedules(period, adaptive, spec, m, n, s, seed,
                                                     lam_share):
    # the papers' theorem needs only sup_t beta_t < 1, which a fixed period T gives with
    # beta_bar(T) = beta_{T-1}; at period 0 beta_k tends to 1, outside the theorem, so the
    # descent certificate and the schedule are all that is checked there
    inst = generate_instance(m, n, s, seed=seed)
    L = lmax_gram(inst.A).value
    spec = dataclasses.replace(spec, lam=lam_share * l12_lambda_bound(inst))
    cfg = SolverConfig(algorithm="pdca_e", L_override=L, restart_period=period,
                       adaptive_restart=adaptive)
    res = solve(inst, spec, cfg)
    assert res.status != "aborted"
    assert check_descent(res, L).violations == 0
    table = _beta_table(period or res.iterations)
    if not adaptive:  # a fixed restart every T steps: beta_t = beta_{t mod T}
        assert res.beta_trace.tolist() == [table[t % len(table)] for t in range(res.iterations)]
    if period:
        assert res.beta_trace.max() <= table[-1] < 1.0
    if period and res.status == "converged":
        # the last prox step was taken at y = x^{T-1} + beta (x^{T-1} - x^{T-2}), so its
        # optimality condition bounds the residual at x^T by 2 L ||x^T - y||, which exceeds
        # 2 L tol max(1, ||x||) by up to 2 L beta ||x^{T-1} - x^{T-2}||
        x, steps = res.x_final, np.concatenate(([0.0], res.step_norm_trace))
        momentum = res.beta_trace[-1] * steps[-2]
        bound = 2.0 * L * (cfg.tol * max(1.0, float(np.linalg.norm(x))) + momentum)
        assert kkt_residual(inst.A, inst.b, spec, x) <= bound


@functools.lru_cache(maxsize=None)
def textbook_case(m, n, s):
    inst = generate_instance(m, n, s, seed=3)
    return inst, lmax_gram(inst.A).value


TEXTBOOK_SIZES = pytest.mark.parametrize("size", [(60, 200, 8), (120, 400, 12), (200, 800, 20)],
                                         ids=lambda size: "x".join(map(str, size)))


class TestTextbookTrajectory:
    """solve against the papers' loops written afresh (oracles.textbook_pdca, textbook_gist)."""

    @pytest.mark.parametrize("algorithm", ["pdca_e", "pdca"])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    @TEXTBOOK_SIZES
    def test_solve_follows_the_textbook_loop(self, size, spec, algorithm):
        inst, L = textbook_case(*size)
        res = solve(inst, spec, SolverConfig(algorithm=algorithm, L_override=L))
        ref = textbook_pdca(inst, spec, L, extrapolate=algorithm == "pdca_e")
        assert (res.iterations, res.status) == (len(ref.step_norm_trace), ref.status)
        F, F_ref = res.objective_trace, ref.objective_trace
        assert np.all(np.abs(F - F_ref) <= 1e-10 * np.abs(F_ref))
        gap = np.linalg.norm(res.x_final - ref.x_final)
        assert gap <= 1e-9 * max(1.0, np.linalg.norm(ref.x_final))
        # the oracle forms its weights by its own theta recursion and resets it on its own
        # triggers; a reset early, late or missed changes a weight
        assert np.array_equal(res.beta_trace, ref.beta_trace)
        if algorithm == "pdca":
            assert not res.beta_trace.any() and not ref.restarts

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    @TEXTBOOK_SIZES
    def test_gist_follows_the_textbook_loop(self, size, spec):
        inst, _ = textbook_case(*size)
        res = solve(inst, spec, SolverConfig(algorithm="gist"))
        ref = textbook_gist(inst, spec)
        assert (res.iterations, res.status) == (len(ref.step_norm_trace), ref.status)
        F, F_ref = res.objective_trace, ref.objective_trace
        assert np.all(np.abs(F - F_ref) <= 1e-10 * np.abs(F_ref))
        gap = np.linalg.norm(res.x_final - ref.x_final)
        assert gap <= 1e-9 * max(1.0, np.linalg.norm(ref.x_final))

    @pytest.mark.parametrize("q", [3e-4, 3e-5])
    def test_gist_accepts_at_the_papers_sigma(self, q):
        # two unit columns at cosine 1 - q: the first trial (L_t = 1) lowers F by
        # about (q / 2) ||d||^2, so sigma = 1e-4 accepts it at q = 3e-4 and rejects
        # it at q = 3e-5, where 1e-3 and 1e-5 would each decide the other way
        c = 1.0 - q
        A = np.array([[1.0, c], [0.0, np.sqrt(1.0 - c * c)]])
        inst = ProblemInstance(A, np.array([1.0, 0.0]), np.zeros(2), np.array([], int), 0, 0.0)
        spec = L1MinusL2(1e-3)
        d = full_prox(spec, A.T @ inst.b, 1.0)
        drop = (objective(inst, spec, np.zeros(2)) - objective(inst, spec, d)) / (0.5 * d @ d)
        assert 0.5 * q < drop < 2 * q
        res = solve(inst, spec, SolverConfig(algorithm="gist"))
        ref = textbook_gist(inst, spec)
        assert (res.iterations, res.status) == (len(ref.step_norm_trace), ref.status)
        F, F_ref = res.objective_trace, ref.objective_trace
        assert np.all(np.abs(F - F_ref) <= 1e-10 * np.abs(F_ref))


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace module.name by a spy that adds one entry per call to the returned list."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


@functools.lru_cache(maxsize=None)
def desk_case():
    """Desk replicate 0, its lmax_gram estimate, and the passes over A the estimate made."""
    inst = generate_instance(720, 2560, 80, seed=replicate_seed(0, 720, 2560, 80, 0))
    with pytest.MonkeyPatch.context() as mp:
        passes = count_calls(mp, linalg, "_gemv_pair")
        est = lmax_gram(inst.A)
    return inst, est, len(passes)


def desk_results() -> str:
    """Desk replicate 0: L, then l1-l2 pdca_e to convergence and 300 pdca steps."""
    inst, est, _ = desk_case()
    out = [repr(est)]
    for algorithm, cap in (("pdca_e", 5000), ("pdca", 300)):
        res = solve(inst, L1MinusL2(5e-4),
                    SolverConfig(algorithm=algorithm, max_iter=cap, L_override=est.value))
        out.append(f"{algorithm} {res.iterations} {res.status} {res.objective_trace[-1]!r}")
    return "\n".join(out)


@pytest.mark.parametrize("algorithm", ["pdca_e", "pdca"])
def test_one_pass_over_A_per_power_step_and_iteration(monkeypatch, small_instance, algorithm):
    # on any build: LmaxResult.iterations counts passes, and a pdca step makes one
    power = count_calls(monkeypatch, linalg, "_gemv_pair")
    est = lmax_gram(small_instance.A)
    assert len(power) == est.iterations > 1
    passes = count_calls(monkeypatch, solvers_module, "_gemv_pair")
    res = solve(small_instance, L1MinusL2(1e-3), SolverConfig(algorithm, L_override=est.value))
    assert len(passes) == res.iterations > 1


def test_desk_pass_and_trial_counts(monkeypatch, pinned_bits):
    # desk replicate 0 at l1-l2 lambda 5e-4, as perfbench's reference pins it; pdca is
    # left out, since its 5000 is the iteration cap
    inst, est, power = desk_case()
    assert (power, est.iterations, repr(est.value)) == (3604, 3604, "8.29728534902795")
    passes = count_calls(monkeypatch, solvers_module, "_gemv_pair")
    trials = count_calls(monkeypatch, solvers_module, "full_prox")
    spec = L1MinusL2(5e-4)
    res = solve(inst, spec, SolverConfig("pdca_e", L_override=est.value))
    assert (res.iterations, len(passes)) == (812, 812)
    res = solve(inst, spec, SolverConfig("gist"))
    assert (res.iterations, len(trials)) == (1438, 2568)


def test_desk_results_at_one_blas_thread_match_the_default():
    # one BLAS thread takes the blocked gemv pair; this process may not
    tests = Path(__file__).resolve().parent
    code = ("from dcopt import linalg; from test_solvers import desk_results; "
            "assert linalg._BLAS[1]() == 1; print(desk_results())")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=600)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == desk_results()
