"""The descent audit and the stationarity residual."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from dcopt.instances import ProblemInstance
from dcopt.regularizers import MCP, L1MinusL2, LogPenalty, TransformedL1
from dcopt.solvers import DescentReport, SolverConfig, check_descent, solve, stationarity_residual
from oracles import descent_audit_loop, merit_loop


def identity_instance(b):
    return ProblemInstance(
        A=np.eye(len(b)),
        b=np.asarray(b, dtype=float),
        ground_truth=np.zeros(len(b)),
        support=np.array([0], dtype=np.int64),
        seed=0,
        noise_scale=0.0,
    )


@pytest.fixture(scope="module")
def run(small_instance, small_L):
    res = solve(small_instance, LogPenalty(1e-3, 0.5),
                SolverConfig(algorithm="pdca_e", L_override=small_L))
    return res, small_L


class TestCheckDescent:
    def test_clean_run_has_no_violations(self, run):
        res, L = run
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

    def test_detects_merit_bump(self, run):
        # negative control: push one objective value, and so its merit, up past the slack
        res, L = run
        obj = res.objective_trace.copy()
        k = len(obj) // 2
        obj[k] += 1e-3
        broken = dataclasses.replace(res, objective_trace=obj)
        report = check_descent(broken, L)
        assert report.violations >= 1
        # the bump turns step k-1's merit drop d into d - 1e-3
        merit = merit_loop(res, L)
        assert report.max_violation >= 1e-3 - (merit[k - 1] - merit[k])

    def test_detects_inflated_step(self, run):
        # negative control: claim a larger step than the merit drop supports
        res, L = run
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

    def test_matches_loop_on_aborted_and_non_finite_traces(self, run, overflow_instance):
        with np.errstate(over="ignore", invalid="ignore"):
            aborted = solve(overflow_instance, L1MinusL2(1e-3),
                            SolverConfig(algorithm="pdca", L_override=1.0))
        assert aborted.iterations == 0
        assert check_descent(aborted, 1.0) == DescentReport(0, 0.0)
        assert descent_audit_loop(aborted, 1.0) == (0, 0.0)
        res, L = run
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

    def test_rejects_inconsistent_lengths(self, run):
        res, L = run
        for name in ("objective_trace", "step_norm_trace", "beta_trace"):
            broken = dataclasses.replace(res, **{name: getattr(res, name)[:-1]})
            with pytest.raises(ValueError, match="inconsistent with iterations"):
                check_descent(broken, L)

    @pytest.mark.parametrize("L", [math.nan, 0.0, -1.0, math.inf, True])
    def test_rejects_bad_L(self, run, L):
        res, _ = run
        with pytest.raises(ValueError, match="L must be positive and finite"):
            check_descent(res, L)


class TestStationarityResidual:
    @pytest.mark.parametrize("L", [math.nan, 0.0, -1.0, math.inf, True])
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
