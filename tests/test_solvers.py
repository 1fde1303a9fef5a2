"""The extrapolation schedule, both DC solvers, and the line-search baseline."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dcopt import replicate_seed
from dcopt import solvers as solvers_module
from dcopt.diagnostics import check_descent, stationarity_residual
from dcopt.instances import ProblemInstance, generate_instance
from dcopt.linalg import lmax_gram
from dcopt.regularizers import MCP, SCAD, L1MinusL2, LogPenalty, TransformedL1, reg_value
from dcopt.solvers import SOLVERS, ExtrapolationState, SolverConfig, next_beta, objective, solve
from oracles import grid_min_1d, merit_loop

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
            dict(algorithm="pdca_e", restart_period=0),
            dict(algorithm="pdca", L_override=-1.0),
            dict(algorithm="pdca", tol=float("nan")),
            dict(algorithm="pdca", L_override=float("nan")),
            dict(algorithm="pdca_e", L_override=float("inf")),
            # bool is a Real: True ran as tol 1, or as L = 1, where pdca diverged
            dict(algorithm="pdca", tol=True),
            dict(algorithm="pdca", L_override=True),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("field", ["max_iter", "restart_period"])
    @pytest.mark.parametrize("value", [2.5, 200.0, True])
    def test_rejects_non_integer_counts(self, field, value):
        # restart_period=2.5 never equals the since-restart counter, so it would never fire;
        # True is an Integral, and would run as a one-step cap or a restart every step
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            SolverConfig(algorithm="pdca_e", **{field: value})

    def test_accepts_numpy_integer_counts(self):
        cfg = SolverConfig(algorithm="pdca_e", max_iter=np.int64(7), restart_period=np.int32(3))
        assert (cfg.max_iter, cfg.restart_period) == (7, 3)

    def test_frozen(self):
        cfg = SolverConfig(algorithm="pdca")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.L_override = 1.0


class TestNextBeta:
    def test_first_values(self):
        st = ExtrapolationState()
        b0, st = next_beta(st, None, False)
        b1, st = next_beta(st, None, False)
        b2, st = next_beta(st, None, False)
        assert b0 == 0.0
        assert b1 == 0.0
        # (theta_1 - 1)/theta_2 with theta_1 = golden ratio: frozen value
        assert b2 == pytest.approx(0.2817535, abs=1e-6)

    def test_monotone_growth_without_restart(self):
        st = ExtrapolationState()
        betas = []
        for _ in range(50):
            b, st = next_beta(st, None, False)
            betas.append(b)
        assert all(b2 >= b1 for b1, b2 in zip(betas[2:], betas[3:]))
        assert betas[-1] < 1.0

    def test_fixed_restart_resets(self):
        st = ExtrapolationState()
        betas = []
        for _ in range(4):
            b, st = next_beta(st, 3, False)
            betas.append(b)
        # the counter hits the period on the fourth call
        assert betas[3] == 0.0
        assert betas[2] > 0.0

    def test_adaptive_trigger_resets(self):
        st = ExtrapolationState()
        for _ in range(10):
            _, st = next_beta(st, None, False)
        b, st = next_beta(st, None, True)
        assert b == 0.0
        assert st.iterations_since_restart == 1

    def test_counter_restarts_after_adaptive_reset(self):
        st = ExtrapolationState()
        for _ in range(2):
            _, st = next_beta(st, 5, False)
        _, st = next_beta(st, 5, True)
        assert st.iterations_since_restart == 1

    def test_range_over_long_run(self, rng):
        st = ExtrapolationState()
        sup = 0.0
        for k in range(2000):
            trigger = bool(rng.random() < 0.02)
            b, st = next_beta(st, 50, trigger)
            assert 0.0 <= b < 1.0
            sup = max(sup, b)
        assert sup < 1.0


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


def desk_results() -> str:
    """Desk replicate 0: L, then l1-l2 pdca_e to convergence and 300 pdca steps."""
    inst = generate_instance(720, 2560, 80, seed=replicate_seed(0, 720, 2560, 80, 0))
    est = lmax_gram(inst.A)
    out = [repr(est)]
    for algorithm, cap in (("pdca_e", 5000), ("pdca", 300)):
        res = solve(inst, L1MinusL2(5e-4),
                    SolverConfig(algorithm=algorithm, max_iter=cap, L_override=est.value))
        out.append(f"{algorithm} {res.iterations} {res.status} {res.objective_trace[-1]!r}")
    return "\n".join(out)


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
