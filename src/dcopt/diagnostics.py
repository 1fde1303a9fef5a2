"""Per-iteration descent audit and a stationarity residual.

The merit function E(x, y) = F(x) + (L/2)||x - y||^2 decreases along pdca
iterates by at least (L/2)(1 - beta_t^2) ||x^t - x^{t-1}||^2 per step; the
audit rebuilds E from a solve's objective and step traces and replays them
against that inequality. The residual measures distance from being a fixed
point of the prox-gradient map with the same subgradient selection the
solvers use, so residual 0 is exactly stationarity under that selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import ProblemInstance
from .linalg import _is_real
from .regularizers import RegularizerSpec, p1_prox, p2_subgrad
from .solvers import SolveResult


@dataclass(frozen=True)
class DescentReport:
    violations: int
    max_violation: float


def _check_L(L: float) -> None:
    if not (_is_real(L) and 0 < L < math.inf):
        raise ValueError("L must be positive and finite")


def merit(result: SolveResult, L: float) -> np.ndarray:
    """E_t = F(x^t) + (L/2)||x^t - x^{t-1}||^2 for t = 0..iterations.

    Computed from the objective and step traces with the L given here; the
    incoming step at t = 0 is zero because x^0 = x^{-1}, so E_0 = F(x^0).
    """
    step_in = np.concatenate(([0.0], result.step_norm_trace))
    return np.asarray(result.objective_trace, dtype=np.float64) + 0.5 * L * step_in * step_in


def check_descent(result: SolveResult, L: float) -> DescentReport:
    """Replay a pdca_e/pdca run's traces against the per-step descent bound.

    Checks E_t - E_{t+1} >= (L/2)(1 - beta_t^2) * ||x^t - x^{t-1}||^2 for
    every step, with E the merit above and slack 1e-8 * max(1, |E_0|). Every
    beta_t < 1, so a run without violations also has a merit that never rises
    by more than the slack.
    """
    _check_L(L)
    if result.beta_trace is None:
        raise ValueError("check_descent needs a pdca_e or pdca run")
    T = result.iterations
    sizes = (len(result.objective_trace), T, len(result.beta_trace))
    if sizes != (T + 1, T, T):
        raise ValueError(f"trace lengths {sizes} inconsistent with iterations={T}")

    E = merit(result, L)
    betas = np.asarray(result.beta_trace, dtype=np.float64)
    step_in = np.concatenate(([0.0], result.step_norm_trace))[:T]
    slack = 1e-8 * max(1.0, abs(float(E[0])))
    shortfall = 0.5 * L * (1.0 - betas * betas) * (step_in * step_in) - (E[:-1] - E[1:])
    # a NaN shortfall (from a non-finite merit) is neither a violation nor a maximum
    return DescentReport(int(np.count_nonzero(shortfall > slack)),
                         float(shortfall[shortfall > 0.0].max(initial=0.0)))


def stationarity_residual(
    inst: ProblemInstance,
    spec: RegularizerSpec,
    x: np.ndarray,
    L: float,
) -> float:
    """||x - prox step at x|| / max(1, ||x||) with the solver's subgradient choice.

    The map is p1_prox(x - (1/L)(grad f(x) - xi), 1/L) with xi = p2_subgrad(x);
    the value is 0 exactly when x is a fixed point of the iterate map, which
    implies stationarity of the DC objective.
    """
    _check_L(L)
    x = np.asarray(x, dtype=np.float64)
    grad = inst.A.T @ (inst.A @ x - inst.b)
    xi = p2_subgrad(spec, x)
    mapped = p1_prox(spec, x - (grad - xi) / L, 1.0 / L)
    return float(np.linalg.norm(x - mapped)) / max(1.0, float(np.linalg.norm(x)))
