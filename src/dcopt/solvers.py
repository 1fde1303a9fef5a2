"""The three solvers: pDCA_e, plain pDCA (beta = 0), and the GIST baseline.

All start from the origin and share the stopping rule
||x^t - x^{t-1}|| / max(1, ||x^t||) < tol. The pdca family performs one
matvec and one transposed matvec per iteration: the extrapolated product
A y^t is the affine combination of the cached A x^t and A x^{t-1}, and the
fresh product A x^{t+1} feeds both the next iteration and the objective and
merit traces, so tracing adds no matvecs.
"""

from __future__ import annotations

import logging
import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .instances import ProblemInstance
from .linalg import lmax_gram
from .regularizers import RegularizerSpec, full_prox, p1_prox, p2_subgrad, reg_value

log = logging.getLogger(__name__)

SOLVERS = ("gist", "pdca_e", "pdca")

# GIST line search: sufficient-decrease constant, step growth factor, window
# of the nonmonotone reference, BB clamp, and the first trial step
_GIST_C = 1e-4
_GIST_TAU = 2.0
_GIST_M = 4
_GIST_L_MIN = 1e-8
_GIST_L_MAX = 1e8
_GIST_L0_FIRST = 1.0


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str
    tol: float = 1e-5
    max_iter: int = 5000
    restart_period: int | None = 200
    adaptive_restart: bool = True  # pdca_e only, like restart_period
    L_override: float | None = None  # pdca_e/pdca step constant; gist ignores it

    def __post_init__(self):
        if self.algorithm not in SOLVERS:
            raise ValueError(f"algorithm must be one of {SOLVERS}")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.restart_period is not None and self.restart_period < 1:
            raise ValueError("restart_period must be >= 1 when present")
        if self.L_override is not None and not 0 < self.L_override < math.inf:
            raise ValueError("L_override must be positive and finite")


@dataclass(frozen=True)
class ExtrapolationState:
    theta_prev: float = 1.0
    theta: float = 1.0
    iterations_since_restart: int = 0


def next_beta(
    state: ExtrapolationState,
    restart_period: int | None,
    adaptive_trigger: bool,
) -> tuple[float, ExtrapolationState]:
    """Emit beta_t = (theta_{t-1} - 1)/theta_t and advance the theta recursion.

    A reset (adaptive trigger, or the since-restart counter reaching the
    fixed period) puts theta_prev = theta = 1 before beta is formed, so the
    beta emitted immediately after any reset is 0. Both triggers firing at
    once reset once; the counter restarts on either kind.
    """
    theta_prev = state.theta_prev
    theta = state.theta
    since = state.iterations_since_restart
    if adaptive_trigger or (restart_period is not None and since == restart_period):
        theta_prev = theta = 1.0
        since = 0
    beta = (theta_prev - 1.0) / theta
    theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
    return beta, ExtrapolationState(theta, theta_next, since + 1)


@dataclass
class SolveResult:
    x_final: np.ndarray
    iterations: int
    status: str  # converged | iteration_cap | aborted
    objective_trace: np.ndarray
    merit_trace: np.ndarray | None
    step_norm_trace: np.ndarray
    beta_trace: np.ndarray | None  # pdca_e only
    wall_seconds: float
    message: str = ""


def _resolve_L(inst: ProblemInstance, cfg: SolverConfig) -> float:
    if cfg.L_override is not None:
        return cfg.L_override
    est = lmax_gram(inst.A)
    if not est.converged:
        log.warning("pdca: lmax_gram did not converge; using best estimate %.6e", est.value)
    return est.value


def _pdca(inst: ProblemInstance, spec: RegularizerSpec, cfg: SolverConfig) -> SolveResult:
    """Proximal DC iteration, extrapolated (pdca_e) or plain (pdca).

    Each step: xi^t in dP2(x^t); y^t = x^t + beta_t (x^t - x^{t-1});
    x^{t+1} = p1_prox(y^t - (1/L)(grad f(y^t) - xi^t), 1/L). The adaptive
    restart trigger is <y^{t-1} - x^t, x^t - x^{t-1}> > 0, evaluated before
    y^t is formed. wall_seconds covers the iteration loop only (L is resolved
    beforehand).
    """
    L = _resolve_L(inst, cfg)
    use_extra = cfg.algorithm == "pdca_e"

    A, b = inst.A, inst.b
    n = inst.n
    x = np.zeros(n)
    x_prev = np.zeros(n)
    Ax = np.zeros(inst.m)
    Ax_prev = np.zeros(inst.m)
    y_prev: np.ndarray | None = None
    state = ExtrapolationState()

    F0 = 0.5 * float(b @ b)  # F(0): every penalty vanishes at the origin
    obj = [F0]
    merit = [F0]
    steps: list[float] = []
    betas: list[float] = []

    status = "iteration_cap"
    message = ""
    iterations = cfg.max_iter

    t_start = time.perf_counter()
    for t in range(cfg.max_iter):
        if use_extra:
            trigger = (
                cfg.adaptive_restart
                and y_prev is not None
                and float((y_prev - x) @ (x - x_prev)) > 0.0
            )
            beta, state = next_beta(state, cfg.restart_period, trigger)
        else:
            beta = 0.0

        y = x + beta * (x - x_prev)
        Ay = Ax + beta * (Ax - Ax_prev)
        grad_y = A.T @ (Ay - b)
        xi = p2_subgrad(spec, x)
        x_new = p1_prox(spec, y - (grad_y - xi) / L, 1.0 / L)
        if not np.all(np.isfinite(x_new)):
            status = "aborted"
            message = f"non-finite iterate at t={t}"
            iterations = t
            break
        Ax_new = A @ x_new

        step = float(np.linalg.norm(x_new - x))
        r = Ax_new - b
        p1v, p2v = reg_value(spec, x_new)
        F = 0.5 * float(r @ r) + p1v - p2v
        obj.append(F)
        merit.append(F + 0.5 * L * step * step)
        steps.append(step)
        betas.append(beta)

        y_prev = y
        x_prev, x = x, x_new
        Ax_prev, Ax = Ax, Ax_new

        if step / max(1.0, float(np.linalg.norm(x))) < cfg.tol:
            status = "converged"
            iterations = t + 1
            break
    wall = time.perf_counter() - t_start

    return SolveResult(
        x_final=x,
        iterations=iterations,
        status=status,
        objective_trace=np.array(obj),
        merit_trace=np.array(merit),
        step_norm_trace=np.array(steps),
        beta_trace=np.array(betas) if use_extra else None,
        wall_seconds=wall,
        message=message,
    )


def _gist(inst: ProblemInstance, spec: RegularizerSpec, cfg: SolverConfig) -> SolveResult:
    """Nonmonotone proximal gradient with BB initialization and the full prox.

    The trial step L_t starts from the clamped BB curvature ||A d||^2/||d||^2
    (_GIST_L0_FIRST on the first iteration) and grows by _GIST_TAU until the
    candidate passes the sufficient-decrease test against the largest
    objective among the last _GIST_M accepted iterates. More than 100
    backtracks aborts: that only happens if full_prox returns a
    non-minimizer.
    """
    A, b = inst.A, inst.b
    n = inst.n

    x = np.zeros(n)
    Ax = np.zeros(inst.m)
    x_prev: np.ndarray | None = None
    Ax_prev: np.ndarray | None = None

    F0 = 0.5 * float(b @ b)
    obj = [F0]
    steps: list[float] = []
    window: deque[float] = deque([F0], maxlen=_GIST_M)
    L0 = _GIST_L0_FIRST

    status = "iteration_cap"
    message = ""
    iterations = cfg.max_iter

    t_start = time.perf_counter()
    for t in range(cfg.max_iter):
        grad = A.T @ (Ax - b)
        if t >= 1:
            d = x - x_prev
            Ad = Ax - Ax_prev
            dd = float(d @ d)
            if dd > 0.0:
                L0 = min(max(float(Ad @ Ad) / dd, _GIST_L_MIN), _GIST_L_MAX)

        f_ref = max(window)
        L_t = L0
        accepted = False
        for _ in range(100):
            cand = full_prox(spec, x - grad / L_t, L_t)
            Acand = A @ cand
            rc = Acand - b
            p1v, p2v = reg_value(spec, cand)
            Fc = 0.5 * float(rc @ rc) + p1v - p2v
            diff = cand - x
            if np.isfinite(Fc) and Fc <= f_ref - 0.5 * _GIST_C * L_t * float(diff @ diff):
                accepted = True
                break
            L_t *= _GIST_TAU
        if not accepted:
            status = "aborted"
            message = f"backtracking exceeded 100 trials at t={t}"
            iterations = t
            break

        step = float(np.linalg.norm(diff))
        x_prev, x = x, cand
        Ax_prev, Ax = Ax, Acand
        obj.append(Fc)
        steps.append(step)
        window.append(Fc)

        if step / max(1.0, float(np.linalg.norm(x))) < cfg.tol:
            status = "converged"
            iterations = t + 1
            break
    wall = time.perf_counter() - t_start

    return SolveResult(
        x_final=x,
        iterations=iterations,
        status=status,
        objective_trace=np.array(obj),
        merit_trace=None,
        step_norm_trace=np.array(steps),
        beta_trace=None,
        wall_seconds=wall,
        message=message,
    )


def solve(inst: ProblemInstance, spec: RegularizerSpec, cfg: SolverConfig) -> SolveResult:
    """Run cfg.algorithm from the origin."""
    if cfg.algorithm == "gist":
        return _gist(inst, spec, cfg)
    return _pdca(inst, spec, cfg)
