"""The three solvers: pDCA_e, plain pDCA (beta = 0), and the GIST baseline.

All three run in one loop that starts from the origin, caches A x^t and
A x^{t-1}, and stops when ||x^t - x^{t-1}|| / max(1, ||x^t||) < tol; only
the candidate step depends on the algorithm. The pdca family makes one pass
over A per iteration: given x^{t+1} and (beta_{t+1}, A x^t, b), `_gemv_pair`
returns A x^{t+1}, which feeds the objective trace, and the next gradient
A.T (A y^{t+1} - b), forming A y^{t+1} = A x^{t+1} + beta_{t+1} (A x^{t+1} -
A x^t) block by block itself; so tracing adds no matvecs. gist performs one
transposed matvec per iteration and one matvec per backtracking trial.
Along pdca iterates the merit E(x, y) = F(x) + (L/2)||x - y||^2 falls by at
least (L/2)(1 - beta_t^2)||x^t - x^{t-1}||^2 per step; `check_descent`
rebuilds E from a run's traces and replays them against that inequality.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .instances import ProblemInstance
from .linalg import _check_positive, _gemv_pair, _is_count
from .regularizers import RegularizerSpec, full_prox, p1_prox, p2_subgrad, reg_value

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
    L_override: float | None = None  # pdca_e/pdca step constant (required); gist ignores it

    def __post_init__(self):
        if self.algorithm not in SOLVERS:
            raise ValueError(f"algorithm must be one of {SOLVERS}")
        _check_positive(self.tol, "tol")
        if not _is_count(self.max_iter):
            raise ValueError("max_iter must be an integer >= 1")
        if self.restart_period is not None and not _is_count(self.restart_period):
            raise ValueError("restart_period must be an integer >= 1 when present")
        if self.L_override is not None:
            _check_positive(self.L_override, "L_override")


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
    status: str  # converged | iteration_cap | aborted
    objective_trace: np.ndarray
    step_norm_trace: np.ndarray
    beta_trace: np.ndarray | None  # pdca_e and pdca (all 0); None for gist
    wall_seconds: float
    message: str = ""

    @property
    def iterations(self) -> int:
        """Steps taken: one per entry of step_norm_trace."""
        return len(self.step_norm_trace)


def _objective(spec: RegularizerSpec, Ax: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """F(x) = 0.5 ||Ax - b||^2 + P1(x) - P2(x) from the cached product Ax.

    An overflow gives a non-finite F without a warning; the solve loop aborts
    a pdca run on it and rejects a gist trial.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = Ax - b
        p1v, p2v = reg_value(spec, x)
        return 0.5 * float(r @ r) + p1v - p2v


def objective(inst: ProblemInstance, spec: RegularizerSpec, x: np.ndarray) -> float:
    """F(x) = 0.5 ||Ax - b||^2 + P1(x) - P2(x), the value the solve loop traces."""
    return _objective(spec, inst.A @ x, inst.b, x)


def solve(inst: ProblemInstance, spec: RegularizerSpec, cfg: SolverConfig) -> SolveResult:
    """Run cfg.algorithm from the origin.

    pdca_e/pdca: xi^t in dP2(x^t); y^t = x^t + beta_t (x^t - x^{t-1});
    x^{t+1} = p1_prox(y^t - (1/L)(grad f(y^t) - xi^t), 1/L), with beta_t = 0
    for pdca. The adaptive restart trigger is <y^{t-1} - x^t, x^t - x^{t-1}> > 0,
    evaluated before y^t is formed.

    gist: x^{t+1} = full_prox(x^t - grad f(x^t)/L_t, L_t). The trial step L_t
    starts from the clamped BB curvature ||A d||^2/||d||^2 of the last step d
    (_GIST_L0_FIRST while d = 0) and grows by _GIST_TAU until the candidate
    passes the sufficient-decrease test against the largest objective among
    the last _GIST_M iterates. More than 100 backtracks aborts: that only
    happens if full_prox returns a non-minimizer.

    pdca_e/pdca without cfg.L_override raise ValueError before touching A. A
    non-finite pdca iterate or objective, or gist prox input, aborts.
    wall_seconds covers the iteration loop only.
    """
    gist = cfg.algorithm == "gist"
    pdca_e = cfg.algorithm == "pdca_e"
    L = cfg.L_override
    if L is None and not gist:
        raise ValueError(f"{cfg.algorithm} needs L_override, e.g. lmax_gram(inst.A).value")

    A, b = inst.A, inst.b
    x = x_prev = np.zeros(inst.n)
    Ax = Ax_prev = np.zeros(inst.m)
    state = ExtrapolationState()
    L0 = _GIST_L0_FIRST
    beta = 0.0
    if not gist:
        if pdca_e:  # beta_0 = 0; the trigger is off at the origin
            beta, state = next_beta(state, cfg.restart_period, False)
        grad_y = A.T @ (Ax - b)  # y^0 = x^0 = 0
    F0 = 0.5 * float(b @ b)  # F(0): every penalty vanishes at the origin
    obj = [F0]
    steps: list[float] = []
    betas: list[float] = []

    status = "iteration_cap"
    message = ""

    t_start = time.perf_counter()
    for t in range(cfg.max_iter):
        if gist:
            grad = A.T @ (Ax - b)
            d = x - x_prev
            dd = float(d @ d)
            if dd > 0.0:
                Ad = Ax - Ax_prev
                L0 = min(max(float(Ad @ Ad) / dd, _GIST_L_MIN), _GIST_L_MAX)
            f_ref = max(obj[-_GIST_M:])
            L_t = L0
            for _ in range(100):
                z = x - grad / L_t
                if not np.all(np.isfinite(z)):
                    message = f"non-finite iterate at t={t}"
                    break
                x_new = full_prox(spec, z, L_t)
                Ax_new = A @ x_new
                F = _objective(spec, Ax_new, b, x_new)
                diff = x_new - x
                if np.isfinite(F) and F <= f_ref - 0.5 * _GIST_C * L_t * float(diff @ diff):
                    break
                L_t *= _GIST_TAU
            else:
                message = f"backtracking exceeded 100 trials at t={t}"
        else:
            y = x + beta * (x - x_prev)
            xi = p2_subgrad(spec, x)
            x_new = p1_prox(spec, y - (grad_y - xi) / L, 1.0 / L)
            if np.all(np.isfinite(x_new)):
                beta_t = beta
                with np.errstate(over="ignore", invalid="ignore"):  # a diverging run aborts on F
                    if pdca_e:
                        trigger = cfg.adaptive_restart and float((y - x_new) @ (x_new - x)) > 0.0
                        beta, state = next_beta(state, cfg.restart_period, trigger)
                    Ax_new, grad_y = _gemv_pair(A, x_new, (beta, Ax, b))
                F = _objective(spec, Ax_new, b, x_new)
                if np.isfinite(F):
                    betas.append(beta_t)
                else:
                    message = f"non-finite objective at t={t}"
            else:
                message = f"non-finite iterate at t={t}"
        if message:
            status = "aborted"
            break

        step = float(np.linalg.norm(x_new - x))
        obj.append(F)
        steps.append(step)

        x_prev, x = x, x_new
        Ax_prev, Ax = Ax, Ax_new

        if step / max(1.0, float(np.linalg.norm(x))) < cfg.tol:
            status = "converged"
            break
    wall = time.perf_counter() - t_start

    return SolveResult(
        x_final=x,
        status=status,
        objective_trace=np.array(obj),
        step_norm_trace=np.array(steps),
        beta_trace=None if gist else np.array(betas),
        wall_seconds=wall,
        message=message,
    )


@dataclass(frozen=True)
class DescentReport:
    violations: int
    max_violation: float


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
    _check_positive(L, "L")
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
    _check_positive(L, "L")
    x = np.asarray(x, dtype=np.float64)
    grad = inst.A.T @ (inst.A @ x - inst.b)
    xi = p2_subgrad(spec, x)
    mapped = p1_prox(spec, x - (grad - xi) / L, 1.0 / L)
    return float(np.linalg.norm(x - mapped)) / max(1.0, float(np.linalg.norm(x)))
