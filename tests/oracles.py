"""Independent reference routes used to cross-check the package.

Everything here is written the slow, obvious way on purpose: plain Python
loops, textbook formulas, no code shared with dcopt beyond numpy arrays as
containers. When a test compares dcopt against one of these, the two sides
were derived separately, so agreement is evidence rather than tautology.
There are three exceptions. prox_objective reads P1 and P2 from dcopt's
reg_value. The tests score both sides of a prox comparison with it, and
prox_oracle scores its two exact anchor points with it; the oracle's grid
scan uses the textbook penalties below. one_shot_instance draws from dcopt's
RandomSource and gauss_vector, which splitmix_out and the linalg tests check
on their own; what it cross-checks is how generate_instance assembles A.
tl1_prox_three_roots is not independent on purpose: it is the TL1 prox as it
was before full_prox kept only the largest cubic root above the zero
threshold, and the tests require the two to agree bit for bit.
descent_audit_loop is likewise check_descent as it was before it became one
vectorized pass: the same arithmetic one step at a time, required to give the
same counts and bits. Its merit_loop builds E from F and the steps one step
at a time, in the order of operations the solver used when it stored E.
box_muller_out is gauss_vector as it was before its transform ran in place:
the docstring's formula, one numpy expression per step on fresh arrays,
required to give the same bits from the same raw words.
textbook_pdca is the paper's pDCA_e loop written afresh, with its own
gradient, theta recursion, restarts, soft threshold and P2 subgradients; it
takes L as given, since computing L is lmax_gram's job and is checked apart.
textbook_gist is GIST's loop written afresh in the same way, except that it
calls dcopt's full_prox, which the prox tests check against prox_oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dcopt.linalg import RandomSource, gauss_vector
from dcopt.regularizers import full_prox, reg_value

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix_out(state: int, k: int) -> int:
    """Output k of the counter-based generator, scalar big-int arithmetic.

    Mirrors RandomSource.raw one word at a time so the vectorized uint64
    implementation (wraparound included) can be checked against exact
    integer math.
    """
    z = (state + k * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def box_muller_out(words: np.ndarray, length: int) -> np.ndarray:
    """The first `length` Box-Muller outputs of an even number of raw uint64 words."""
    u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * np.pi * u2
    out = np.empty(words.size)
    out[0::2] = r * np.cos(ang)
    out[1::2] = r * np.sin(ang)
    return out[:length]


def one_shot_instance(m: int, n: int, s: int, noise_scale: float, seed: int):
    """The instance recipe with A drawn in one call: (A, b, ground_truth, support).

    One gauss_vector call of m*n words, column norms from (A**2).sum(axis=0),
    then the support (stream 1), signal (2) and noise (3) in generate_instance's
    documented order.
    """
    src = RandomSource(seed, 0)
    A = gauss_vector(src, m * n).reshape(m, n)
    norms = np.sqrt((A**2).sum(axis=0))
    A /= norms
    src_t = RandomSource(seed, 1)
    idx = list(range(n))
    for j in range(s):
        k = j + src_t.randbelow(n - j)
        idx[j], idx[k] = idx[k], idx[j]
    support = np.array(sorted(idx[:s]), dtype=np.int64)
    ground_truth = np.zeros(n)
    ground_truth[support] = gauss_vector(RandomSource(seed, 2), s)
    b = A @ ground_truth + noise_scale * gauss_vector(RandomSource(seed, 3), m)
    return A, b, ground_truth, support


@dataclass(frozen=True)
class SmoothEval:
    value: float
    gradient: np.ndarray


def smooth_eval(inst, x: np.ndarray) -> SmoothEval:
    """f(x) = 0.5 ||Ax - b||^2 and its gradient A.T (Ax - b)."""
    r = inst.A @ x - inst.b
    return SmoothEval(0.5 * float(r @ r), inst.A.T @ r)


def jacobi_lmax(A: np.ndarray) -> float:
    """Largest eigenvalue of A.T A by cyclic Jacobi sweeps on the dense Gram.

    Pure Python floats throughout; forms the Gram matrix with explicit loops
    and rotates until the off-diagonal mass is negligible.
    """
    m, n = A.shape
    G = [[sum(float(A[k][i]) * float(A[k][j]) for k in range(m)) for j in range(n)]
         for i in range(n)]
    if n == 1:
        return G[0][0]
    for _ in range(100):
        off = max(abs(G[i][j]) for i in range(n) for j in range(n) if i != j)
        scale = max(1e-300, max(abs(G[i][i]) for i in range(n)))
        if off <= 1e-15 * scale:
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                gij = G[i][j]
                if abs(gij) <= 1e-18 * scale:
                    continue
                tau = (G[j][j] - G[i][i]) / (2.0 * gij)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # G <- J^T G J with the rotation in the (i, j) plane
                for k in range(n):
                    gik, gjk = G[i][k], G[j][k]
                    G[i][k] = c * gik - s * gjk
                    G[j][k] = s * gik + c * gjk
                for k in range(n):
                    gki, gkj = G[k][i], G[k][j]
                    G[k][i] = c * gki - s * gkj
                    G[k][j] = s * gki + c * gkj
    return max(G[i][i] for i in range(n))


def fd_gradient(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def grid_min_1d(fun, lo: float, hi: float, num: int = 4001, rounds: int = 3) -> float:
    """Refining grid scan for a scalar minimizer; returns the best abscissa."""
    best = lo
    for _ in range(rounds):
        xs = np.linspace(lo, hi, num)
        vals = np.array([fun(float(x)) for x in xs])
        k = int(np.argmin(vals))
        best = float(xs[k])
        spacing = (hi - lo) / (num - 1)
        lo, hi = best - 2.0 * spacing, best + 2.0 * spacing
    return best


def simpson(fun, a: float, b: float, n: int = 20000) -> float:
    """Composite Simpson rule with n even subintervals."""
    if n % 2:
        n += 1
    xs = np.linspace(a, b, n + 1)
    ys = np.array([fun(float(x)) for x in xs])
    h = (b - a) / n
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def textbook_penalty(spec, U: np.ndarray) -> np.ndarray:
    """P(u) = P1(u) - P2(u) for each row u of U (shape (N, d)), from the
    penalties' textbook definitions rather than their DC split."""
    name = type(spec).__name__
    lam = spec.lam
    t = np.abs(U)
    if name == "L1MinusL2":
        return lam * (t.sum(axis=1) - np.sqrt((U * U).sum(axis=1)))
    if name == "LogPenalty":
        per = lam * np.log((t + spec.eps) / spec.eps)
    elif name == "MCP":
        # lam * integral_0^t (1 - s / (theta lam))_+ ds
        c = np.minimum(t, spec.theta * lam)
        per = lam * c - c * c / (2.0 * spec.theta)
    elif name == "SCAD":
        # Fan & Li: slope lam up to lam, then (theta lam - s) / (theta - 1) down to 0
        c = np.clip(t, lam, spec.theta * lam)
        per = lam * np.minimum(t, lam) + (
            spec.theta * lam * (c - lam) - (c * c - lam * lam) / 2.0) / (spec.theta - 1.0)
    elif name == "TransformedL1":
        per = lam * (spec.a + 1.0) * t / (spec.a + t)
    else:
        raise TypeError(f"no textbook penalty for {name}")
    return per.sum(axis=1)


def textbook_p1_weight(spec) -> float:
    """The weight w of P1 = w ||.||_1: the slope of lam * phi(|u|) at 0+."""
    name = type(spec).__name__
    if name == "LogPenalty":
        return spec.lam / spec.eps
    if name == "TransformedL1":
        return spec.lam * (spec.a + 1.0) / spec.a
    return spec.lam


def textbook_p2_lipschitz(spec) -> float | None:
    """Lipschitz modulus of grad P2, the largest |P2''| on u > 0; None when P2
    is nonsmooth (l1-l2 has a kink at the origin)."""
    name = type(spec).__name__
    if name == "LogPenalty":
        return spec.lam / spec.eps**2  # lam / (u + eps)^2 at u = 0
    if name == "MCP":
        return 1.0 / spec.theta  # u / theta below the knee
    if name == "SCAD":
        return 1.0 / (spec.theta - 1.0)  # (u - lam)^2 / (2 (theta - 1)) between the knees
    if name == "TransformedL1":
        return 2.0 * spec.lam * (spec.a + 1.0) / spec.a**2  # 2 lam (a+1) a / (a + u)^3 at 0
    return None


def prox_objective(spec, z: np.ndarray, L_t: float, u: np.ndarray) -> float:
    """The full_prox subproblem objective (L_t/2)||u - z||^2 + P1(u) - P2(u)."""
    z = np.asarray(z, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    p1, p2 = reg_value(spec, u)
    return 0.5 * L_t * float(np.sum((u - z) ** 2)) + p1 - p2


def prox_oracle(spec, z: np.ndarray, L_t: float) -> tuple[np.ndarray, float]:
    """Brute-force full prox by refined grid search; dimension 1 or 2 only.

    Returns (point, gap), where gap bounds how far the point's objective can
    sit above the true minimum. The search box is [-|z_i|-5w, |z_i|+5w] per
    axis (w = the P1 weight). 1-D scans 10^4 points with 2
    refinement rounds around the incumbent; 2-D scans 401 points per axis with
    4 rounds, reaching a finer final spacing. The exact points 0 and z are
    always evaluated so a narrow basin at the origin cannot slip between grid
    lines. The gap is the final spacing times a slope bound of the objective
    on the box.
    """
    if L_t <= 0:
        raise ValueError("L_t must be positive")
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    d = z.size
    if d not in (1, 2):
        raise ValueError("prox_oracle handles dimension 1 or 2")
    w = textbook_p1_weight(spec)
    half = np.abs(z) + 5.0 * w
    half = np.maximum(half, 1e-12)  # degenerate z = 0, w = 0 still needs a box
    per_axis = 10_000 if d == 1 else 401
    rounds = 2 if d == 1 else 4

    lo = -half.copy()
    hi = half.copy()
    best_u = np.zeros(d)
    best_phi = np.inf
    for fixed in (np.zeros(d), z.copy()):
        phi = prox_objective(spec, z, L_t, fixed)
        if phi < best_phi:
            best_phi, best_u = phi, fixed

    spacing = (hi - lo) / (per_axis - 1)
    for _ in range(rounds + 1):
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(d)]
        if d == 1:
            U = axes[0][:, None]
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            U = np.column_stack([g0.ravel(), g1.ravel()])
        phi = 0.5 * L_t * ((U - z) ** 2).sum(axis=1) + textbook_penalty(spec, U)
        k = int(np.argmin(phi))
        if phi[k] < best_phi:
            best_phi = float(phi[k])
            best_u = U[k].copy()
        spacing = (hi - lo) / (per_axis - 1)
        lo = best_u - 2.0 * spacing
        hi = best_u + 2.0 * spacing

    reach = float(np.linalg.norm(np.abs(z) + half))
    slope = L_t * reach + 2.0 * w * np.sqrt(d)
    gap = slope * float(spacing.max()) * np.sqrt(d) / 2.0
    return best_u, gap


def cubic_roots_shifted(b2: np.ndarray, b1: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """Real roots of u^3 + b2 u^2 + b1 u + b0, shape (3, n); NaN where absent.

    Cardano / trigonometric form on the depressed cubic, then two Newton
    polish steps to clean up cancellation. Overflows (with warnings) once
    (q/2)^2 does, from |b2| of about 1e51.
    """
    p = b1 - b2**2 / 3.0
    q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3

    # one real root (disc > 0)
    sq = np.sqrt(np.maximum(disc, 0.0))
    t_single = np.cbrt(-q / 2.0 + sq) + np.cbrt(-q / 2.0 - sq)

    # three real roots (disc <= 0, which forces p <= 0)
    pneg = np.minimum(p, 0.0)
    mcoef = 2.0 * np.sqrt(np.maximum(-pneg / 3.0, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_arg = np.where(mcoef > 0.0, 3.0 * q / (pneg * mcoef), 0.0)
    ang = np.arccos(np.clip(cos_arg, -1.0, 1.0)) / 3.0
    roots = np.empty((3,) + b2.shape)
    for k in range(3):
        t_k = mcoef * np.cos(ang - 2.0 * np.pi * k / 3.0)
        roots[k] = np.where(disc > 0.0, np.nan, t_k)
    roots[0] = np.where(disc > 0.0, t_single, roots[0])
    roots -= b2 / 3.0

    # Newton polish on g(u) = u^3 + b2 u^2 + b1 u + b0
    for _ in range(2):
        g = roots**3 + b2 * roots**2 + b1 * roots + b0
        gp = 3.0 * roots**2 + 2.0 * b2 * roots + b1
        step = np.where(np.abs(gp) > 1e-300, g / gp, 0.0)
        roots = roots - np.where(np.isfinite(step), step, 0.0)
    return roots


def tl1_prox_three_roots(spec, z: np.ndarray, ell: float) -> np.ndarray:
    """The TL1 full prox from all three cubic roots, for 1-d finite z and lam > 0.

    Candidates are the origin and every positive root of the stationarity
    cubic (u - |z|)(u + a)^2 + lam a (a+1) / ell on every coordinate; per
    coordinate the candidate of least objective wins, the smaller one within
    1e-12. Where |z_i| > 1e100 and |z_i| - w/ell rounds to |z_i|, the answer
    is z_i. Overflow warnings for 1e51 < |z_i| <= 1e100 are silenced.
    """
    lam, a = spec.lam, spec.a
    az = np.abs(z)
    flat = (az > 1e100) & (az - lam * (a + 1.0) / a / ell == az)
    safe = np.where(flat, 0.0, az)
    c = lam * a * (a + 1.0) / ell
    with np.errstate(over="ignore", invalid="ignore"):
        roots = cubic_roots_shifted(2.0 * a - safe, a**2 - 2.0 * a * safe, c - a**2 * safe)
    u = np.concatenate([np.zeros((1,) + safe.shape),
                        np.where(np.isfinite(roots) & (roots > 0.0), roots, 0.0)])
    phi = 0.5 * ell * (u - safe) ** 2 + lam * (a + 1.0) * u / (a + u)
    near = phi <= phi.min(axis=0) + 1e-12
    return np.sign(z) * np.where(flat, az, np.where(near, u, np.inf).min(axis=0))


def merit_loop(result, L: float) -> list[float]:
    """E_t = F(x^t) + (L/2)||x^t - x^{t-1}||^2, one step at a time as the solver once traced it."""
    obj = result.objective_trace
    steps = result.step_norm_trace
    merit = [float(obj[0])]
    for t in range(result.iterations):
        step = float(steps[t])
        merit.append(float(obj[t + 1]) + 0.5 * L * step * step)
    return merit


def descent_audit_loop(result, L: float) -> tuple[int, float]:
    """(violations, max_violation) of check_descent, one step at a time."""
    merit = merit_loop(result, L)
    steps = result.step_norm_trace
    betas = result.beta_trace
    slack = 1e-8 * max(1.0, abs(merit[0]))
    violations = 0
    max_shortfall = 0.0
    for t in range(result.iterations):
        lhs = merit[t] - merit[t + 1]
        step_in = float(steps[t - 1]) if t >= 1 else 0.0
        shortfall = 0.5 * L * (1.0 - float(betas[t]) ** 2) * step_in**2 - lhs
        if shortfall > slack:
            violations += 1
        max_shortfall = max(max_shortfall, shortfall)
    return violations, max(0.0, max_shortfall)


def textbook_p2_subgrad(spec, x: np.ndarray) -> np.ndarray:
    """xi in dP2(x) for P2 = w ||x||_1 - P(x): per coordinate, sign(x_i) times
    w minus the slope of the textbook penalty at |x_i| (0 at x_i = 0, where
    every separable P2 is flat); for l1-l2, lam x / ||x||_2 (0 at x = 0)."""
    name = type(spec).__name__
    lam = spec.lam
    t = np.abs(x)
    if name == "L1MinusL2":
        norm = math.sqrt(float(x @ x))
        return np.zeros_like(x) if norm == 0.0 else lam * x / norm
    if name == "LogPenalty":
        slope = lam / (t + spec.eps)
    elif name == "MCP":
        slope = np.maximum(lam - t / spec.theta, 0.0)
    elif name == "SCAD":
        slope = np.where(t <= lam, lam, np.maximum(spec.theta * lam - t, 0.0) / (spec.theta - 1.0))
    elif name == "TransformedL1":
        slope = lam * (spec.a + 1.0) * spec.a / (spec.a + t) ** 2
    else:
        raise TypeError(f"no textbook subgradient for {name}")
    return np.sign(x) * (textbook_p1_weight(spec) - slope)


def kkt_residual(A: np.ndarray, b: np.ndarray, spec, x: np.ndarray) -> float:
    """How far x is from the papers' stationarity 0 in A^T(Ax - b) + w d||x||_1 - xi.

    With g = A^T(Ax - b) - xi, xi from textbook_p2_subgrad and w from
    textbook_p1_weight, entry i is |g_i + w sign(x_i)| where x_i != 0 and
    max(|g_i| - w, 0) where x_i = 0; the result is their largest. For l1-l2 at
    x = 0, where dP2 is the whole ball of radius lam, xi = 0: the solver's choice.
    """
    g = A.T @ (A @ x - b) - textbook_p2_subgrad(spec, x)
    w = textbook_p1_weight(spec)
    worst = 0.0
    for g_i, x_i in zip(g.tolist(), x.tolist()):
        entry = abs(g_i + math.copysign(w, x_i)) if x_i != 0.0 else max(abs(g_i) - w, 0.0)
        worst = max(worst, entry)
    return worst


@dataclass(frozen=True)
class TextbookRun:
    x_final: np.ndarray
    status: str  # converged | iteration_cap
    objective_trace: np.ndarray  # F(x^0), ..., F(x^T)
    step_norm_trace: np.ndarray  # ||x^{t+1} - x^t||, t < T
    beta_trace: np.ndarray | None  # beta_t, t < T; None for gist
    restarts: list  # (t, "adaptive" | "fixed"): theta was reset before beta_t was formed


def textbook_pdca(inst, spec, L: float, extrapolate: bool = True, tol: float = 1e-5,
                  max_iter: int = 5000, period: int = 200) -> TextbookRun:
    """pDCA_e (Wen, Chen & Pong), or pDCA with extrapolate=False, from x^{-1} = x^0 = 0.

    theta_{-1} = theta_0 = 1. At step t: xi^t in dP2(x^t), beta_t = (theta_{t-1} -
    1) / theta_t, theta_{t+1} = (1 + sqrt(1 + 4 theta_t^2)) / 2, y^t = x^t + beta_t
    (x^t - x^{t-1}) and x^{t+1} = soft(y^t - (grad f(y^t) - xi^t) / L, w / L), with
    grad f(y) = A.T (A y - b) taken afresh. Before beta_t is formed, theta_{t-1} =
    theta_t = 1 is reset when <y^{t-1} - x^t, x^t - x^{t-1}> > 0 (adaptive) or when
    `period` steps have passed since the last reset (fixed). Stops once
    ||x^{t+1} - x^t|| / max(1, ||x^{t+1}||) < tol, or after max_iter steps. F =
    0.5 ||A x - b||^2 + P(x) is evaluated on all iterates at the end, in one product.
    """
    A, b = inst.A, inst.b
    thresh = textbook_p1_weight(spec) / L
    x = x_prev = y_prev = np.zeros(A.shape[1])
    theta_prev = theta = 1.0
    last_reset = 0
    iterates, steps, betas, restarts = [x], [], [], []
    status = "iteration_cap"
    for t in range(max_iter):
        beta = 0.0
        if extrapolate:
            kind = None
            if float((y_prev - x) @ (x - x_prev)) > 0.0:  # 0 at t = 0
                kind = "adaptive"
            elif t - last_reset == period:
                kind = "fixed"
            if kind:
                theta_prev = theta = 1.0
                last_reset = t
                restarts.append((t, kind))
            beta = (theta_prev - 1.0) / theta
            theta_prev, theta = theta, (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        y = x + beta * (x - x_prev) if extrapolate else x
        z = y - (A.T @ (A @ y - b) - textbook_p2_subgrad(spec, x)) / L
        x_new = np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)
        d = x_new - x
        step = math.sqrt(float(d @ d))
        iterates.append(x_new)
        steps.append(step)
        betas.append(beta)
        x_prev, x, y_prev = x, x_new, y
        if step / max(1.0, math.sqrt(float(x @ x))) < tol:
            status = "converged"
            break
    X = np.array(iterates)
    R = X @ A.T - b
    F = 0.5 * (R * R).sum(axis=1) + textbook_penalty(spec, X)
    return TextbookRun(x, status, F, np.array(steps), np.array(betas), restarts)


def textbook_gist(inst, spec, tol: float = 1e-5, max_iter: int = 5000) -> TextbookRun:
    """GIST (Gong et al., ICML 2013, Algorithm 1) from x^0 = 0, with dcopt's full_prox.

    At step t the trial curvature starts at the BB value ||A x^t - A x^{t-1}||^2
    / ||x^t - x^{t-1}||^2 clamped to [1e-8, 1e8] (1.0 at t = 0), from the
    products A x the loop keeps. A trial x = full_prox(x^t - grad f(x^t) / L_t,
    L_t), with grad f(x^t) = A.T (A x^t - b) taken afresh, is accepted once F(x)
    <= max(F over the last 4 iterates) - (sigma / 2) L_t ||x - x^t||^2 with
    sigma = 1e-4; each rejection doubles L_t. F = 0.5 ||A x - b||^2 + P(x)
    uses the textbook penalty. Stops once ||x^{t+1} - x^t|| / max(1, ||x^{t+1}||)
    < tol, or after max_iter steps.

    In exact arithmetic the BB numerator <s, grad f(x^t) - grad f(x^{t-1})> and
    a fresh ||A s||^2 (s = x^t - x^{t-1}) equal the form above. In floating
    point either one moves the last bits of L_t, and the line search amplifies
    them: of the 15 trajectory cases (3 sizes x 5 families) the inner product
    sent 9 runs onto other iteration counts and the fresh product 10.
    """
    A, b = inst.A, inst.b

    def F(x, Ax):
        r = Ax - b
        return 0.5 * float(r @ r) + float(textbook_penalty(spec, x[None, :])[0])

    x = x_prev = np.zeros(A.shape[1])
    Ax = Ax_prev = np.zeros(A.shape[0])
    objs, steps = [F(x, Ax)], []
    status = "iteration_cap"
    for t in range(max_iter):
        grad = A.T @ (Ax - b)
        s = x - x_prev
        L_t = 1.0
        if t > 0:
            As = Ax - Ax_prev
            L_t = min(max(float(As @ As) / float(s @ s), 1e-8), 1e8)
        f_ref = max(objs[-4:])
        for _ in range(100):
            x_new = full_prox(spec, x - grad / L_t, L_t)
            Ax_new = A @ x_new
            F_new = F(x_new, Ax_new)
            d = x_new - x
            if F_new <= f_ref - 0.5 * 1e-4 * L_t * float(d @ d):
                break
            L_t *= 2.0
        else:
            raise RuntimeError(f"line search failed at t={t}")
        step = math.sqrt(float(d @ d))
        objs.append(F_new)
        steps.append(step)
        x_prev, x, Ax_prev, Ax = x, x_new, Ax, Ax_new
        if step / max(1.0, math.sqrt(float(x @ x))) < tol:
            status = "converged"
            break
    return TextbookRun(x, status, np.array(objs), np.array(steps), None, [])
