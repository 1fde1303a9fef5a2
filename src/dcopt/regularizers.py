"""Five difference-of-convex sparsity penalties P = P1 - P2.

Each variant exposes the convex split (P1, P2), a chosen element of the P2
subdifferential, the P1 proximal map (every P1 here is a weighted l1 norm, so
this is soft thresholding), and the full nonconvex proximal map needed by
GIST.

Sign conventions: penalties are even in each coordinate, so the nonconvex
prox is solved on the half-line |z_i| and the sign of z_i is reattached. The
l1-l2 penalty couples coordinates through the l2 term and gets a dedicated
vector solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

_TIE_TOL = 1e-12  # candidates within this objective gap prefer the smaller |u|


@dataclass(frozen=True)
class L1MinusL2:
    """P1 = lam * ||x||_1, P2 = lam * ||x||_2."""

    lam: float

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be non-negative and finite")


@dataclass(frozen=True)
class LogPenalty:
    """P1 = (lam/eps) ||x||_1, P2 = sum lam [|x_i|/eps - log(|x_i|+eps) + log eps]."""

    lam: float
    eps: float

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be non-negative and finite")
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")


@dataclass(frozen=True)
class MCP:
    """Minimax concave penalty with knee at theta*lam."""

    lam: float
    theta: float

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be non-negative and finite")
        if not 0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")


@dataclass(frozen=True)
class SCAD:
    """Smoothly clipped absolute deviation; theta > 2."""

    lam: float
    theta: float

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be non-negative and finite")
        if not 2 < self.theta < math.inf:
            raise ValueError("theta must exceed 2 and be finite")


@dataclass(frozen=True)
class TransformedL1:
    """lam * (a+1)|x_i| / (a+|x_i|), summed; lam = 1 is the classical form."""

    lam: float
    a: float

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be non-negative and finite")
        if not 0 < self.a < math.inf:
            raise ValueError("a must be positive and finite")


RegularizerSpec = Union[L1MinusL2, LogPenalty, MCP, SCAD, TransformedL1]


def p1_weight(spec: RegularizerSpec) -> float:
    """The weight w with P1 = w * ||.||_1."""
    if isinstance(spec, L1MinusL2):
        return spec.lam
    if isinstance(spec, LogPenalty):
        return spec.lam / spec.eps
    if isinstance(spec, (MCP, SCAD)):
        return spec.lam
    if isinstance(spec, TransformedL1):
        return spec.lam * (spec.a + 1.0) / spec.a
    raise TypeError(f"unknown regularizer {type(spec).__name__}")


def p2_lipschitz(spec: RegularizerSpec) -> float | None:
    """Lipschitz modulus of grad P2, or None when P2 is nonsmooth (l1-l2)."""
    if isinstance(spec, L1MinusL2):
        return None
    if isinstance(spec, LogPenalty):
        return spec.lam / spec.eps**2
    if isinstance(spec, MCP):
        return 1.0 / spec.theta
    if isinstance(spec, SCAD):
        return 1.0 / (spec.theta - 1.0)
    if isinstance(spec, TransformedL1):
        return 2.0 * spec.lam * (spec.a + 1.0) / spec.a**2
    raise TypeError(f"unknown regularizer {type(spec).__name__}")


def reg_value(spec: RegularizerSpec, x: np.ndarray) -> tuple[float, float]:
    """The pair (P1(x), P2(x))."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    l1 = float(ax.sum())
    if isinstance(spec, L1MinusL2):
        return spec.lam * l1, spec.lam * float(np.linalg.norm(x))
    if isinstance(spec, LogPenalty):
        lam, eps = spec.lam, spec.eps
        # log(|x|+eps) - log(eps) = log1p(|x|/eps), stable for small |x|
        p2 = (lam / eps) * l1 - lam * float(np.log1p(ax / eps).sum())
        return (lam / eps) * l1, p2
    if isinstance(spec, MCP):
        lam, th = spec.lam, spec.theta
        p2 = np.where(ax <= th * lam, ax**2 / (2.0 * th), lam * ax - th * lam**2 / 2.0)
        return lam * l1, float(p2.sum())
    if isinstance(spec, SCAD):
        lam, th = spec.lam, spec.theta
        mid = (ax - lam) ** 2 / (2.0 * (th - 1.0))
        top = lam * ax - lam**2 * (th + 1.0) / 2.0
        p2 = np.where(ax <= lam, 0.0, np.where(ax <= th * lam, mid, top))
        return lam * l1, float(p2.sum())
    if isinstance(spec, TransformedL1):
        lam, a = spec.lam, spec.a
        p2 = lam * (a + 1.0) * ax**2 / (a * (a + ax))
        return lam * (a + 1.0) / a * l1, float(p2.sum())
    raise TypeError(f"unknown regularizer {type(spec).__name__}")


def soft_threshold(z: np.ndarray, t: float) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def p1_prox(spec: RegularizerSpec, z: np.ndarray, mu: float) -> np.ndarray:
    """argmin_u 0.5 ||u-z||^2 + mu * P1(u); soft threshold at mu * w."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    z = np.asarray(z, dtype=np.float64)
    return soft_threshold(z, mu * p1_weight(spec))


def p2_subgrad(spec: RegularizerSpec, x: np.ndarray) -> np.ndarray:
    """A specific element of the subdifferential of P2 at x; 0 at x = 0."""
    x = np.asarray(x, dtype=np.float64)
    if spec.lam == 0.0:
        return np.zeros_like(x)
    if isinstance(spec, L1MinusL2):
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            return np.zeros_like(x)
        return (spec.lam / nx) * x
    ax = np.abs(x)
    if isinstance(spec, LogPenalty):
        lam, eps = spec.lam, spec.eps
        return lam * x / (eps * (ax + eps))
    if isinstance(spec, MCP):
        lam, th = spec.lam, spec.theta
        return lam * np.sign(x) * np.minimum(1.0, ax / (th * lam))
    if isinstance(spec, SCAD):
        lam, th = spec.lam, spec.theta
        return np.sign(x) * np.maximum(np.minimum(th * lam, ax) - lam, 0.0) / (th - 1.0)
    if isinstance(spec, TransformedL1):
        lam, a = spec.lam, spec.a
        return lam * (a + 1.0) * np.sign(x) * (1.0 / a - a / (a + ax) ** 2)
    raise TypeError(f"unknown regularizer {type(spec).__name__}")


# ---------------------------------------------------------------------------
# full nonconvex prox: argmin_u (L_t/2) ||u - z||^2 + P1(u) - P2(u)
# ---------------------------------------------------------------------------


def _pen_elementwise(spec: RegularizerSpec, u: np.ndarray) -> np.ndarray:
    """Total per-coordinate penalty P1 - P2 evaluated at u >= 0 elementwise.

    Defined for the four separable variants; l1-l2 is handled at the vector
    level by its caller.
    """
    if isinstance(spec, LogPenalty):
        return spec.lam * np.log1p(u / spec.eps)
    if isinstance(spec, MCP):
        lam, th = spec.lam, spec.theta
        return np.where(u <= th * lam, lam * u - u**2 / (2.0 * th), th * lam**2 / 2.0)
    if isinstance(spec, SCAD):
        lam, th = spec.lam, spec.theta
        mid = (2.0 * th * lam * u - u**2 - lam**2) / (2.0 * (th - 1.0))
        return np.where(u <= lam, lam * u, np.where(u <= th * lam, mid, lam**2 * (th + 1.0) / 2.0))
    if isinstance(spec, TransformedL1):
        lam, a = spec.lam, spec.a
        return lam * (a + 1.0) * u / (a + u)
    raise TypeError(f"no elementwise penalty for {type(spec).__name__}")


def _select_candidate(
    az: np.ndarray,
    ell: float,
    cands: np.ndarray,
    valid: np.ndarray,
    pen: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Pick, per coordinate, the valid candidate with the smallest objective.

    cands/valid have shape (k, n). Ties within _TIE_TOL go to the smaller u
    so the map is deterministic and biased toward sparsity.
    """
    u = np.where(valid, cands, 0.0)
    phi = 0.5 * ell * (u - az) ** 2 + pen(u)
    phi = np.where(valid, phi, np.inf)
    best = phi.min(axis=0)
    near = phi <= best + _TIE_TOL
    return np.where(near, u, np.inf).min(axis=0)


def _cubic_roots_shifted(b2: np.ndarray, b1: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """Real roots of u^3 + b2 u^2 + b1 u + b0, shape (3, n); NaN where absent.

    Cardano / trigonometric form on the depressed cubic, then two Newton
    polish steps to clean up cancellation.
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


def _full_prox_separable(spec: RegularizerSpec, z: np.ndarray, ell: float) -> np.ndarray:
    az = np.abs(z)
    pen = lambda u: _pen_elementwise(spec, u)
    zeros = np.zeros_like(az)
    always = np.ones_like(az, dtype=bool)

    if isinstance(spec, LogPenalty):
        lam, eps = spec.lam, spec.eps
        # stationarity on u > 0: ell (u - z)(u + eps) + lam = 0
        disc = (az + eps) ** 2 - 4.0 * lam / ell
        sq = np.sqrt(np.maximum(disc, 0.0))
        r_hi = ((az - eps) + sq) / 2.0
        r_lo = ((az - eps) - sq) / 2.0
        ok = disc >= 0.0
        cands = np.stack([zeros, r_hi, r_lo])
        valid = np.stack([always, ok & (r_hi > 0.0), ok & (r_lo > 0.0)])
    elif isinstance(spec, MCP):
        lam, th = spec.lam, spec.theta
        knee = th * lam
        denom = ell - 1.0 / th
        with np.errstate(divide="ignore", invalid="ignore"):
            u_in = (ell * az - lam) / denom
        in_ok = (denom != 0.0) & (u_in > 0.0) & (u_in < knee)
        cands = np.stack([zeros, np.full_like(az, knee), np.where(in_ok, u_in, 0.0), az])
        valid = np.stack([always, always, in_ok, az > knee])
    elif isinstance(spec, SCAD):
        lam, th = spec.lam, spec.theta
        knee = th * lam
        u1 = az - lam / ell
        ok1 = (u1 > 0.0) & (u1 < lam)
        denom = ell * (th - 1.0) - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            u2 = (ell * az * (th - 1.0) - th * lam) / denom
        ok2 = (denom != 0.0) & (u2 > lam) & (u2 < knee)
        cands = np.stack(
            [
                zeros,
                np.full_like(az, lam),
                np.full_like(az, knee),
                np.where(ok1, u1, 0.0),
                np.where(ok2, u2, 0.0),
                az,
            ]
        )
        valid = np.stack([always, always, always, ok1, ok2, az > knee])
    elif isinstance(spec, TransformedL1):
        lam, a = spec.lam, spec.a
        # stationarity on u > 0: (u - z)(u + a)^2 + lam a (a+1) / ell = 0
        c = lam * a * (a + 1.0) / ell
        roots = _cubic_roots_shifted(2.0 * a - az, a**2 - 2.0 * a * az, c - a**2 * az)
        ok = np.isfinite(roots) & (roots > 0.0)
        cands = np.concatenate([zeros[None], np.where(ok, roots, 0.0)])
        valid = np.concatenate([always[None], ok])
    else:
        raise TypeError(f"no separable prox for {type(spec).__name__}")

    u_best = _select_candidate(az, ell, cands, valid, pen)
    return np.sign(z) * u_best


def _full_prox_l12(z: np.ndarray, lam: float, ell: float) -> np.ndarray:
    if lam == 0.0:
        return z.copy()
    mu = lam / ell
    az = np.abs(z)
    zinf = float(az.max()) if z.size else 0.0
    if zinf == 0.0:
        return np.zeros_like(z)
    if zinf > mu:
        v = soft_threshold(z, mu)
        nv = float(np.linalg.norm(v))
        return (1.0 + mu / nv) * v
    # every |z_i| <= mu: the minimizer is 1-sparse on a largest coordinate
    # (the penalty vanishes on 1-sparse vectors); first argmax for determinism
    u = np.zeros_like(z)
    i = int(np.argmax(az))
    u[i] = zinf * np.sign(z[i])
    return u


def full_prox(spec: RegularizerSpec, z: np.ndarray, L_t: float) -> np.ndarray:
    """Global minimizer of u -> (L_t/2)||u - z||^2 + P1(u) - P2(u).

    Separable variants enumerate the per-piece closed-form candidates and
    keep the best; l1-l2 uses its coupled vector solution. Exactness is
    guarded by the grid-oracle tests, not re-derived here.
    """
    if L_t <= 0:
        raise ValueError("L_t must be positive")
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    if isinstance(spec, L1MinusL2):
        point = _full_prox_l12(z, spec.lam, L_t)
    elif spec.lam == 0.0:
        point = z.copy()
    else:
        point = _full_prox_separable(spec, z, L_t)
    if not np.all(np.isfinite(point)):
        raise ValueError("full_prox produced a non-finite candidate")
    return point


def prox_objective(spec: RegularizerSpec, z: np.ndarray, L_t: float, u: np.ndarray) -> float:
    """The full_prox subproblem objective at u; the score tests compare proxes by."""
    z = np.asarray(z, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    p1, p2 = reg_value(spec, u)
    return 0.5 * L_t * float(np.sum((u - z) ** 2)) + p1 - p2


# ---------------------------------------------------------------------------
# textual spec syntax used by the CLI and plan files
# ---------------------------------------------------------------------------

_FAMILIES = {
    "l1-l2": (L1MinusL2, ("lambda",)),
    "log": (LogPenalty, ("lambda", "eps")),
    "mcp": (MCP, ("lambda", "theta")),
    "scad": (SCAD, ("lambda", "theta")),
    "tl1": (TransformedL1, ("lambda", "a")),
}

_FIELD_FOR_KEY = {"lambda": "lam", "eps": "eps", "theta": "theta", "a": "a"}


def _parse_params(text: str) -> dict[str, float]:
    params: dict[str, float] = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"malformed parameter {item!r}, expected key=value")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in _FIELD_FOR_KEY:
            raise ValueError(f"unknown parameter {key!r}")
        if key in params:
            raise ValueError(f"duplicate parameter {key!r}")
        params[key] = float(val)
    return params


def parse_reg_family(text: str) -> tuple[str, dict[str, float]]:
    """Split 'family:k=v,...' into the family name and parameter dict."""
    family, _, rest = text.strip().partition(":")
    family = family.strip()
    if family not in _FAMILIES:
        raise ValueError(f"unknown regularizer family {family!r}; known: {sorted(_FAMILIES)}")
    params = _parse_params(rest.strip())
    _, allowed = _FAMILIES[family]
    for key in params:
        if key not in allowed:
            raise ValueError(f"parameter {key!r} not valid for family {family!r}")
    return family, params


def make_spec(family: str, **params: float) -> RegularizerSpec:
    """Build a spec from the family name and CLI-syntax parameter names."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown regularizer family {family!r}")
    cls, allowed = _FAMILIES[family]
    missing = [k for k in allowed if k not in params]
    if missing:
        raise ValueError(f"family {family!r} missing parameters {missing}")
    extra = [k for k in params if k not in allowed]
    if extra:
        raise ValueError(f"family {family!r} got unexpected parameters {extra}")
    return cls(**{_FIELD_FOR_KEY[k]: float(v) for k, v in params.items()})


def parse_reg(text: str) -> RegularizerSpec:
    """Parse a full spec string such as 'l1-l2:lambda=5e-4' or 'log:lambda=1e-3,eps=0.5'."""
    family, params = parse_reg_family(text)
    return make_spec(family, **params)
