"""Five difference-of-convex sparsity penalties P = P1 - P2.

Each family is one frozen dataclass that owns its formulas: the weight w of
P1 = w * ||x||_1 (so the P1 prox is soft thresholding), P2 and a chosen
element of its subdifferential, and the full nonconvex prox needed by GIST. The solvers call the
module functions below, which hold the shared guards.

Penalties are even in each coordinate, so a separable family's nonconvex prox
is solved on |z_i| and the sign of z_i is reattached; l1-l2 couples the
coordinates through the l2 term and has its own vector solution. A separable
family supplies only its closed-form candidates, with NaN for an invalid one;
the shared prox adds the origin and keeps, per coordinate, the candidate of
smallest objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .linalg import _check_positive, _is_real

_TIE_TOL = 1e-12  # within this objective gap the smaller |u| wins: deterministic, sparse
# Above this |z_i| the candidate formulas can overflow (TL1 cubes |z_i|, and
# the origin's objective squares it); see RegularizerSpec.prox.
_HUGE = 1e100


@dataclass(frozen=True)
class RegularizerSpec:
    """The shared part of every family: the weight lam and the parameter check.

    A family adds its shape parameters as float fields after lam, each finite
    and above the family's floor, and defines p2(x) and p2_grad(x), a specific
    element of the subdifferential of P2 at x for lam > 0. A separable family
    also defines penalty(u), the per-coordinate P1 - P2 at u >= 0, and
    candidates(az, ell): a sequence of closed-form minimizer candidates u > 0
    on az = |z|, each an array shaped like az or a scalar, NaN where invalid.
    """

    lam: float
    name: ClassVar[str]
    floor: ClassVar[float] = 0.0

    def __post_init__(self):
        if not (_is_real(self.lam) and 0 <= self.lam < math.inf):
            raise ValueError("lam must be non-negative and finite")
        for f in fields(self)[1:]:
            if not (_is_real(value := getattr(self, f.name)) and self.floor < value < math.inf):
                raise ValueError(f"{f.name} must exceed {self.floor:g} and be finite")

    @property
    def weight(self) -> float:
        """The weight w with P1 = w * ||.||_1."""
        return self.lam

    def prox(self, z: np.ndarray, ell: float) -> np.ndarray:
        """argmin_u (ell/2) ||u - z||^2 + P1(u) - P2(u), for lam > 0 and finite z.

        The penalty's slope lies in [0, w], so a minimizer away from 0 lies in
        [|z_i| - w/ell, |z_i|]. Where |z_i| > _HUGE and |z_i| - w/ell rounds to
        |z_i|, the rounded minimizer is z_i itself, and the candidates are
        scored on 0 there instead, which cannot overflow.
        """
        az = np.abs(z)
        flat = (az > _HUGE) & (az - self.weight / ell == az)
        safe = np.where(flat, 0.0, az)
        u = np.stack(np.broadcast_arrays(np.zeros_like(safe), *self.candidates(safe, ell)))
        u[np.isnan(u)] = 0.0  # an invalid candidate becomes a copy of the origin
        phi = 0.5 * ell * (u - safe) ** 2 + self.penalty(u)
        near = phi <= phi.min(axis=0) + _TIE_TOL
        return np.sign(z) * np.where(flat, az, np.where(near, u, np.inf).min(axis=0))


@dataclass(frozen=True)
class L1MinusL2(RegularizerSpec):
    """P1 = lam * ||x||_1, P2 = lam * ||x||_2."""

    name: ClassVar[str] = "l1-l2"

    def p2(self, x):
        return self.lam * float(np.linalg.norm(x))

    def p2_grad(self, x):
        nx = float(np.linalg.norm(x))
        return np.zeros_like(x) if nx == 0.0 else (self.lam / nx) * x

    def prox(self, z, ell):
        mu = self.lam / ell
        az = np.abs(z)
        zinf = float(az.max()) if z.size else 0.0
        if zinf == 0.0:
            return np.zeros_like(z)
        if zinf > mu:
            v = soft_threshold(z, mu)
            return (1.0 + mu / float(np.linalg.norm(v))) * v
        # every |z_i| <= mu: the minimizer is 1-sparse on a largest coordinate
        # (the penalty vanishes on 1-sparse vectors); first argmax for determinism
        u = np.zeros_like(z)
        i = int(np.argmax(az))
        u[i] = zinf * np.sign(z[i])
        return u


@dataclass(frozen=True)
class LogPenalty(RegularizerSpec):
    """P1 = (lam/eps) ||x||_1, P2 = sum lam [|x_i|/eps - log(|x_i|+eps) + log eps]."""

    eps: float
    name: ClassVar[str] = "log"

    @property
    def weight(self):
        return self.lam / self.eps

    def p2(self, x):
        ax = np.abs(x)
        # log(|x|+eps) - log(eps) = log1p(|x|/eps), stable for small |x|
        return self.weight * float(ax.sum()) - self.lam * float(np.log1p(ax / self.eps).sum())

    def p2_grad(self, x):
        return self.lam * x / (self.eps * (np.abs(x) + self.eps))

    def penalty(self, u):
        return self.lam * np.log1p(u / self.eps)

    def candidates(self, az, ell):
        eps = self.eps
        # stationarity on u > 0: ell (u - z)(u + eps) + lam = 0
        disc = (az + eps) ** 2 - 4.0 * self.lam / ell
        sq = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        roots = ((az - eps) + sq) / 2.0, ((az - eps) - sq) / 2.0
        return [np.where(r > 0.0, r, np.nan) for r in roots]


@dataclass(frozen=True)
class MCP(RegularizerSpec):
    """Minimax concave penalty with knee at theta*lam."""

    theta: float
    name: ClassVar[str] = "mcp"

    def p2(self, x):
        lam, th = self.lam, self.theta
        ax = np.abs(x)
        p2 = np.where(ax <= th * lam, ax**2 / (2.0 * th), lam * ax - th * lam**2 / 2.0)
        return float(p2.sum())

    def p2_grad(self, x):
        lam, th = self.lam, self.theta
        return lam * np.sign(x) * np.minimum(1.0, np.abs(x) / (th * lam))

    def penalty(self, u):
        lam, th = self.lam, self.theta
        return np.where(u <= th * lam, lam * u - u**2 / (2.0 * th), th * lam**2 / 2.0)

    def candidates(self, az, ell):
        lam, th = self.lam, self.theta
        knee = th * lam
        denom = ell - 1.0 / th
        with np.errstate(divide="ignore", invalid="ignore"):
            u_in = (ell * az - lam) / denom  # +-inf or NaN at denom = 0 fail both bounds
        return (knee, np.where((u_in > 0.0) & (u_in < knee), u_in, np.nan),
                np.where(az > knee, az, np.nan))


@dataclass(frozen=True)
class SCAD(RegularizerSpec):
    """Smoothly clipped absolute deviation; theta > 2."""

    theta: float
    name: ClassVar[str] = "scad"
    floor: ClassVar[float] = 2.0

    def p2(self, x):
        lam, th = self.lam, self.theta
        ax = np.abs(x)
        mid = (ax - lam) ** 2 / (2.0 * (th - 1.0))
        top = lam * ax - lam**2 * (th + 1.0) / 2.0
        return float(np.where(ax <= lam, 0.0, np.where(ax <= th * lam, mid, top)).sum())

    def p2_grad(self, x):
        lam, th = self.lam, self.theta
        return np.sign(x) * np.maximum(np.minimum(th * lam, np.abs(x)) - lam, 0.0) / (th - 1.0)

    def penalty(self, u):
        lam, th = self.lam, self.theta
        mid = (2.0 * th * lam * u - u**2 - lam**2) / (2.0 * (th - 1.0))
        return np.where(u <= lam, lam * u, np.where(u <= th * lam, mid, lam**2 * (th + 1.0) / 2.0))

    def candidates(self, az, ell):
        lam, th = self.lam, self.theta
        knee = th * lam
        u1 = az - lam / ell
        denom = ell * (th - 1.0) - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            u2 = (ell * az * (th - 1.0) - th * lam) / denom  # +-inf or NaN at denom = 0
        return (lam, knee, np.where((u1 > 0.0) & (u1 < lam), u1, np.nan),
                np.where((u2 > lam) & (u2 < knee), u2, np.nan), np.where(az > knee, az, np.nan))


@dataclass(frozen=True)
class TransformedL1(RegularizerSpec):
    """lam * (a+1)|x_i| / (a+|x_i|), summed; lam = 1 is the classical form."""

    a: float
    name: ClassVar[str] = "tl1"

    @property
    def weight(self):
        return self.lam * (self.a + 1.0) / self.a

    def p2(self, x):
        lam, a = self.lam, self.a
        ax = np.abs(x)
        return float((lam * (a + 1.0) * ax**2 / (a * (a + ax))).sum())

    def p2_grad(self, x):
        lam, a = self.lam, self.a
        return lam * (a + 1.0) * np.sign(x) * (1.0 / a - a / (a + np.abs(x)) ** 2)

    def penalty(self, u):
        return self.lam * (self.a + 1.0) * u / (self.a + u)

    def candidates(self, az, ell):
        lam, a = self.lam, self.a
        # zero wins for |z| <= t (Zhang & Xin, Math. Program. 2018; the margin leaves
        # rounding at t to the selection). The stationarity cubic (u - z)(u + a)^2 +
        # lam a (a+1) / ell has its smallest root below -a, its middle one at a local max of phi
        r = 2.0 * lam * (a + 1.0) / ell
        above = az > (r / (2.0 * a) if r <= a**2 else math.sqrt(r) - a / 2.0) * (1.0 - 1e-6)
        z, c = az[above], lam * a * (a + 1.0) / ell
        root = np.full(az.shape, np.nan)
        # the minimizer lies in [|z| - w/ell, |z|]; the polished root can miss it by an ulp
        root[above] = np.clip(_largest_cubic_root(2.0 * a - z, a**2 - 2.0 * a * z, c - a**2 * z),
                              z - self.weight / ell, z)
        return (np.where(np.isfinite(root) & (root > 0.0), root, np.nan),)


def reg_value(spec: RegularizerSpec, x: np.ndarray) -> tuple[float, float]:
    """The pair (P1(x), P2(x))."""
    x = np.asarray(x, dtype=np.float64)
    return spec.weight * float(np.abs(x).sum()), spec.p2(x)


def soft_threshold(z: np.ndarray, t: float) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def p1_prox(spec: RegularizerSpec, z: np.ndarray, mu: float) -> np.ndarray:
    """argmin_u 0.5 ||u-z||^2 + mu * P1(u); soft threshold at mu * w."""
    _check_positive(mu, "mu")
    z = np.asarray(z, dtype=np.float64)
    return soft_threshold(z, mu * spec.weight)


def p2_subgrad(spec: RegularizerSpec, x: np.ndarray) -> np.ndarray:
    """A specific element of the subdifferential of P2 at x; 0 at x = 0."""
    x = np.asarray(x, dtype=np.float64)
    if spec.lam == 0.0:
        return np.zeros_like(x)
    return spec.p2_grad(x)


# ---------------------------------------------------------------------------
# full nonconvex prox: argmin_u (L_t/2) ||u - z||^2 + P1(u) - P2(u)
# ---------------------------------------------------------------------------


def _largest_cubic_root(b2: np.ndarray, b1: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """The largest real root of u^3 + b2 u^2 + b1 u + b0.

    Cardano's single real root where the discriminant is positive and finite,
    else the largest trigonometric root of the depressed cubic, which also
    serves where the discriminant's terms overflow (|b2| from about 1e51, where
    they cancel to leading order); then two Newton polish steps.
    """
    p = b1 - b2**2 / 3.0
    q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
    with np.errstate(over="ignore", invalid="ignore"):
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    single = (disc > 0.0) & (disc < np.inf)
    sq = np.sqrt(np.where(single, disc, 0.0))
    t_single = np.cbrt(-q / 2.0 + sq) + np.cbrt(-q / 2.0 - sq)

    # three real roots (disc <= 0 forces p <= 0); k = 0 is the largest
    pneg = np.minimum(p, 0.0)
    mcoef = 2.0 * np.sqrt(np.maximum(-pneg / 3.0, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_arg = np.where(mcoef > 0.0, 3.0 * q / (pneg * mcoef), 0.0)
    ang = np.arccos(np.clip(cos_arg, -1.0, 1.0)) / 3.0
    root = np.where(single, t_single, mcoef * np.cos(ang)) - b2 / 3.0

    # Newton polish on g(u) = u^3 + b2 u^2 + b1 u + b0
    for _ in range(2):
        g = root**3 + b2 * root**2 + b1 * root + b0
        gp = 3.0 * root**2 + 2.0 * b2 * root + b1
        step = np.where(np.abs(gp) > 1e-300, g / gp, 0.0)
        root = root - np.where(np.isfinite(step), step, 0.0)
    return root


def full_prox(spec: RegularizerSpec, z: np.ndarray, L_t: float) -> np.ndarray:
    """Global minimizer of u -> (L_t/2)||u - z||^2 + P1(u) - P2(u).

    Separable families enumerate the per-piece closed-form candidates and
    keep the best; l1-l2 uses its coupled vector solution. Exactness is
    guarded by the grid-oracle tests, not re-derived here.
    """
    _check_positive(L_t, "L_t")
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    point = z.copy() if spec.lam == 0.0 else spec.prox(np.atleast_1d(z), L_t).reshape(z.shape)
    if not np.all(np.isfinite(point)):
        raise ValueError("full_prox produced a non-finite candidate")
    return point


# ---------------------------------------------------------------------------
# textual spec syntax used by the CLI and plan files
# ---------------------------------------------------------------------------

_FAMILIES: dict[str, type[RegularizerSpec]] = {
    cls.name: cls for cls in (L1MinusL2, LogPenalty, MCP, SCAD, TransformedL1)
}


def parse_reg(text: str, lam: float | None = None) -> RegularizerSpec:
    """Build a spec from 'family:key=value,...', e.g. 'log:lambda=1e-3,eps=0.5'.

    The keys are the family's fields, with lam spelled lambda; each is given
    once. A given `lam` supplies lambda, which the text must then leave out
    (a plan's reg names the shape parameters, its lambdas the weights).
    """
    if not isinstance(text, str):
        raise ValueError(f"reg must be text such as 'log:eps=0.5', got {text!r}")
    if lam is not None and not _is_real(lam):
        raise ValueError(f"lambda must be a real number, got {lam!r}")
    family, _, rest = text.strip().partition(":")
    family, rest = family.strip(), rest.strip()
    if family not in _FAMILIES:
        raise ValueError(f"unknown regularizer family {family!r}; known: {sorted(_FAMILIES)}")
    cls = _FAMILIES[family]
    keys = ["lambda" if f.name == "lam" else f.name for f in fields(cls)]
    params = {} if lam is None else {"lambda": lam}
    for item in rest.split(",") if rest else ():
        if "=" not in item:
            raise ValueError(f"malformed parameter {item!r}, expected key=value")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"parameter {key!r} not valid for family {family!r}")
        if key in params:
            raise ValueError(f"duplicate parameter {key!r}" if lam is None or key != "lambda"
                             else "lambda comes from lam (a plan's lambdas), not from the text")
        params[key] = float(val)
    if len(params) < len(keys):
        raise ValueError(f"family {family!r} takes parameters {keys}, got {sorted(params)}")
    return cls(*(float(params[k]) for k in keys))
