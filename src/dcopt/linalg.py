"""Dense kernels, top-eigenvalue estimation, and a deterministic Gaussian source.

Instance generation, the solvers, and the benchmark driver all funnel their
linear algebra and randomness through this module so that runs reproduce
exactly: randomness comes from a counter-based splitmix64 stream with a
documented Gaussian transform, and all arithmetic is plain float64.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# splitmix64 constants (Steele, Lea, Flood 2014)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64 finalizer on an integer, reduced mod 2^64."""
    # operator.index turns a numpy integer into a Python int, whose & cannot overflow
    return int(_mix64_array(np.uint64(operator.index(z) & _MASK)))


def combine_seed(*parts: int) -> int:
    """Fold integers into one 64-bit seed by chained mix64; order-sensitive.

    Used for derived seeds (per-replicate instances in benchmark plans) so
    the derivation is documented and stable across platforms and versions.
    """
    h = _GAMMA
    for p in parts:
        h = mix64(h ^ operator.index(p))
    return h


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 in, uint64 out; multiplication wraps mod 2^64 by construction
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


@dataclass
class RandomSource:
    """Counter-based splitmix64 stream.

    Output word k (1-based) is mix64(state + k * GAMMA) where the per-stream
    base state is state = mix64(mix64(seed) ^ mix64((stream_id + 1) * GAMMA)).
    Identical (seed, stream_id) therefore reproduce the identical sequence on
    any platform; distinct stream_ids decorrelate through the finalizer. The
    counter advances monotonically, so a source must be owned by one logical
    task at a time. Word k depends on (seed, stream_id, k) only, so a stream
    can still be split: each worker of generate_instance owns its own source of
    A's stream, with `counter` set to the first word of the worker's run.
    """

    seed: int
    stream_id: int
    state: int = field(init=False)
    counter: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.stream_id < 0:
            raise ValueError("stream_id must be non-negative")
        base = mix64(self.seed)
        self.state = mix64(base ^ mix64((operator.index(self.stream_id) + 1) * _GAMMA))

    def raw(self, count: int) -> np.ndarray:
        """Next `count` raw 64-bit words as a uint64 array."""
        if count < 0:
            raise ValueError("count must be non-negative")
        start = self.counter
        self.counter += count
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return _mix64_array(np.uint64(self.state) + np.uint64(_GAMMA) * idx)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection; exact, no modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = int(self.raw(1)[0])
            if r < limit:
                return r % bound


def gauss_vector(src: RandomSource, length: int) -> np.ndarray:
    """`length` i.i.d. N(0,1) draws via Box-Muller, advancing `src`.

    Each pair of outputs consumes two raw words x, y:
    u1 = ((x >> 11) + 1) * 2^-53 in (0, 1], u2 = (y >> 11) * 2^-53 in [0, 1),
    then (r cos a, r sin a) with r = sqrt(-2 log u1), a = 2 pi u2. Odd lengths
    still consume a full final pair.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    npairs = (length + 1) // 2
    bits = src.raw(2 * npairs)
    u1 = ((bits[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (bits[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * np.pi * u2
    out = np.empty(2 * npairs)
    out[0::2] = r * np.cos(ang)
    out[1::2] = r * np.sin(ang)
    return out[:length]


class LmaxResult(NamedTuple):
    value: float
    converged: bool
    iterations: int


# Fixed seed for the power-iteration start vector; any constant works, it only
# has to be the same on every call so estimates are reproducible.
_LMAX_START_SEED = 0x5EED1A3A
_LMAX_TOL = 1e-10  # relative change that counts as a hit; three in a row stop
_LMAX_MAX_ITER = 10000


def lmax_gram(A: np.ndarray) -> LmaxResult:
    """Largest eigenvalue of A.T @ A by power iteration.

    Alternates A @ v and A.T @ w so A.T @ A is never formed. The estimate is the
    Rayleigh quotient ||A v||^2 at the current unit vector v, hence never an
    overestimate. Stops once the relative change stays below _LMAX_TOL for
    three consecutive iterations (change-based stopping alone can quit early
    when the spectral gap is tight). After _LMAX_MAX_ITER iterations the best
    estimate is returned with converged=False; reporting that is the caller's
    job (solve logs it, the CLI prints it, bench raises). If A v = 0, the value
    is 0, reported converged only when A = 0. A non-finite ||A v||^2 (a NaN or
    inf in A, or an overflow) raises ValueError at once.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={A.ndim}")
    n = A.shape[1]
    # a prefix of one fixed sequence whose first entry is nonzero, so its
    # norm is never 0
    v = gauss_vector(RandomSource(_LMAX_START_SEED, stream_id=0), n)
    v /= np.linalg.norm(v)

    lam_prev = -1.0
    lam = 0.0
    hits = 0
    for k in range(1, _LMAX_MAX_ITER + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # raised as ValueError below
            w = A @ v
            lam = float(w @ w)
        if not math.isfinite(lam):
            raise ValueError(f"||A v||^2 is not finite at power iteration {k}: {lam!r}")
        if lam == 0.0:
            # exact when A = 0; otherwise A annihilates (or underflows on) v,
            # and 0 is no estimate
            return LmaxResult(0.0, not A.any(), k)
        u = A.T @ w
        v = u / np.linalg.norm(u)
        if abs(lam - lam_prev) <= _LMAX_TOL * lam:
            hits += 1
            if hits >= 3:
                return LmaxResult(lam, True, k)
        else:
            hits = 0
        lam_prev = lam
    return LmaxResult(lam, False, _LMAX_MAX_ITER)
