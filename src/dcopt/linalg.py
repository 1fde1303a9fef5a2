"""Dense kernels, top-eigenvalue estimation, and a deterministic Gaussian source.

Instance generation, the solvers, and the benchmark driver all funnel their
linear algebra and randomness through this module so that runs reproduce
exactly: randomness comes from a counter-based splitmix64 stream with a
documented Gaussian transform, and all arithmetic is plain float64.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# splitmix64 constants (Steele, Lea, Flood 2014)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
# (k + 1) * GAMMA for k < _STEP_WORDS: word start + k + 1 of a stream is its state
# + start * GAMMA plus step k, so a run of counters is one add per table length
_STEP_WORDS = 1 << 13
_STEPS = np.arange(1, _STEP_WORDS + 1, dtype=np.uint64) * np.uint64(_GAMMA)


def mix64(z: int) -> int:
    """splitmix64 finalizer on an integer, reduced mod 2^64."""
    # operator.index turns a numpy integer into a Python int, whose & cannot overflow
    z = np.array([operator.index(z) & _MASK], dtype=np.uint64)
    return int(_mix64_array(z, np.empty_like(z))[0])


def combine_seed(*parts: int) -> int:
    """Fold integers into one 64-bit seed by chained mix64; order-sensitive.

    Used for derived seeds (per-replicate instances in benchmark plans) so
    the derivation is documented and stable across platforms and versions.
    """
    h = _GAMMA
    for p in parts:
        h = mix64(h ^ operator.index(p))
    return h


def _mix64_array(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    # mixes the uint64 array z in place, with t (z's size) for the shifts, and
    # returns it; uint64 array arithmetic wraps mod 2^64 without a warning
    z ^= np.right_shift(z, np.uint64(30), out=t)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def _check_seed(value, name: str) -> None:
    # the one rule for a seed or stream id; bool is an Integral, but True would
    # silently mean seed 1
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and 0 <= value < 1 << 64):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")


def _is_count(value, least: int = 1) -> bool:
    # bool is an Integral, but True would silently mean a count of 1
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def _check_cell(m, n, s) -> None:
    # the one rule for a problem shape, at every boundary that takes one
    if not (all(map(_is_count, (m, n, s))) and s <= n):
        raise ValueError(f"grid cell m={m!r}, n={n!r}, s={s!r}: "
                         "m, n, s must be integers >= 1 and s <= n")


def _is_real(value) -> bool:
    # bool is a Real, but True would silently mean 1.0; callers add their range
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_positive(value, name: str) -> None:
    # the one rule for a step constant, prox weight or tolerance: value and 1/value both
    # exceed 2**-1024, whose reciprocal overflows, so 1/L passes wherever L does. A numpy
    # scalar's 1/value is taken in its own type, as solve's 1.0 / L is, where a float32 or
    # float16 can overflow to inf: that fails the rule, with numpy's warning held back
    ok = _is_real(value) and 2.0 ** -1024 < value < math.inf
    if ok and isinstance(value, np.generic):
        with np.errstate(over="ignore"):
            ok = 1 / value < math.inf
    if not (ok and 2.0 ** -1024 < 1 / value < math.inf):
        raise ValueError(f"{name} must be positive and finite with a finite reciprocal, "
                         f"got {value!r}")


def _read_items(items, keys, what: str) -> dict[str, str]:
    # the one reader of 'key = value' text (plan lines, reg parameters): each key stripped,
    # matched in lowercase and given exactly once; `what` names the input in every message
    kv: dict[str, str] = {}
    for item in items:
        key, eq, value = item.partition("=")
        key = key.strip().lower()
        if not eq:
            raise ValueError(f"{what} item {item.strip()!r} is not of the form key = value")
        if key not in keys:
            raise ValueError(f"{what} key {key!r} is unknown; known: {list(keys)}")
        if key in kv:
            raise ValueError(f"{what} key {key!r} is given twice")
        kv[key] = value.strip()
    if missing := [key for key in keys if key not in kv]:
        raise ValueError(f"{what} is missing keys {missing}")
    return kv


def _read_value(what: str, key: str, token: str, convert, kind: str):
    # int() and float() name neither the key nor, in a list, the token that failed
    try:
        return convert(token)
    except ValueError:
        raise ValueError(f"{what} key {key!r}: {token!r} is not {kind}") from None


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
        _check_seed(self.seed, "seed")
        _check_seed(self.stream_id, "stream_id")
        base = mix64(self.seed)
        self.state = mix64(base ^ mix64((operator.index(self.stream_id) + 1) * _GAMMA))

    def raw(self, count: int) -> np.ndarray:
        """Next `count` raw 64-bit words as a uint64 array."""
        if not _is_count(count, 0):
            raise ValueError(f"count must be a non-negative integer, got {count!r}")
        z = np.empty(count, dtype=np.uint64)
        return self._fill(z, np.empty_like(z))

    def _fill(self, z: np.ndarray, t: np.ndarray) -> np.ndarray:
        # the next z.size words into the uint64 array z, with t (z's size) as scratch
        base = self.state + self.counter * _GAMMA
        self.counter += z.size
        for i in range(0, z.size, _STEP_WORDS):
            step = np.uint64((base + i * _GAMMA) & _MASK)
            np.add(_STEPS[: z.size - i], step, out=z[i : i + _STEP_WORDS])
        return _mix64_array(z, t)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection; exact, no modulo bias."""
        # above 2**64 the accepted range would be empty and the loop endless
        if not (_is_count(bound) and bound <= 1 << 64):
            raise ValueError(f"bound must be a positive integer at most 2**64, got {bound!r}")
        bound = operator.index(bound)  # a numpy bound would overflow in (1 << 64) % bound
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = int(self.raw(1)[0])
            if r < limit:
                return r % bound


def gauss_vector(src: RandomSource, length: int, *, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """`length` i.i.d. N(0,1) draws via Box-Muller, advancing `src`; returns `out`.

    Each pair of outputs consumes two raw words x, y:
    u1 = ((x >> 11) + 1) * 2^-53 in (0, 1], u2 = (y >> 11) * 2^-53 in [0, 1),
    then (r cos a, r sin a) with r = sqrt(-2 log u1), a = 2 pi u2. Odd lengths
    still consume a full final pair.

    The draw runs in place in `out`, a C-contiguous float64 array of `length`
    entries: the raw words are written into it as uint64, mixed, shifted and
    converted there, and u1, u2 become r and a in place, in the formula's
    operation order (IEEE * commutes). `scratch`, a C-contiguous uint64 array
    of at least `length` entries, holds the mix's shifts and then the cosines.
    Either one is allocated when not given, so a call without them peaks near
    twice its output and a call with both allocates nothing of their size.
    """
    if not _is_count(length):
        raise ValueError(f"length must be an integer >= 1, got {length!r}")
    if out is None:
        out = np.empty(length)
    if scratch is None:
        scratch = np.empty(length, dtype=np.uint64)
    if not (out.dtype == np.float64 and out.shape == (length,) and out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous float64 array of length {length}")
    if not (scratch.dtype == np.uint64 and scratch.ndim == 1 and scratch.size >= length
            and scratch.flags.c_contiguous):
        raise ValueError(f"scratch must be a C-contiguous uint64 array of at least {length} words")
    even = length - length % 2
    u = out[:even]
    bits = src._fill(u.view(np.uint64), scratch[:even])
    bits >>= np.uint64(11)
    np.copyto(u, bits, casting="unsafe")  # word k is read before float k is written
    r, ang = u[0::2], u[1::2]
    r += 1.0
    r *= 2.0 ** -53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    ang *= 2.0 ** -53
    ang *= 2.0 * np.pi
    cos = scratch[: r.size].view(np.float64)
    np.cos(ang, out=cos)
    np.sin(ang, out=ang)
    ang *= r
    r *= cos
    if even < length:  # the final pair of an odd length: out has no room for its sine
        out[even] = gauss_vector(src, 2)[0]
    return out


class LmaxResult(NamedTuple):
    value: float
    converged: bool
    iterations: int


# Fixed seed for the power-iteration start vector; any constant works, it only
# has to be the same on every call so estimates are reproducible.
_LMAX_START_SEED = 0x5EED1A3A
_LMAX_TOL = 1e-10  # relative change that counts as a hit; three in a row stop
_LMAX_MAX_ITER = 10000


def _bundled_blas():
    # numpy's own OpenBLAS (scipy-openblas, 64-bit integers): dlsym on the handle of
    # numpy's extension module finds the library it links; None on other builds
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        gemv, threads = lib.scipy_cblas_dgemv64_, lib.scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    gemv.argtypes = [ctypes.c_int, ctypes.c_int, i64, i64, f64, ptr, i64, ptr, i64, f64, ptr, i64]
    gemv.restype = None
    threads.argtypes, threads.restype = [], ctypes.c_int
    return gemv, threads


_BLAS = _bundled_blas()
_PAIR_BLOCK_BYTES = 800 * 1024  # a row block of A stays in L2 between its two reads


def _gemv_pair(A: np.ndarray, x: np.ndarray, shift=None) -> tuple[np.ndarray, np.ndarray]:
    """(w, A.T @ r) for w = A @ x and r = w, or r = (w + beta * (w - prev)) - b given
    shift = (beta, prev, b): with prev = A x_prev, r = A y - b at y = x + beta (x - x_prev).

    One pass over A: per row block s, w[s] = A[s] @ x and r[s], then u += A[s].T @ r[s]
    from L2 through numpy's own dgemv with beta = 1. OpenBLAS adds each 4-row
    group's partial sum into u in row order, so this gives numpy's bits when
    n % 4 == 0, blocks start at multiples of 8 (leftover rows join the last), A
    is C-contiguous float64 and the BLAS pool has one thread (at more, each small
    call wakes the pool and the pass is slower). Otherwise it is the two numpy
    products, the reference the blocked path must equal. dgemv sets no warning.
    """
    m, n = A.shape
    rows = max(8, _PAIR_BLOCK_BYTES // (64 * n) * 8)
    if shift is not None:
        beta, prev, b = shift
    if (_BLAS is None or n % 4 or m < 2 * rows or A.dtype != np.float64
            or not A.flags.c_contiguous or _BLAS[1]() != 1):
        w = A @ x
        return w, A.T @ (w if shift is None else (w + beta * (w - prev)) - b)
    w, u = np.empty(m), np.zeros(n)
    r = w if shift is None else np.empty(m)
    pa, pr, pu = A.ctypes.data, r.ctypes.data, u.ctypes.data
    for i in range(0, m - rows + 1, rows):
        s = slice(i, m if i + 2 * rows > m else i + rows)
        np.matmul(A[s], x, out=w[s])
        if shift is not None:
            r[s] = (w[s] + beta * (w[s] - prev[s])) - b[s]
        # CblasRowMajor, CblasTrans: u += A[s].T @ r[s]
        _BLAS[0](101, 112, s.stop - i, n, 1.0, pa + 8 * n * i, n, pr + 8 * i, 1, 1.0, pu, 1)
    return w, u


def lmax_gram(A: np.ndarray) -> LmaxResult:
    """Largest eigenvalue of A.T @ A by power iteration.

    Each step takes A @ v and A.T @ (A @ v) in one pass over A (`_gemv_pair`),
    so A.T @ A is never formed. The estimate is the Rayleigh quotient
    ||A v||^2 at the current unit vector v, hence never an
    overestimate. Stops once the relative change stays below _LMAX_TOL for
    three consecutive iterations (change-based stopping alone can quit early
    when the spectral gap is tight). After _LMAX_MAX_ITER iterations the best
    estimate is returned with converged=False; reporting that is the caller's
    job (the CLI prints it, bench raises). If A v = 0, the value is 0,
    reported converged only when A = 0. A non-finite ||A v||^2 (a NaN or inf
    in A, or an overflow) raises ValueError at once.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] == 0:  # no rows is fine: A.T @ A = 0
        raise ValueError(f"expected a 2-D matrix with at least one column, got shape {A.shape}")
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
            w, u = _gemv_pair(A, v)
            lam = float(w @ w)
        if not math.isfinite(lam):
            raise ValueError(f"||A v||^2 is not finite at power iteration {k}: {lam!r}")
        if lam == 0.0:
            # exact when A = 0; otherwise A annihilates (or underflows on) v,
            # and 0 is no estimate
            return LmaxResult(0.0, not A.any(), k)
        v = u / np.linalg.norm(u)
        if abs(lam - lam_prev) <= _LMAX_TOL * lam:
            hits += 1
            if hits >= 3:
                return LmaxResult(lam, True, k)
        else:
            hits = 0
        lam_prev = lam
    return LmaxResult(lam, False, _LMAX_MAX_ITER)
