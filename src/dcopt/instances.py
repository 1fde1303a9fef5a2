"""Least-squares problem model f(x) = 0.5 ||Ax - b||^2 and instance generation.

Instances follow a fixed recipe: A has i.i.d. standard Gaussian entries with
columns normalized to unit norm, an s-subset support is drawn uniformly, the
ground truth is Gaussian on that support, and b = A y + noise_scale * noise.
Four independent substreams (A, support, signal, noise) hang off the instance
seed so changing s cannot perturb A for the same seed.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np

from .linalg import RandomSource, gauss_vector
from .regularizers import RegularizerSpec, reg_value

log = logging.getLogger(__name__)

_MASK = (1 << 64) - 1

_STREAM_A = 0
_STREAM_SUPPORT = 1
_STREAM_SIGNAL = 2
_STREAM_NOISE = 3


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable problem data; arrays are write-protected after construction."""

    A: np.ndarray
    b: np.ndarray
    ground_truth: np.ndarray
    support: np.ndarray
    seed: int
    noise_scale: float

    def __post_init__(self):
        A = np.ascontiguousarray(self.A, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        gt = np.asarray(self.ground_truth, dtype=np.float64)
        sup = np.asarray(self.support, dtype=np.int64)
        if A.ndim != 2:
            raise ValueError("A must be 2-D")
        m, n = A.shape
        if b.shape != (m,):
            raise ValueError(f"b has shape {b.shape}, expected ({m},)")
        if gt.shape != (n,):
            raise ValueError(f"ground_truth has shape {gt.shape}, expected ({n},)")
        # a finite b @ b also bounds A.T @ b, since the columns have unit norm
        with np.errstate(over="ignore"):
            finite = np.all(np.isfinite(A)) and np.isfinite(b @ b)
        if not finite:
            raise ValueError("A and b must be finite")
        norms = np.sqrt((A**2).sum(axis=0))
        if np.abs(norms - 1.0).max() > 1e-12:
            raise ValueError("columns of A must have unit norm (within 1e-12)")
        if sup.size != np.unique(sup).size:
            raise ValueError("support indices must be distinct")
        if sup.size and (sup.min() < 0 or sup.max() >= n):
            raise ValueError("support indices out of range")
        nz = np.flatnonzero(gt)
        if not np.isin(nz, sup).all():
            raise ValueError("ground_truth has nonzeros off the support")
        for arr, name in ((A, "A"), (b, "b"), (gt, "ground_truth"), (sup, "support")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def s(self) -> int:
        return int(self.support.size)


@dataclass(frozen=True)
class SmoothEval:
    value: float
    gradient: np.ndarray


def generate_instance(
    m: int, n: int, s: int, noise_scale: float = 0.01, seed: int = 0
) -> ProblemInstance:
    """Draw one seeded instance; identical (m, n, s, noise_scale, seed) reproduce it.

    Order: sample A (stream 0) and normalize its columns, draw the support by
    Fisher-Yates partial shuffle (stream 1), fill the ground truth on the
    sorted support in ascending index order (stream 2), then form
    b = A y + noise_scale * noise (stream 3).
    """
    if m < 1 or n < 1 or s < 1:
        raise ValueError("m, n, s must be positive")
    if s > n:
        raise ValueError(f"s={s} exceeds n={n}")

    src_a = RandomSource(seed, _STREAM_A)
    A = gauss_vector(src_a, m * n).reshape(m, n)
    norms = np.sqrt((A**2).sum(axis=0))
    resampled = 0
    while np.any(norms == 0.0):  # probability zero; keep the contract airtight
        for j in np.flatnonzero(norms == 0.0):
            A[:, j] = gauss_vector(src_a, m)
            resampled += 1
        norms = np.sqrt((A**2).sum(axis=0))
    if resampled:
        log.warning("generate_instance: resampled %d zero columns", resampled)
    A /= norms

    src_t = RandomSource(seed, _STREAM_SUPPORT)
    idx = np.arange(n)
    for j in range(s):
        k = j + src_t.randbelow(n - j)
        idx[j], idx[k] = idx[k], idx[j]
    support = np.sort(idx[:s])

    ground_truth = np.zeros(n)
    ground_truth[support] = gauss_vector(RandomSource(seed, _STREAM_SIGNAL), s)

    noise = gauss_vector(RandomSource(seed, _STREAM_NOISE), m)
    b = A @ ground_truth + noise_scale * noise

    return ProblemInstance(A, b, ground_truth, support, seed, noise_scale)


def smooth_eval(inst: ProblemInstance, x: np.ndarray) -> SmoothEval:
    """f(x) = 0.5 ||Ax - b||^2 and its gradient A.T (Ax - b)."""
    r = inst.A @ x - inst.b
    return SmoothEval(0.5 * float(r @ r), inst.A.T @ r)


def objective(inst: ProblemInstance, spec: RegularizerSpec, x: np.ndarray) -> float:
    """F(x) = f(x) + P1(x) - P2(x)."""
    r = inst.A @ x - inst.b
    p1, p2 = reg_value(spec, x)
    return 0.5 * float(r @ r) + p1 - p2


def l12_lambda_bound(inst: ProblemInstance) -> float:
    """0.5 ||A.T b||_inf; an l1-l2 weight lam is admissible iff lam < this."""
    return 0.5 * float(np.abs(inst.A.T @ inst.b).max())


# ---------------------------------------------------------------------------
# binary container (see README for the byte layout)
# ---------------------------------------------------------------------------

_MAGIC = b"DCIN"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQQQd")  # magic, version, m, n, s, seed, noise_scale


def save_instance(inst: ProblemInstance, path: str) -> None:
    """Write the little-endian binary container (magic DCIN, version 1)."""
    m, n, s = inst.m, inst.n, inst.s
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, m, n, s, inst.seed & _MASK, inst.noise_scale))
        fh.write(np.ascontiguousarray(inst.A).tobytes())
        fh.write(inst.b.tobytes())
        fh.write(inst.ground_truth.tobytes())
        fh.write(inst.support.astype("<u8").tobytes())


def load_instance(path: str) -> ProblemInstance:
    """Read a container written by save_instance, re-validating the invariants."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated container")
    magic, version, m, n, s, seed, noise_scale = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 8 * (m * n + m + n + s)
    if len(blob) != expected:
        raise ValueError(f"{path}: size {len(blob)} does not match header (expected {expected})")
    off = _HEADER.size
    A = np.frombuffer(blob, dtype="<f8", count=m * n, offset=off).reshape(m, n).copy()
    off += 8 * m * n
    b = np.frombuffer(blob, dtype="<f8", count=m, offset=off).copy()
    off += 8 * m
    gt = np.frombuffer(blob, dtype="<f8", count=n, offset=off).copy()
    off += 8 * n
    support = np.frombuffer(blob, dtype="<u8", count=s, offset=off).astype(np.int64)
    return ProblemInstance(A, b, gt, support, int(seed), float(noise_scale))
