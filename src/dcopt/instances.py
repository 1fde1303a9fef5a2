"""Least-squares problem instances: generation, validation and containers.

Instances follow a fixed recipe: A has i.i.d. standard Gaussian entries with
columns normalized to unit norm, an s-subset support is drawn uniformly, the
ground truth is Gaussian on that support, and b = A y + noise_scale * noise.
Four independent substreams (A, support, signal, noise) hang off the instance
seed so changing s cannot perturb A for the same seed.
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .linalg import RandomSource, _check_cell, _check_seed, _is_real, gauss_vector

_STREAM_A = 0
_STREAM_SUPPORT = 1
_STREAM_SIGNAL = 2
_STREAM_NOISE = 3

# Words of A drawn per gauss_vector call. Even, so every block but the last
# consumes whole Box-Muller pairs and the blocks concatenate to the one-shot
# draw of the counter-based stream, however they are split between workers.
# A block is drawn in place in A with one scratch of its size per worker
# (512 KiB), which the calling thread allocates and frees.
_BLOCK_WORDS = 1 << 16


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _column_norms(A: np.ndarray) -> np.ndarray:
    """np.sqrt((A**2).sum(axis=0)) bit for bit, without an (m, n) temporary.

    numpy reduces axis 0 of a C-ordered A by adding the squared rows in order
    into one running vector, so this does the same. A single column is summed
    pairwise instead, so that case goes to numpy whole (its temporary is one
    column).
    """
    if A.shape[1] == 1:
        return np.sqrt((A**2).sum(axis=0))
    sq = np.zeros(A.shape[1])
    for row in A:
        sq += row * row
    return np.sqrt(sq)


def _check_seed_and_noise(seed: int, noise_scale: float) -> None:
    _check_seed(seed, "seed")
    if not (_is_real(noise_scale) and 0 <= noise_scale < math.inf):
        raise ValueError("noise_scale must be non-negative and finite")


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
        sup_in = np.asarray(self.support)
        with np.errstate(invalid="ignore"):  # NaN and +-inf are caught below
            sup = sup_in.astype(np.int64)
        if A.ndim != 2:
            raise ValueError("A must be 2-D")
        m, n = A.shape
        if m < 1 or n < 1:
            raise ValueError(f"A has shape {A.shape}; it needs at least one row and one column")
        if b.shape != (m,):
            raise ValueError(f"b has shape {b.shape}, expected ({m},)")
        if gt.shape != (n,):
            raise ValueError(f"ground_truth has shape {gt.shape}, expected ({n},)")
        # the one pass over A: a NaN or +-inf entry, or a column whose squares
        # overflow, leaves its norm non-finite; a finite b @ b also bounds
        # A.T @ b, since the columns have unit norm
        with np.errstate(over="ignore", invalid="ignore"):
            norms = _column_norms(A)
            finite = np.isfinite(norms).all() and np.isfinite(b @ b)
        if not finite:
            raise ValueError("A and b must be finite")
        if np.abs(norms - 1.0).max() > 1e-12:
            raise ValueError("columns of A must have unit norm (within 1e-12)")
        if np.any(sup != sup_in):
            raise ValueError("support indices must be integers")
        if np.any(sup[1:] <= sup[:-1]):
            raise ValueError("support indices must be distinct and sorted ascending")
        if sup.size and (sup.min() < 0 or sup.max() >= n):
            raise ValueError("support indices out of range")
        if not np.isfinite(gt).all():
            raise ValueError("ground_truth must be finite")
        nz = np.flatnonzero(gt)
        if not np.isin(nz, sup).all():
            raise ValueError("ground_truth has nonzeros off the support")
        _check_seed_and_noise(self.seed, self.noise_scale)
        for arr, name in ((A, "A"), (b, "b"), (gt, "ground_truth"), (sup, "support")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def s(self) -> int:
        return int(self.support.size)


def generate_instance(
    m: int, n: int, s: int, noise_scale: float = 0.01, seed: int = 0
) -> ProblemInstance:
    """Draw one seeded instance; identical (m, n, s, noise_scale, seed) reproduce it.

    Order: sample A (stream 0, in blocks drawn on every available CPU, with the
    same bits for any CPU count) and normalize its columns, draw the support by
    Fisher-Yates partial shuffle (stream 1), fill the ground truth on the sorted
    support in ascending index order (stream 2), then b = A y + noise_scale * noise
    (stream 3).
    """
    _check_cell(m, n, s)
    _check_seed_and_noise(seed, noise_scale)

    A = np.empty((m, n))
    words = A.reshape(-1)

    def fill(run: range, scratch: np.ndarray) -> None:
        src_a = RandomSource(seed, _STREAM_A)
        src_a.counter = run.start  # word k of the stream depends on (seed, k) only
        for i in run:
            block = words[i : i + _BLOCK_WORDS]
            gauss_vector(src_a, block.size, out=block, scratch=scratch)

    # one run of whole blocks per CPU, each in a worker, with a scratch from this
    # thread: a worker's arena would keep block-sized temporaries for good
    blocks = range(0, m * n, _BLOCK_WORDS)
    k = min(_cpus(), len(blocks))
    runs = [blocks[j * len(blocks) // k : (j + 1) * len(blocks) // k] for j in range(k)]
    scratches = [np.empty(_BLOCK_WORDS, dtype=np.uint64) for _ in runs]
    with ThreadPoolExecutor(k) as pool:  # joins every worker, also when a run raises
        done = [pool.submit(fill, run, t) for run, t in zip(runs, scratches)]
    del scratches
    for future in done:  # in run order; pool.map would cancel the runs not yet started
        future.result()
    A /= _column_norms(A)  # an all-zero column turns NaN, which ProblemInstance rejects

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
    """Write the little-endian binary container (magic DCIN, version 1).

    The arrays are written from their own buffers, not through byte copies.
    """
    m, n, s = inst.m, inst.n, inst.s
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, m, n, s, inst.seed, inst.noise_scale))
        for arr, dtype in ((inst.A, "<f8"), (inst.b, "<f8"), (inst.ground_truth, "<f8"),
                           (inst.support, "<u8")):
            fh.write(np.ascontiguousarray(arr, dtype=dtype))


def load_instance(path: str) -> ProblemInstance:
    """Read a container written by save_instance, re-validating the invariants.

    The file size is checked against the header before anything is allocated;
    the arrays are then read in place.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated container")
        magic, version, m, n, s, seed, noise_scale = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        expected = _HEADER.size + 8 * (m * n + m + n + s)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(f"{path}: size {size} does not match header (expected {expected})")
        arrays = (np.empty((m, n), "<f8"), np.empty(m, "<f8"), np.empty(n, "<f8"),
                  np.empty(s, "<u8"))
        for arr in arrays:
            if fh.readinto(arr) != arr.nbytes:  # the file shrank after the size check
                raise ValueError(f"{path}: truncated container")
    A, b, gt, support = arrays
    return ProblemInstance(A, b, gt, support.astype(np.int64), int(seed), float(noise_scale))
