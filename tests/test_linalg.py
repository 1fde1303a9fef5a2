"""Hashing, counter-based RNG, and the power-iteration bound."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcopt import linalg
from dcopt.linalg import (
    LmaxResult,
    RandomSource,
    combine_seed,
    gauss_vector,
    lmax_gram,
    mix64,
)
from oracles import box_muller_out, jacobi_lmax, splitmix_out


class TestMix64:
    def test_deterministic_and_in_range(self):
        for z in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
            out = mix64(z)
            assert out == mix64(z)
            assert 0 <= out < 2**64

    def test_distinct_on_small_inputs(self):
        outs = {mix64(z) for z in range(4096)}
        assert len(outs) == 4096

    def test_avalanche(self):
        # flipping one input bit should flip roughly half the output bits
        rng = np.random.default_rng(1)
        flips = []
        for _ in range(200):
            z = int(rng.integers(0, 2**63))
            bit = int(rng.integers(0, 64))
            flips.append(bin(mix64(z) ^ mix64(z ^ (1 << bit))).count("1"))
        mean = sum(flips) / len(flips)
        assert 24.0 < mean < 40.0


class TestCombineSeed:
    def test_deterministic(self):
        assert combine_seed(0, 720, 2560, 80, 3) == combine_seed(0, 720, 2560, 80, 3)

    def test_order_sensitive(self):
        assert combine_seed(1, 2) != combine_seed(2, 1)

    def test_arity_sensitive(self):
        assert combine_seed(0) != combine_seed(0, 0)

    def test_component_sensitive(self):
        base = combine_seed(5, 10, 20, 2, 0)
        for k in range(5):
            parts = [5, 10, 20, 2, 0]
            parts[k] += 1
            assert combine_seed(*parts) != base

    def test_range(self):
        assert 0 <= combine_seed(123, 456) < 2**64


class TestRandomSource:
    def test_raw_matches_scalar_reference(self):
        # vectorized uint64 arithmetic vs exact big-int arithmetic, including
        # the counter offset from a previous draw
        for seed, stream in ((0, 0), (42, 3), (2**63 + 17, 1)):
            src = RandomSource(seed, stream)
            state = src.state
            first = src.raw(100)
            second = src.raw(57)
            # word k is 1-based: mix64(state + k * GAMMA)
            expected = [splitmix_out(state, k) for k in range(1, 158)]
            got = np.concatenate([first, second])
            assert got.dtype == np.uint64
            assert [int(v) for v in got] == expected

    def test_recreate_replays(self):
        a = RandomSource(7, 2).raw(64)
        b = RandomSource(7, 2).raw(64)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RandomSource(7, 0).raw(64)
        b = RandomSource(7, 1).raw(64)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = RandomSource(7, 0).raw(64)
        b = RandomSource(8, 0).raw(64)
        assert not np.array_equal(a, b)

    def test_randbelow_range(self):
        src = RandomSource(3, 0)
        draws = [src.randbelow(7) for _ in range(2000)]
        assert min(draws) == 0 and max(draws) == 6

    def test_randbelow_covers_residues_evenly(self):
        src = RandomSource(9, 1)
        counts = np.bincount([src.randbelow(5) for _ in range(5000)], minlength=5)
        assert counts.min() > 800 and counts.max() < 1200

    def test_randbelow_one(self):
        assert RandomSource(0, 0).randbelow(1) == 0

    def test_randbelow_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            RandomSource(0, 0).randbelow(0)

    @pytest.mark.parametrize("bound", [2.5, 2.0, True, -3])
    def test_randbelow_takes_an_integer_bound(self, bound):
        # 2.5 drew the float 2.0 and True drew 0
        with pytest.raises(ValueError, match="bound must be a positive integer"):
            RandomSource(0, 0).randbelow(bound)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, -1])
    def test_raw_takes_an_integer_count(self, count):
        # 2.5 drew three words and left the counter at 2.5, so the next
        # draw repeated word 3
        src = RandomSource(0, 0)
        with pytest.raises(ValueError, match="count must be a non-negative integer"):
            src.raw(count)
        assert src.counter == 0
        assert np.array_equal(src.raw(2), RandomSource(0, 0).raw(2))

    def test_raw_accepts_zero_and_numpy_counts(self):
        src = RandomSource(0, 0)
        assert src.raw(0).shape == (0,)
        assert np.array_equal(src.raw(np.int64(3)), RandomSource(0, 0).raw(3))

    @pytest.mark.parametrize("seed", [np.int64(5), np.int32(5), np.uint64(5)],
                             ids=["int64", "int32", "uint64"])
    def test_numpy_integer_seed_matches_python_int(self, seed):
        # a signed numpy seed overflowed inside the 64-bit mask
        want = RandomSource(5, 2)
        for src in (RandomSource(seed, 2), RandomSource(seed, np.int64(2))):
            assert src.state == want.state
            assert np.array_equal(src.raw(16), RandomSource(5, 2).raw(16))
        assert mix64(seed) == mix64(5)
        assert combine_seed(seed, np.int64(-1)) == combine_seed(5, -1)

    def test_float_seed_is_rejected(self):
        # -1 and 2**64 would alias seeds 2**64 - 1 and 0, and True seed 1
        for seed in (5.0, -1, 2**64, True):
            with pytest.raises(ValueError, match="seed must be an integer in"):
                RandomSource(seed, 0)
            with pytest.raises(ValueError, match="stream_id must be an integer in"):
                RandomSource(0, seed)


class TestGaussVector:
    def test_deterministic(self):
        a = gauss_vector(RandomSource(5, 0), 1000)
        b = gauss_vector(RandomSource(5, 0), 1000)
        assert np.array_equal(a, b)

    def test_lengths(self):
        for length in (1, 2, 3, 17, 64):
            assert gauss_vector(RandomSource(1, 0), length).shape == (length,)

    @pytest.mark.parametrize("length", [True, 2.0, 0, -1])
    def test_length_must_be_a_count(self, length):
        # True drew one value
        with pytest.raises(ValueError, match="length must be an integer >= 1"):
            gauss_vector(RandomSource(1, 0), length)

    def test_finite(self):
        g = gauss_vector(RandomSource(2, 0), 200000)
        assert np.all(np.isfinite(g))

    def test_moments(self):
        g = gauss_vector(RandomSource(42, 0), 500000)
        assert abs(float(g.mean())) < 5e-3
        assert abs(float(g.var()) - 1.0) < 1e-2
        # tail mass beyond 3 sigma should be near the normal value 2.7e-3
        tail = float(np.mean(np.abs(g) > 3.0))
        assert 1e-3 < tail < 5e-3

    def test_streams_independent_samples(self):
        a = gauss_vector(RandomSource(42, 1), 100)
        b = gauss_vector(RandomSource(42, 2), 100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("length", [1, 2, 7, 4096, 65535, 200001])
    @pytest.mark.parametrize("seed, stream", [(0, 0), (11, 3), (2**64 - 1, 7)])
    def test_matches_the_formula_bit_for_bit(self, seed, stream, length):
        src = RandomSource(seed, stream)
        src.counter = 12345
        words = src.raw(2 * ((length + 1) // 2))
        src.counter = 12345
        got = gauss_vector(src, length)
        assert src.counter == 12345 + words.size
        assert got.tobytes() == box_muller_out(words, length).tobytes()

    def test_call_peaks_near_twice_its_output(self):
        # the raw words are freed before the output exists and the transform
        # runs in place; on fresh arrays per step, as in box_muller_out, it peaks at 4.5x
        gauss_vector(RandomSource(1, 0), 2**16)  # numpy's lazy set-up allocates once
        tracemalloc.start()
        try:
            out = gauss_vector(RandomSource(1, 0), 2**16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * out.nbytes


class TestLmaxGram:
    def test_identity(self):
        est = lmax_gram(np.eye(4))
        assert est.converged
        assert abs(est.value - 1.0) < 1e-12

    def test_diagonal_hand_values(self):
        # A = diag(1, 2): A^T A = diag(1, 4), top eigenvalue 4
        est = lmax_gram(np.diag([1.0, 2.0]))
        assert abs(est.value - 4.0) < 1e-9
        # A = diag(3, 1): top eigenvalue of the Gram is 9
        est = lmax_gram(np.diag([3.0, 1.0]))
        assert abs(est.value - 9.0) < 1e-9

    def test_matches_jacobi_oracle(self, rng):
        for m, n in ((2, 2), (5, 3), (3, 7), (12, 9), (30, 20), (20, 30)):
            A = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0)
            est = lmax_gram(A)
            ref = jacobi_lmax(A)
            assert est.converged
            assert abs(est.value - ref) <= 1e-8 * ref

    def test_never_overestimates(self, rng):
        # the estimate is a Rayleigh quotient, so it sits below the true top
        for _ in range(5):
            A = rng.standard_normal((9, 6))
            est = lmax_gram(A)
            ref = jacobi_lmax(A)
            assert est.value <= ref * (1.0 + 1e-10) + 1e-12

    def test_returns_named_tuple(self):
        est = lmax_gram(np.eye(2))
        assert isinstance(est, LmaxResult)
        assert est.iterations >= 1

    def test_budget_exhaustion_reports_unconverged(self, rng, caplog, monkeypatch):
        monkeypatch.setattr(linalg, "_LMAX_TOL", 1e-15)
        monkeypatch.setattr(linalg, "_LMAX_MAX_ITER", 2)
        A = rng.standard_normal((8, 8))
        with caplog.at_level("DEBUG"):
            est = lmax_gram(A)
        assert est == (est.value, False, 2)
        # the Rayleigh quotient after two power steps from the fixed start
        v = gauss_vector(RandomSource(linalg._LMAX_START_SEED, stream_id=0), 8)
        v /= np.linalg.norm(v)
        u = A.T @ (A @ v)
        w = A @ (u / np.linalg.norm(u))
        assert est.value == float(w @ w)
        assert caplog.records == []  # the caller reports it, once

    def test_zero_matrix(self):
        # lambda_max is exactly 0, known after the first product
        assert lmax_gram(np.zeros((720, 2560))) == (0.0, True, 1)

    def test_matrix_annihilating_the_start_reports_unconverged(self):
        n = 2560
        v0 = gauss_vector(RandomSource(linalg._LMAX_START_SEED, stream_id=0), n)
        v0 /= np.linalg.norm(v0)
        A = np.zeros((3, n))
        A[:, 0], A[:, 1] = v0[1], -v0[0]
        assert not (A @ v0).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = lmax_gram(A)
        assert est == (0.0, False, 1)

    def test_bad_args(self):
        with pytest.raises(ValueError, match="2-D"):
            lmax_gram(np.ones(3))

    # warnings are errors: 1e200 overflows in w @ w, and numpy's overflow
    # warning must not pre-empt the ValueError
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_product_raises_at_the_first_step(self, rng, value):
        A = rng.standard_normal((30, 80))
        A[7, 11] = value
        with pytest.raises(ValueError, match="iteration 1:"):
            lmax_gram(A)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_product_raises_at_the_first_step(self):
        with pytest.raises(ValueError, match="iteration 1: inf"):
            lmax_gram(np.full((30, 80), 1e200))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**32))
    def test_oracle_agreement_property(self, m, n, seed):
        A = np.random.default_rng(seed).standard_normal((m, n))
        est = lmax_gram(A)
        ref = jacobi_lmax(A)
        assert est.converged
        assert abs(est.value - ref) <= 1e-8 * max(ref, 1e-300)


# Runs under OPENBLAS_NUM_THREADS=1 and -W error. Every C-ordered case whose
# shape meets the blocked pass's rules must go through numpy's own dgemv
# (counted), so on a numpy without its bundled OpenBLAS this fails, not skips.
_PAIR_CHECK = textwrap.dedent("""
    import numpy as np
    from dcopt import linalg

    gemv, threads = linalg._BLAS
    assert threads() == 1
    default = linalg._PAIR_BLOCK_BYTES
    blocks = []
    linalg._BLAS = (lambda *args: (blocks.append(args[2]), gemv(*args))[1], threads)

    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    rng = np.random.default_rng(7)
    blocked = 0
    for n in (1, 2, 4, 8, 12, 33, 100, 999, 2560, 2561, 2564):
        B = rng.standard_normal((2161, n + 2))
        for m in [*range(1, 98), 719, 720, 721, 722, 723, 2159, 2160, 2161]:
            C = np.ascontiguousarray(B[:m, 1:n + 1])
            x, p, c = rng.standard_normal(n), rng.standard_normal(m), rng.standard_normal(m)
            # 8-row, 24-row and default blocks; an F-ordered copy; a strided view
            cases = [(C, 1), (C, 64 * 24 * n), (C, default),
                     (np.asfortranarray(C), 1), (B[:m, 1:n + 1], 1)]
            for A, budget in cases:
                rows = max(8, budget // (64 * n) * 8)
                runs = A is C and n % 4 == 0 and m >= 2 * rows
                w0 = A @ x
                for shift in (None, (0.0, p, c), (0.5, p, c)):
                    u0 = A.T @ (w0 if shift is None else (w0 + shift[0] * (w0 - p)) - c)
                    blocks.clear()
                    linalg._PAIR_BLOCK_BYTES = budget
                    w, u = linalg._gemv_pair(A, x, shift)
                    assert same(w, w0) and same(u, u0), (m, n, budget, A.flags)
                    assert blocks == ([rows] * (m // rows - 1) + [m - rows * (m // rows - 1)]
                                      if runs else []), (m, n, budget, blocks)
                    blocked += runs
    assert blocked > 1000, blocked

    linalg._PAIR_BLOCK_BYTES = default
    blocks.clear()
    try:
        linalg.lmax_gram(np.full((720, 2560), 1e200))
    except ValueError as exc:
        assert "iteration 1: inf" in str(exc), exc
    else:
        raise AssertionError("no ValueError")
    assert blocks, "the overflowing matrix did not take the blocked pass"
    print("ok", blocked)
""")


def test_gemv_pair_gives_numpy_bits_at_one_blas_thread():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-W", "error", "-c", _PAIR_CHECK],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("ok")
