"""Instance generation, the smooth term, and the binary container."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import dcopt
from dcopt import instances, replicate_seed
from dcopt.instances import (
    ProblemInstance,
    _column_norms,
    generate_instance,
    l12_lambda_bound,
    load_instance,
    save_instance,
)
from dcopt.regularizers import L1MinusL2, LogPenalty
from dcopt.solvers import objective
from oracles import fd_gradient, one_shot_instance, smooth_eval

BLOCK = instances._BLOCK_WORDS


def hand_instance(b):
    """Identity-design instance with zero ground truth; handy for hand math."""
    return ProblemInstance(
        A=np.eye(len(b)),
        b=np.asarray(b, dtype=float),
        ground_truth=np.zeros(len(b)),
        support=np.array([0], dtype=np.int64),
        seed=0,
        noise_scale=0.0,
    )


class TestGenerateInstance:
    def test_shapes_and_dtypes(self):
        inst = generate_instance(20, 50, 5, seed=3)
        assert inst.A.shape == (20, 50)
        assert inst.b.shape == (20,)
        assert inst.ground_truth.shape == (50,)
        assert inst.support.shape == (5,)
        assert inst.A.dtype == np.float64
        assert (inst.m, inst.n, inst.s) == (20, 50, 5)

    def test_unit_columns(self):
        inst = generate_instance(30, 80, 8, seed=1)
        norms = np.sqrt((inst.A**2).sum(axis=0))
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_support_sorted_distinct_in_range(self):
        inst = generate_instance(15, 40, 7, seed=9)
        sup = inst.support
        assert np.all(np.diff(sup) > 0)
        assert sup.min() >= 0 and sup.max() < 40

    def test_signal_lives_on_support(self):
        inst = generate_instance(25, 60, 6, seed=4)
        off = np.setdiff1d(np.arange(60), inst.support)
        assert np.all(inst.ground_truth[off] == 0.0)
        # the on-support draws are standard normal; all-zero is impossible
        assert np.any(inst.ground_truth[inst.support] != 0.0)

    def test_deterministic_bitwise(self):
        a = generate_instance(12, 30, 4, seed=77)
        b = generate_instance(12, 30, 4, seed=77)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.ground_truth, b.ground_truth)
        assert np.array_equal(a.support, b.support)

    def test_seed_changes_instance(self):
        a = generate_instance(12, 30, 4, seed=0)
        b = generate_instance(12, 30, 4, seed=1)
        assert not np.array_equal(a.A, b.A)

    def test_noiseless_consistency(self):
        inst = generate_instance(10, 25, 3, noise_scale=0.0, seed=5)
        assert np.array_equal(inst.b, inst.A @ inst.ground_truth)

    def test_noise_scale_matters(self):
        a = generate_instance(10, 25, 3, noise_scale=0.01, seed=5)
        b = generate_instance(10, 25, 3, noise_scale=0.02, seed=5)
        assert np.array_equal(a.A, b.A)
        assert not np.array_equal(a.b, b.b)

    @pytest.mark.parametrize(
        "m, n, s",
        [
            (1, 1, 1),
            (1, 7, 3),  # one row, odd n
            (3, 5, 2),  # odd m * n
            (100, 1, 1),  # one column: numpy sums it pairwise
            (1, 70001, 4),  # one row longer than a block
            (5, 30001, 3),  # odd m * n over several blocks
            (300, 501, 10),  # several blocks, the last one ragged
            (1, 16384, 2),  # a power of two inside one block
            (2, 8193, 2),  # two rows inside one block
            (1, BLOCK, 2),  # ends exactly on a block boundary
            (1, BLOCK + 1, 2),  # one word past a block boundary
            (3, BLOCK + 1, 3),  # rows longer than a block, odd m * n
        ],
    )
    def test_matches_one_shot_draw(self, m, n, s):
        inst = generate_instance(m, n, s, noise_scale=0.05, seed=11)
        ref = one_shot_instance(m, n, s, noise_scale=0.05, seed=11)
        for got, want in zip((inst.A, inst.b, inst.ground_truth, inst.support), ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0

    @pytest.mark.parametrize(
        "m, n", [(1, 1), (9, 1), (100, 1), (1, 9), (3, 5), (17, 33), (129, 7), (1000, 3), (257, 1001)]
    )
    def test_column_norms_match_numpy_bitwise(self, m, n, rng):
        A = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0, size=(m, 1))
        got = _column_norms(A)
        assert got.tobytes() == np.sqrt((A**2).sum(axis=0)).tobytes()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0, n=10, s=1),
            dict(m=5, n=0, s=1),
            dict(m=5, n=10, s=0),
            dict(m=5, n=10, s=11),
            dict(m=5, n=10, s=1, noise_scale=-0.1),
            dict(m=6, n=10, s=True),
            dict(m=6.0, n=10, s=2),
            dict(m=6, n=10.5, s=2),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            generate_instance(**kwargs)

    @pytest.mark.parametrize("noise_scale", [-1.0, math.nan, math.inf, True])
    def test_rejects_bad_noise_scale_before_drawing_A(self, monkeypatch, noise_scale):
        def no_draw(*args, **kwargs):
            raise AssertionError("A was drawn before noise_scale was checked")

        monkeypatch.setattr(instances, "gauss_vector", no_draw)
        with pytest.raises(ValueError, match="noise_scale"):
            generate_instance(4, 6, 2, noise_scale=noise_scale)

    @pytest.mark.parametrize("seed", [-1, 1 << 64], ids=["-1", "2**64"])
    def test_rejects_seed_outside_u64_before_drawing_A(self, monkeypatch, seed):
        monkeypatch.setattr(instances, "gauss_vector",
                            lambda *args, **kwargs: pytest.fail("A was drawn"))
        with pytest.raises(ValueError, match="seed must be an integer in"):
            generate_instance(4, 6, 2, seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5)], ids=["int64", "uint64"])
    def test_numpy_integer_seed_matches_python_int(self, seed):
        a, b = generate_instance(4, 6, 2, seed=seed), generate_instance(4, 6, 2, seed=5)
        for name in ("A", "b", "ground_truth", "support"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.seed == 5

    def test_float_seed_is_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer in"):
            generate_instance(4, 6, 2, seed=5.0)

    @pytest.mark.parametrize("seed", [True, False])
    def test_bool_seed_is_rejected(self, seed):
        # bool is an Integral; True used to be stored as the seed and drawn as 1
        with pytest.raises(ValueError, match="seed must be an integer in"):
            generate_instance(4, 6, 2, seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer in"):
            ProblemInstance(np.eye(2), np.zeros(2), np.zeros(2), np.array([0]), seed, 0.0)

    def test_zero_column_is_rejected_not_redrawn(self, monkeypatch):
        real = instances.gauss_vector

        def zero_last_column(src, length, **kwargs):
            out = real(src, length, **kwargs)
            if length == 4 * 6:  # only the draw of A
                out.reshape(4, 6)[:, -1] = 0.0
            return out

        monkeypatch.setattr(instances, "gauss_vector", zero_last_column)
        with np.errstate(invalid="ignore"):  # 0 / 0 in the normalization
            with pytest.raises(ValueError, match="A and b must be finite"):
                generate_instance(4, 6, 2, seed=3)


class TestParallelDraw:
    """A's blocks are split into one contiguous run per CPU, drawn concurrently."""

    @staticmethod
    def assert_draw_is_one_shot(monkeypatch, cpus, m, n, s):
        monkeypatch.setattr(instances, "_cpus", lambda: cpus)
        threads, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the workers finely
        try:
            inst = generate_instance(m, n, s, noise_scale=0.05, seed=11)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        ref = one_shot_instance(m, n, s, noise_scale=0.05, seed=11)
        for got, want in zip((inst.A, inst.b, inst.ground_truth, inst.support), ref):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("m, n, s", [(300, 501, 10), (2, 8193, 2), (1, 70001, 4),
                                         (5, 30001, 3)])
    def test_cpu_count_does_not_change_the_draw(self, monkeypatch, cpus, m, n, s):
        self.assert_draw_is_one_shot(monkeypatch, cpus, m, n, s)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("block", [2, 1 << 14, 1 << 16])
    def test_block_size_does_not_change_the_draw(self, monkeypatch, block, cpus):
        # 3 x (2 block + 1) is 6 whole blocks and 3 words: rows cross block
        # boundaries, and the draw ends in half a Box-Muller pair
        monkeypatch.setattr(instances, "_BLOCK_WORDS", block)
        self.assert_draw_is_one_shot(monkeypatch, cpus, 3, 2 * block + 1, 2)

    @pytest.mark.parametrize("cpus, runs", [(1, 1), (3, 3), (5, 5), (64, 10)])
    def test_each_run_is_whole_blocks_from_its_own_source(self, monkeypatch, cpus, runs):
        # 9 x (block + 3) is 10 blocks, the last one ragged: at most one run per block
        m, n = 9, BLOCK + 3
        real = instances.gauss_vector
        calls = []

        def record(src, length, **kwargs):
            calls.append((src.counter, length, src))
            return real(src, length, **kwargs)

        monkeypatch.setattr(instances, "_cpus", lambda: cpus)
        monkeypatch.setattr(instances, "gauss_vector", record)
        generate_instance(m, n, 10, seed=11)
        drawn = sorted((c for c in calls if c[2].stream_id == 0), key=lambda c: c[0])
        assert [(start, length) for start, length, _ in drawn] == [
            (start, min(BLOCK, m * n - start)) for start in range(0, m * n, BLOCK)]
        sources = [id(src) for _, _, src in drawn]
        # each source draws one contiguous run, and the runs differ by at most one block
        assert sources == sorted(sources, key=sources.index)
        sizes = [sources.count(i) for i in set(sources)]
        assert len(sizes) == runs and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_no_block_is_drawn_on_the_calling_thread(self, monkeypatch, cpus):
        # 9 x (block + 3) is 10 blocks; the calling thread only waits for the workers
        real = instances.gauss_vector
        drawers = []

        def record(src, length, **kwargs):
            if src.stream_id == 0:
                drawers.append(threading.get_ident())
            return real(src, length, **kwargs)

        monkeypatch.setattr(instances, "_cpus", lambda: cpus)
        monkeypatch.setattr(instances, "gauss_vector", record)
        generate_instance(9, BLOCK + 3, 10, seed=11)
        assert len(drawers) == 10
        assert threading.get_ident() not in drawers
        assert len(set(drawers)) <= cpus

    @pytest.mark.parametrize("failing", ["first", "second"])
    def test_failed_block_raises_after_every_worker_joined(self, monkeypatch, failing):
        # 2 x (block / 2 + 1) is 2 blocks, one run per worker: block 0 and block 1
        real = instances.gauss_vector
        bad = 0 if failing == "first" else BLOCK
        finished = []

        def flaky(src, length, **kwargs):
            start = src.counter
            if start == bad:
                raise RuntimeError(f"block at word {start} failed")
            time.sleep(0.05)  # the other block is still running when the bad one fails
            out = real(src, length, **kwargs)
            finished.append(start)
            return out

        monkeypatch.setattr(instances, "_cpus", lambda: 2)
        monkeypatch.setattr(instances, "gauss_vector", flaky)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"block at word {bad} failed"):
            generate_instance(2, BLOCK // 2 + 1, 2, seed=11)
        assert threading.active_count() == threads
        assert finished == [BLOCK - bad]


class TestDrawInPlace:
    """A's blocks are drawn in A itself, each worker with one scratch from the caller."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_draw_peaks_at_A_plus_one_scratch_per_worker(self, monkeypatch, cpus):
        # each worker's own gauss_vector temporaries used to add a block apiece
        monkeypatch.setattr(instances, "_cpus", lambda: cpus)
        generate_instance(720, 2560, 80, seed=1)  # numpy's lazy set-up allocates once
        tracemalloc.start()
        try:
            inst = generate_instance(720, 2560, 80, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= inst.A.nbytes + cpus * 8 * BLOCK + 64 * 1024

    @pytest.mark.parametrize(("m", "n", "s", "seed", "digest_A", "digest_b"), [
        (720, 2560, 80, replicate_seed(0, 720, 2560, 80, 0), "27c8aaa3a9178cf1",
         "e9d29c5ca6e39c77"),
        (333, 1001, 17, 5, "29201e940fa716d3", "777b503b52c4a7b1"),
    ], ids=["desk", "odd-multi-block"])
    def test_pinned_bits(self, pinned_bits, m, n, s, seed, digest_A, digest_b):
        # the desk A is the one behind perfbench's pinned L, 29 blocks split between the
        # workers; 333 x 1001 is 5 whole blocks and 5653 words, ending in half a pair
        inst = generate_instance(m, n, s, seed=seed)
        for arr, digest in ((inst.A, digest_A), (inst.b, digest_b)):
            assert hashlib.sha256(arr.tobytes()).hexdigest()[:16] == digest


class TestProblemInstanceValidation:
    def test_arrays_become_readonly(self):
        inst = generate_instance(6, 12, 2, seed=0)
        for arr in (inst.A, inst.b, inst.ground_truth, inst.support):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_rejects_non_unit_columns(self):
        with pytest.raises(ValueError, match="unit norm"):
            ProblemInstance(2.0 * np.eye(2), np.zeros(2), np.zeros(2),
                            np.array([0]), 0, 0.0)

    def test_rejects_bad_b_shape(self):
        with pytest.raises(ValueError, match="b has shape"):
            ProblemInstance(np.eye(2), np.zeros(3), np.zeros(2), np.array([0]), 0, 0.0)

    def test_rejects_bad_ground_truth_shape(self):
        with pytest.raises(ValueError, match=r"ground_truth has shape \(3,\), expected \(2,\)"):
            ProblemInstance(np.eye(2), np.zeros(2), np.zeros(3), np.array([0]), 0, 0.0)

    def test_rejects_duplicate_support(self):
        with pytest.raises(ValueError, match="distinct"):
            ProblemInstance(np.eye(3), np.zeros(3), np.zeros(3),
                            np.array([1, 1]), 0, 0.0)

    def test_rejects_unsorted_support(self):
        # the ground truth lives on {1, 2}, so only the order is wrong
        with pytest.raises(ValueError, match="distinct"):
            ProblemInstance(np.eye(3), np.ones(3), np.array([0.0, 1.0, 1.0]),
                            np.array([2, 1]), 0, 0.0)

    @pytest.mark.parametrize("index", [0.7, math.nan, math.inf])
    def test_rejects_non_integral_support(self, index):
        # an int64 cast would truncate 0.7 to 0 and turn NaN/inf into garbage
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be integers"):
                ProblemInstance(np.eye(2), np.zeros(2), np.zeros(2), np.array([index]), 0, 0.0)

    def test_rejects_out_of_range_support(self):
        with pytest.raises(ValueError, match="range"):
            ProblemInstance(np.eye(2), np.zeros(2), np.zeros(2), np.array([5]), 0, 0.0)

    def test_rejects_signal_off_support(self):
        gt = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="off the support"):
            ProblemInstance(np.eye(2), np.zeros(2), gt, np.array([0]), 0, 0.0)

    def test_rejects_nonfinite_data(self):
        b = np.array([np.nan, 0.0])
        with pytest.raises(ValueError, match="finite"):
            ProblemInstance(np.eye(2), b, np.zeros(2), np.array([0]), 0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_ground_truth(self, value):
        gt = np.array([value, 0.0])
        with pytest.raises(ValueError, match="ground_truth must be finite"):
            ProblemInstance(np.eye(2), np.zeros(2), gt, np.array([0]), 0, 0.0)

    @pytest.mark.parametrize("noise_scale", [-1.0, math.nan, math.inf, True])
    def test_rejects_bad_noise_scale(self, noise_scale):
        with pytest.raises(ValueError, match="noise_scale"):
            ProblemInstance(np.eye(2), np.zeros(2), np.zeros(2), np.array([0]), 0, noise_scale)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5], ids=["-1", "2**64", "1.5"])
    def test_rejects_seed_outside_u64(self, seed):
        # the container stores the seed as u64: -1 came back as 2**64 - 1, and 1.5 failed to pack
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            ProblemInstance(np.eye(2), np.zeros(2), np.zeros(2), np.array([0]), seed, 0.0)

    def test_rejects_b_whose_squared_norm_overflows(self):
        # every entry is finite, but 0.5 ||b||^2 = F(0) is not
        b = np.full(2, 1e154)
        with pytest.raises(ValueError, match="A and b must be finite"):
            ProblemInstance(np.eye(2), b, np.zeros(2), np.array([0]), 0, 0.0)

    # 1e200 is finite, but its square overflows; a signaling NaN (bits
    # 0x7ff0000000000001, as a corrupted container may hold) raises the
    # invalid flag when squared
    @pytest.mark.parametrize("bits", [np.float64(v).view(np.uint64) for v in
                                      (math.nan, math.inf, -math.inf, 1e200)]
                             + [np.uint64(0x7FF0000000000001)],
                             ids=["nan", "inf", "-inf", "1e200", "snan"])
    @pytest.mark.parametrize("column", [0, -1])
    def test_rejects_nonfinite_A_without_warning(self, bits, column):
        A = np.eye(3)
        A.view(np.uint64)[1, column] = bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="A and b must be finite"):
                ProblemInstance(A, np.zeros(3), np.zeros(3), np.array([0]), 0, 0.0)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0), (0, 3)])
    def test_rejects_empty_A(self, shape):
        m, n = shape
        with pytest.raises(ValueError, match=re.escape(f"A has shape {shape}")):
            ProblemInstance(np.zeros(shape), np.zeros(m), np.zeros(n),
                            np.array([], dtype=np.int64), 0, 0.0)

    def test_rejects_one_dimensional_A(self):
        with pytest.raises(ValueError, match="2-D"):
            ProblemInstance(np.ones(3), np.zeros(1), np.zeros(3), np.array([0]), 0, 0.0)


class TestSmoothEval:
    def test_hand_value_and_gradient(self):
        # A = I, b = (1, 0), x = (0.3, 0.4): residual (-0.7, 0.4),
        # value 0.5 (0.49 + 0.16) = 0.325, gradient equals the residual
        inst = hand_instance([1.0, 0.0])
        ev = smooth_eval(inst, np.array([0.3, 0.4]))
        assert ev.value == pytest.approx(0.325, abs=1e-15)
        assert np.allclose(ev.gradient, [-0.7, 0.4], atol=1e-15)

    def test_zero_at_noiseless_truth(self):
        inst = generate_instance(10, 25, 3, noise_scale=0.0, seed=2)
        ev = smooth_eval(inst, inst.ground_truth)
        assert ev.value == 0.0
        assert np.array_equal(ev.gradient, np.zeros(25))

    def test_gradient_matches_finite_differences(self, rng):
        inst = generate_instance(8, 14, 3, seed=6)
        for _ in range(5):
            x = rng.standard_normal(14)
            got = smooth_eval(inst, x).gradient
            ref = fd_gradient(lambda v: smooth_eval(inst, v).value, x)
            rel = np.linalg.norm(got - ref) / max(1.0, np.linalg.norm(got))
            assert rel <= 1e-6


class TestObjective:
    def test_hand_value_l12(self):
        # 0.325 + 0.1 ((0.7) - 0.5) = 0.345
        inst = hand_instance([1.0, 0.0])
        got = objective(inst, L1MinusL2(0.1), np.array([0.3, 0.4]))
        assert got == pytest.approx(0.345, abs=1e-12)

    def test_hand_value_log(self):
        # perfect fit, so only the penalty remains: 0.5 log(1 + 1/0.5)
        inst = hand_instance([1.0, 0.0])
        got = objective(inst, LogPenalty(0.5, 0.5), np.array([1.0, 0.0]))
        assert got == pytest.approx(0.5 * math.log(3.0), abs=1e-12)

    def test_zero_at_origin_means_half_b_norm(self):
        inst = generate_instance(9, 20, 3, seed=8)
        got = objective(inst, L1MinusL2(0.3), np.zeros(20))
        assert got == pytest.approx(0.5 * float(inst.b @ inst.b), abs=1e-15)


class TestLambdaBound:
    def test_zero_for_zero_b(self):
        inst = hand_instance([0.0, 0.0])
        assert l12_lambda_bound(inst) == 0.0

    def test_hand_value_identity(self):
        # 0.5 ||A^T b||_inf = 0.5 * 6
        inst = hand_instance([2.0, -6.0])
        assert l12_lambda_bound(inst) == pytest.approx(3.0, abs=1e-15)

    def test_desk_instances_admit_table_weights(self):
        inst = generate_instance(100, 300, 10, seed=0)
        assert l12_lambda_bound(inst) > 5e-4


class TestContainer:
    def test_roundtrip_bitwise(self, tmp_path):
        inst = generate_instance(13, 29, 4, noise_scale=0.05, seed=123)
        path = tmp_path / "inst.dcin"
        save_instance(inst, str(path))
        back = load_instance(str(path))
        assert np.array_equal(back.A, inst.A)
        assert np.array_equal(back.b, inst.b)
        assert np.array_equal(back.ground_truth, inst.ground_truth)
        assert np.array_equal(back.support, inst.support)
        assert back.seed == inst.seed
        assert back.noise_scale == inst.noise_scale

    def test_largest_seed_roundtrips(self, tmp_path):
        inst = generate_instance(5, 7, 2, seed=(1 << 64) - 1)
        save_instance(inst, str(tmp_path / "inst.dcin"))
        assert load_instance(str(tmp_path / "inst.dcin")).seed == (1 << 64) - 1

    def test_rejects_bad_magic(self, tmp_path):
        inst = generate_instance(5, 9, 2, seed=1)
        path = tmp_path / "inst.dcin"
        save_instance(inst, str(path))
        raw = path.read_bytes()
        bad = tmp_path / "bad.dcin"
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(ValueError, match="magic"):
            load_instance(str(bad))

    def test_rejects_bad_version(self, tmp_path):
        inst = generate_instance(5, 9, 2, seed=1)
        path = tmp_path / "inst.dcin"
        save_instance(inst, str(path))
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        bad = tmp_path / "bad.dcin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_instance(str(bad))

    def test_rejects_truncation(self, tmp_path):
        inst = generate_instance(5, 9, 2, seed=1)
        path = tmp_path / "inst.dcin"
        save_instance(inst, str(path))
        raw = path.read_bytes()
        bad = tmp_path / "bad.dcin"
        bad.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="size"):
            load_instance(str(bad))

    def test_rejects_file_shorter_than_the_header(self, tmp_path):
        path = tmp_path / "bad.dcin"
        path.write_bytes(b"DCIN")
        with pytest.raises(ValueError, match="truncated container"):
            load_instance(str(path))

    def test_rejects_header_claiming_huge_shape_before_allocating(self, tmp_path):
        # m = n = 2^20 would be an 8 TiB A: the size check has to come first
        inst = generate_instance(5, 9, 2, seed=1)
        path = tmp_path / "inst.dcin"
        save_instance(inst, str(path))
        raw = bytearray(path.read_bytes()[:48])
        raw[8:16] = raw[16:24] = (1 << 20).to_bytes(8, "little")
        bad = tmp_path / "bad.dcin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="size 48 does not match header"):
            load_instance(str(bad))

    def test_short_read_is_truncated(self, tmp_path, monkeypatch):
        # a file that shrinks between the size check and the reads
        inst = generate_instance(5, 9, 2, seed=1)
        path = tmp_path / "inst.dcin"
        save_instance(inst, str(path))
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        fake_os = types.SimpleNamespace(fstat=lambda fd: types.SimpleNamespace(st_size=full))
        monkeypatch.setattr(instances, "os", fake_os)
        with pytest.raises(ValueError, match="truncated container"):
            load_instance(str(path))

    def test_loaded_instance_revalidates(self, tmp_path):
        # corrupt a payload byte inside A: the unit-norm check must catch it
        inst = generate_instance(5, 9, 2, seed=1)
        path = tmp_path / "inst.dcin"
        save_instance(inst, str(path))
        raw = bytearray(path.read_bytes())
        raw[48:56] = b"\x00" * 8  # first double of A, just past the 48-byte header
        bad = tmp_path / "bad.dcin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_instance(str(bad))


# Runs one instance call in a fresh process and prints the growth of its peak
# resident set (VmHWM) over its resident set just before the call (VmRSS), and
# the bytes of A. ru_maxrss would not do: a child of a large process such as
# the test runner starts with the parent's resident set as its ru_maxrss.
_PEAK_PROBE = """
import json, sys
import dcopt
def status_bytes(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key))
op, arg = sys.argv[1:]
if op == "generate-8cpus":  # as on an 8-CPU host: eight workers, this thread waits
    import os
    os.sched_getaffinity = lambda pid: set(range(8))
before = status_bytes("VmRSS:")
if op.startswith("generate"):
    inst = dcopt.generate_instance(*(int(p) for p in arg.split("x")), noise_scale=0.01, seed=4)
else:
    inst = dcopt.load_instance(arg)
print(json.dumps({"growth": status_bytes("VmHWM:") - before, "a_bytes": inst.A.nbytes}))
"""


def _peak_x_A(op: str, arg: str) -> float:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(dcopt.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _PEAK_PROBE, op, arg], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    probe = json.loads(out.stdout)
    assert probe["a_bytes"] == 1024 * 4096 * 8
    return probe["growth"] / probe["a_bytes"]


class TestPeakMemory:
    """Peak resident growth of one call in a fresh process, for a 32 MiB A."""

    def test_generate_peaks_near_A(self):
        assert _peak_x_A("generate", "1024x4096x40") <= 1.5

    def test_generate_on_8_cpus_peaks_near_A(self):
        # each worker draws with one 512 KiB scratch that the calling thread allocates
        assert _peak_x_A("generate-8cpus", "1024x4096x40") <= 1.5

    def test_load_peaks_near_A(self, tmp_path):
        path = tmp_path / "inst.dcin"
        save_instance(generate_instance(1024, 4096, 40, seed=4), str(path))
        assert _peak_x_A("load", str(path)) <= 1.2
