"""Penalty values, prox maps, subgradients, and the regularizer parsers.

Hand-derived numbers carry their derivation in a comment. Cross-checks go
through routes that share no code with the implementation: quadrature of the
penalty derivative, refining grid scans, and the dense prox oracle.
"""

from __future__ import annotations

import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcopt.regularizers import (
    MCP,
    SCAD,
    L1MinusL2,
    LogPenalty,
    RegularizerSpec,
    TransformedL1,
    _FAMILIES,
    _largest_cubic_root,
    full_prox,
    p1_prox,
    p2_subgrad,
    parse_reg,
    reg_value,
    soft_threshold,
)
from oracles import (
    fd_gradient,
    grid_min_1d,
    prox_objective,
    prox_oracle,
    simpson,
    textbook_p1_weight,
    textbook_p2_lipschitz,
    tl1_prox_three_roots,
)

SPECS = [
    L1MinusL2(0.8),
    LogPenalty(0.9, 0.4),
    MCP(0.7, 2.5),
    SCAD(0.6, 3.5),
    TransformedL1(0.5, 1.2),
]
SMOOTH_P2 = SPECS[1:]  # families whose P2 gradient has a Lipschitz constant

finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def total_penalty(spec, x):
    p1, p2 = reg_value(spec, np.atleast_1d(np.asarray(x, dtype=float)))
    return p1 - p2


class TestConstruction:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: L1MinusL2(-0.1),
            lambda: LogPenalty(1.0, 0.0),
            lambda: LogPenalty(-1.0, 0.5),
            lambda: MCP(1.0, 0.0),
            lambda: MCP(-1.0, 2.0),
            lambda: SCAD(1.0, 2.0),  # theta must exceed 2
            lambda: SCAD(1.0, -1.0),
            lambda: TransformedL1(1.0, 0.0),
            lambda: TransformedL1(-1.0, 1.0),
            lambda: L1MinusL2(math.nan),
            lambda: L1MinusL2(math.inf),
            lambda: LogPenalty(1.0, math.nan),
            lambda: MCP(math.nan, 2.0),
            lambda: MCP(1.0, math.inf),
            lambda: SCAD(1.0, math.nan),
            lambda: TransformedL1(1.0, math.inf),
            lambda: parse_reg("l1-l2:lambda=nan"),
            lambda: parse_reg("tl1:lambda=1e-3,a=inf"),
            # bool is a Real, and True would be read as 1.0
            lambda: L1MinusL2(True),
            lambda: MCP(1.0, True),
            lambda: parse_reg("l1-l2", True),
            lambda: parse_reg("log:eps=0.5", "1e-3"),
            lambda: parse_reg(None, 1e-3),
        ],
    )
    def test_invalid_parameters_raise(self, factory):
        with pytest.raises(ValueError):
            factory()

    def test_zero_weight_allowed(self):
        # degenerate but legal: the penalty vanishes identically
        for spec in (L1MinusL2(0.0), LogPenalty(0.0, 0.5), MCP(0.0, 2.0),
                     SCAD(0.0, 2.5), TransformedL1(0.0, 1.0)):
            x = np.array([1.0, -2.0])
            assert reg_value(spec, x) == (0.0, 0.0)
            assert np.array_equal(p1_prox(spec, x, 1.0), x)
            assert np.array_equal(p2_subgrad(spec, x), np.zeros(2))
            assert np.array_equal(full_prox(spec, x, 1.0), x)


class TestWeights:
    def test_p1_weight_hand_values(self):
        assert L1MinusL2(0.6).weight == 0.6
        assert LogPenalty(0.6, 0.25).weight == pytest.approx(2.4)  # lam/eps
        assert MCP(0.6, 3.0).weight == 0.6
        assert SCAD(0.6, 2.5).weight == 0.6
        # lam (a+1)/a = 0.6 * 1.5 / 0.5
        assert TransformedL1(0.6, 0.5).weight == pytest.approx(1.8)

    def test_p2_lipschitz_hand_values(self):
        assert textbook_p2_lipschitz(L1MinusL2(1.0)) is None  # kink at the origin
        assert textbook_p2_lipschitz(LogPenalty(1.0, 0.5)) == pytest.approx(4.0)  # lam/eps^2
        assert textbook_p2_lipschitz(MCP(1.0, 2.0)) == pytest.approx(0.5)  # 1/theta
        assert textbook_p2_lipschitz(SCAD(1.0, 3.0)) == pytest.approx(0.5)  # 1/(theta-1)
        # 2 lam (a+1)/a^2 = 2 * 1 * 2 / 1
        assert textbook_p2_lipschitz(TransformedL1(1.0, 1.0)) == pytest.approx(4.0)


class TestRegValue:
    def test_l1_minus_l2_hand(self):
        # ||x||_1 = 7, ||x||_2 = 5 for x = (3, 4)
        p1, p2 = reg_value(L1MinusL2(0.5), np.array([3.0, 4.0]))
        assert p1 == pytest.approx(3.5)
        assert p2 == pytest.approx(2.5)

    def test_log_hand(self):
        # total = lam log(1 + |x|/eps) = log 3 at lam=1, eps=0.5, x=1
        p1, p2 = reg_value(LogPenalty(1.0, 0.5), np.array([1.0]))
        assert p1 == pytest.approx(2.0)
        assert p1 - p2 == pytest.approx(math.log(3.0), abs=1e-12)

    def test_mcp_hand(self):
        # |x| >= theta lam: total = theta lam^2 / 2 = 1 at lam=1, theta=2
        p1, p2 = reg_value(MCP(1.0, 2.0), np.array([5.0]))
        assert p1 == pytest.approx(5.0)
        assert p1 - p2 == pytest.approx(1.0, abs=1e-12)

    def test_scad_hand(self):
        # lam < |x| <= theta lam: P2 = (|x|-lam)^2 / (2 (theta-1)) = 1/4
        p1, p2 = reg_value(SCAD(1.0, 3.0), np.array([2.0]))
        assert p1 == pytest.approx(2.0)
        assert p2 == pytest.approx(0.25, abs=1e-12)

    def test_tl1_hand(self):
        # total = lam (a+1) |x| / (a + |x|) = 1 at lam=a=x=1
        p1, p2 = reg_value(TransformedL1(1.0, 1.0), np.array([1.0]))
        assert p1 == pytest.approx(2.0)
        assert p1 - p2 == pytest.approx(1.0, abs=1e-12)

    def test_value_at_zero(self):
        z = np.zeros(3)
        for spec in SPECS:
            assert reg_value(spec, z) == (0.0, 0.0)

    def test_mcp_total_matches_quadrature(self):
        lam, theta = 0.8, 2.5
        spec = MCP(lam, theta)
        deriv = lambda u: lam * max(0.0, 1.0 - u / (theta * lam))
        for x in (0.5, 1.9, 2.0, 3.7):
            ref = simpson(deriv, 0.0, x)
            assert total_penalty(spec, [x]) == pytest.approx(ref, abs=1e-6)
            assert total_penalty(spec, [-x]) == pytest.approx(ref, abs=1e-6)

    def test_scad_total_matches_quadrature(self):
        lam, theta = 0.7, 3.5
        spec = SCAD(lam, theta)

        def deriv(u):
            if u <= lam:
                return lam
            return max(0.0, (theta * lam - u)) / (theta - 1.0)

        for x in (0.3, 1.2, 2.0, 4.0):
            ref = simpson(deriv, 0.0, x)
            assert total_penalty(spec, [x]) == pytest.approx(ref, abs=1e-6)

    def test_log_total_matches_quadrature(self):
        lam, eps = 0.9, 0.4
        spec = LogPenalty(lam, eps)
        deriv = lambda u: lam / (eps + u)
        for x in (0.2, 1.0, 6.0):
            ref = simpson(deriv, 0.0, x)
            assert total_penalty(spec, [x]) == pytest.approx(ref, abs=1e-8)

    def test_tl1_total_matches_quadrature(self):
        lam, a = 0.5, 1.2
        spec = TransformedL1(lam, a)
        deriv = lambda u: lam * a * (a + 1.0) / (a + u) ** 2
        for x in (0.3, 1.5, 8.0):
            ref = simpson(deriv, 0.0, x)
            assert total_penalty(spec, [x]) == pytest.approx(ref, abs=1e-8)

    def test_l12_closed_form(self, rng):
        spec = L1MinusL2(0.8)
        for _ in range(10):
            x = rng.standard_normal(5) * 3.0
            want = 0.8 * (np.abs(x).sum() - np.linalg.norm(x))
            assert total_penalty(spec, x) == pytest.approx(want, abs=1e-12)


class TestSoftThreshold:
    def test_hand_values(self):
        z = np.array([3.0, -0.5, 0.0, -4.0])
        out = soft_threshold(z, 1.0)
        assert np.allclose(out, [2.0, 0.0, 0.0, -3.0])

    def test_zero_threshold_is_identity(self):
        z = np.array([1.5, -2.5])
        assert np.array_equal(soft_threshold(z, 0.0), z)


class TestP1Prox:
    def test_log_hand_example(self):
        # weight lam/eps = 2, mu = 1: soft threshold by 2
        out = p1_prox(LogPenalty(1.0, 0.5), np.array([5.0, -1.0]), 1.0)
        assert np.allclose(out, [3.0, 0.0])

    def test_l12_hand_example(self):
        # weight lam = 2, mu = 0.5: soft threshold by 1
        out = p1_prox(L1MinusL2(2.0), np.array([3.0, -3.0, 0.5]), 0.5)
        assert np.allclose(out, [2.0, -2.0, 0.0])

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    def test_solves_scalar_prox_problem(self, spec, rng):
        # independent route: refine-scan the scalar objective
        w = textbook_p1_weight(spec)
        for _ in range(5):
            z = float(rng.uniform(-4.0, 4.0))
            mu = float(rng.uniform(0.2, 2.0))
            got = float(p1_prox(spec, np.array([z]), mu)[0])
            ref = grid_min_1d(
                lambda u: 0.5 * (u - z) ** 2 + mu * w * abs(u),
                -abs(z) - 1.0, abs(z) + 1.0,
            )
            assert got == pytest.approx(ref, abs=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu", [math.nan, math.inf, 0.0, -1.0, True, 5e-324,
                                    np.float32(1e-40), np.float16(1e-5)])
    def test_step_must_be_positive_and_finite(self, mu):
        # mu = nan soft-thresholded every entry to NaN
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            p1_prox(L1MinusL2(0.1), np.array([1.0, -0.5, 0.0]), mu)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    @given(z1=finite_floats, z2=finite_floats)
    def test_nonexpansive(self, spec, z1, z2):
        a = p1_prox(spec, np.array([z1]), 0.7)
        b = p1_prox(spec, np.array([z2]), 0.7)
        assert abs(float(a[0] - b[0])) <= abs(z1 - z2) + 1e-12


class TestP2Subgrad:
    def test_l12_hand(self):
        out = p2_subgrad(L1MinusL2(2.0), np.array([3.0, 4.0]))
        assert np.allclose(out, [1.2, 1.6])  # lam x / ||x||
        assert np.array_equal(p2_subgrad(L1MinusL2(2.0), np.zeros(3)), np.zeros(3))

    def test_mcp_hand(self):
        # lam sign(x) min(1, |x|/(theta lam)) at lam=1, theta=2
        out = p2_subgrad(MCP(1.0, 2.0), np.array([1.0, -5.0]))
        assert np.allclose(out, [0.5, -1.0])

    def test_scad_hand(self):
        # sign(x) [min(theta lam, |x|) - lam]_+ / (theta - 1) at lam=1, theta=3
        spec = SCAD(1.0, 3.0)
        out = p2_subgrad(spec, np.array([2.0, 0.5, -4.0]))
        assert np.allclose(out, [0.5, 0.0, -1.0])

    def test_log_hand(self):
        # lam x / (eps (|x| + eps)) at lam=1, eps=0.5, x=0.5
        out = p2_subgrad(LogPenalty(1.0, 0.5), np.array([0.5]))
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_tl1_hand(self):
        # lam (a+1) sign(x) (1/a - a/(a+|x|)^2) = 2 (1 - 1/4) at lam=a=x=1
        out = p2_subgrad(TransformedL1(1.0, 1.0), np.array([1.0]))
        assert out[0] == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("spec", SMOOTH_P2, ids=lambda s: type(s).__name__)
    def test_matches_p2_finite_differences(self, spec, rng):
        # away from the origin P2 is smooth; central differences agree
        p2_of = lambda x: reg_value(spec, x)[1]
        for _ in range(5):
            x = rng.uniform(0.3, 4.0, size=4) * rng.choice([-1.0, 1.0], size=4)
            got = p2_subgrad(spec, x)
            ref = fd_gradient(p2_of, x, h=1e-6)
            assert np.allclose(got, ref, atol=2e-6)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    @given(data=st.data())
    def test_subgradient_inequality(self, spec, data):
        # P2 convex: P2(y) >= P2(x) + <xi, y - x>
        dim = 3
        x = np.array([data.draw(finite_floats) for _ in range(dim)])
        y = np.array([data.draw(finite_floats) for _ in range(dim)])
        xi = p2_subgrad(spec, x)
        p2x = reg_value(spec, x)[1]
        p2y = reg_value(spec, y)[1]
        assert p2y - p2x - float(xi @ (y - x)) >= -1e-10

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    @given(data=st.data())
    def test_p2_midpoint_convexity(self, spec, data):
        dim = 3
        x = np.array([data.draw(finite_floats) for _ in range(dim)])
        y = np.array([data.draw(finite_floats) for _ in range(dim)])
        mid = reg_value(spec, (x + y) / 2.0)[1]
        avg = (reg_value(spec, x)[1] + reg_value(spec, y)[1]) / 2.0
        assert mid <= avg + 1e-10

    @pytest.mark.parametrize("spec", SMOOTH_P2, ids=lambda s: type(s).__name__)
    def test_lipschitz_bound(self, spec, rng):
        lip = textbook_p2_lipschitz(spec)
        for _ in range(200):
            x = rng.uniform(-8.0, 8.0, size=4)
            y = rng.uniform(-8.0, 8.0, size=4)
            lhs = float(np.linalg.norm(p2_subgrad(spec, x) - p2_subgrad(spec, y)))
            assert lhs <= lip * float(np.linalg.norm(x - y)) + 1e-10


class TestFullProx:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("L_t", [math.nan, math.inf, 0.0, -1.0, True, 5e-324])
    def test_step_must_be_positive_and_finite(self, spec, L_t):
        # L_t = nan made l1-l2 take its 1-sparse branch, and MCP and TL1 warn
        # before they raise
        with pytest.raises(ValueError, match="L_t must be positive and finite"):
            full_prox(spec, np.array([1.0, -0.5, 0.0]), L_t)

    def test_l12_scalar_is_identity(self):
        # in one dimension the l1 and l2 norms coincide, the penalty vanishes
        for z in (0.0, 0.3, -7.0):
            out = full_prox(L1MinusL2(1.5), np.array([z]), 2.0)
            assert out[0] == pytest.approx(z, abs=1e-12)

    def test_l12_large_z_hand(self):
        # ||z||_inf > lam/L: shift the soft-thresholded point outward
        out = full_prox(L1MinusL2(1.0), np.array([3.0, 0.0]), 1.0)
        assert np.allclose(out, [3.0, 0.0], atol=1e-12)

    def test_l12_small_z_is_one_sparse(self):
        # ||z||_inf <= lam/L: keep only the largest coordinate
        out = full_prox(L1MinusL2(1.0), np.array([0.5, 0.3]), 1.0)
        assert np.allclose(out, [0.5, 0.0], atol=1e-12)

    def test_mcp_flat_region_identity(self):
        # beyond theta lam the penalty is constant, so the prox is z itself
        out = full_prox(MCP(1.0, 2.0), np.array([5.0]), 1.0)
        assert out[0] == pytest.approx(5.0, abs=1e-12)

    def test_mcp_interior_hand(self):
        # candidates at lam=1, theta=2, L=1, z=1.5: phi(1) = 0.875 beats
        # phi(0) = 1.125, interior stationary point (z - lam)/(1 - 1/theta)
        out = full_prox(MCP(1.0, 2.0), np.array([1.5]), 1.0)
        assert out[0] == pytest.approx(1.0, abs=1e-10)

    def test_mcp_small_z_snaps_to_zero(self):
        out = full_prox(MCP(1.0, 2.0), np.array([0.5]), 1.0)
        assert out[0] == 0.0

    def test_scad_flat_region_identity(self):
        out = full_prox(SCAD(1.0, 3.0), np.array([10.0]), 1.0)
        assert out[0] == pytest.approx(10.0, abs=1e-12)

    def test_log_zero_is_fixed_point(self):
        out = full_prox(LogPenalty(1.0, 0.5), np.zeros(2), 1.0)
        assert np.array_equal(out, np.zeros(2))

    def test_sign_symmetry(self, rng):
        for spec in SPECS:
            z = rng.uniform(0.1, 5.0, size=4)
            plus = full_prox(spec, z, 1.3)
            minus = full_prox(spec, -z, 1.3)
            assert np.allclose(plus, -minus, atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            full_prox(MCP(1.0, 2.0), np.array([np.nan]), 1.0)
        with pytest.raises(ValueError):
            full_prox(MCP(1.0, 2.0), np.array([np.inf]), 1.0)

    def test_rejects_a_non_finite_candidate(self):
        class NanProx(MCP):
            def prox(self, z, ell):
                return np.full_like(z, np.nan)

        with pytest.raises(ValueError, match="full_prox produced a non-finite candidate"):
            full_prox(NanProx(1.0, 2.0), np.ones(2), 1.0)

    @pytest.mark.parametrize("spec", SMOOTH_P2, ids=lambda s: type(s).__name__)
    def test_huge_entries_return_z_without_overflow(self, spec):
        # the minimizer lies within w/ell of |z_i|, far below one ulp here; the
        # candidates used to overflow there (TL1 cubes |z_i|, the origin's
        # objective squares it), leaving 0 for TL1 and log
        z = np.array([2e154, 1.0, -1e103, -1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = full_prox(spec, z, 1.0)
        assert np.array_equal(got[[0, 2, 3]], z[[0, 2, 3]])
        assert got[1] == full_prox(spec, z[1:2], 1.0)[0]
        # no warning either from 1e40 up (TL1's discriminant overflows from about
        # 1e51), and each result in [|z| - w/ell, |z|]
        z = np.concatenate([np.logspace(40, 100, 121), -np.logspace(40, 100, 121)])
        az = np.abs(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ell in (1e-3, 1.0, 1e3):
                got = full_prox(spec, z, ell)
                assert np.array_equal(np.sign(got), np.sign(z))
                lo = az - spec.weight / ell
                assert np.all((np.abs(got) >= lo) & (np.abs(got) <= az))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    def test_zero_d_input_gives_zero_d_result(self, spec):
        for z in (np.float64(0.7), -2.5, np.array(0.0)):
            got = full_prox(spec, z, 1.3)
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert np.array_equal(got, full_prox(spec, np.array([z]), 1.3)[0])

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    def test_objective_dominates_anchors(self, spec, rng):
        # the prox objective at the returned point never exceeds the
        # objective at 0 or at z
        for _ in range(20):
            z = rng.standard_normal(3) * rng.uniform(0.1, 5.0)
            ell = float(rng.uniform(0.05, 20.0))
            got = prox_objective(spec, z, ell, full_prox(spec, z, ell))
            assert got <= prox_objective(spec, z, ell, np.zeros(3)) + 1e-12
            assert got <= prox_objective(spec, z, ell, z) + 1e-12

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    def test_scalar_matches_grid_scan(self, spec, rng):
        # third route: refine-scan the full scalar prox objective
        for _ in range(4):
            z = float(rng.uniform(-4.0, 4.0))
            ell = float(rng.uniform(0.3, 3.0))
            got = prox_objective(spec, np.array([z]), ell,
                                 full_prox(spec, np.array([z]), ell))
            u_ref = grid_min_1d(
                lambda u: prox_objective(spec, np.array([z]), ell, np.array([u])),
                -abs(z) - 2.0, abs(z) + 2.0,
            )
            ref = prox_objective(spec, np.array([z]), ell, np.array([u_ref]))
            assert got <= ref + 1e-8

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    def test_matches_dense_oracle_scalar(self, spec, rng):
        for _ in range(40):
            z = np.array([float(rng.standard_normal() * rng.uniform(0.1, 8.0))])
            ell = float(10.0 ** rng.uniform(-1.5, 1.5))
            closed = prox_objective(spec, z, ell, full_prox(spec, z, ell))
            scanned = prox_objective(spec, z, ell, prox_oracle(spec, z, ell)[0])
            assert closed <= scanned + 1e-6

    def test_matches_dense_oracle_2d(self, rng):
        for _ in range(8):
            lam = float(10.0 ** rng.uniform(-2.0, 0.3))
            spec = L1MinusL2(lam)
            z = rng.standard_normal(2) * rng.uniform(0.1, 4.0)
            ell = float(10.0 ** rng.uniform(-1.0, 1.0))
            closed = prox_objective(spec, z, ell, full_prox(spec, z, ell))
            scanned = prox_objective(spec, z, ell, prox_oracle(spec, z, ell)[0])
            assert closed <= scanned + 1e-6


class TestProxOracle:
    def test_returns_result_with_gap(self):
        point, gap = prox_oracle(MCP(1.0, 2.0), np.array([1.5]), 1.0)
        assert gap >= 0.0
        assert np.all(np.isfinite(point))

    def test_never_worse_than_anchors(self, rng):
        # 0 and z are evaluated exactly, so the scan cannot lose to them
        for spec in SPECS:
            z = rng.standard_normal(1) * 3.0
            ell = 0.7
            got = prox_objective(spec, z, ell, prox_oracle(spec, z, ell)[0])
            assert got <= prox_objective(spec, z, ell, np.zeros(1)) + 1e-15
            assert got <= prox_objective(spec, z, ell, z) + 1e-15


class TestProxObjective:
    def test_hand_value(self):
        # 0.5 * 2 * ((1-3)^2 + 1) + (2 - sqrt 2) at lam=1
        got = prox_objective(L1MinusL2(1.0), np.array([3.0, 0.0]), 2.0,
                             np.array([1.0, 1.0]))
        assert got == pytest.approx(7.0 - math.sqrt(2.0), abs=1e-12)


class TestSelectCandidate:
    """RegularizerSpec.prox at ell = 1 with a zero penalty: phi(u) = 0.5 (u - |z|)^2
    over the origin and the given candidates."""

    @staticmethod
    def select(z, *cands):
        # a stub, not a subclass: subclasses join the family registry check;
        # weight is the steepest slope of its zero penalty
        stub = types.SimpleNamespace(candidates=lambda az, ell: cands, penalty=np.zeros_like,
                                     weight=0.0)
        return RegularizerSpec.prox(stub, np.array([z]), 1.0)[0]

    def test_tie_goes_to_smaller_magnitude(self):
        assert self.select(0.0, np.array([1e-13])) == 0.0

    def test_invalid_candidates_are_skipped(self):
        assert self.select(2.0, np.array([np.nan])) == 0.0

    def test_picks_minimum(self):
        assert self.select(2.0, np.array([2.0])) == 2.0


@pytest.mark.parametrize("spec", SMOOTH_P2, ids=lambda s: type(s).__name__)
def test_candidates_are_nan_or_positive(spec, rng):
    # ell = 0.4 is MCP's 1/theta and SCAD's 1/(theta - 1) for SPECS, where a
    # candidate formula divides by zero
    az = np.concatenate([[0.0], rng.uniform(0.0, 5.0, 300)])
    for ell in (1e-3, 0.4, 0.9, 3.0, 1e3):
        for row in np.broadcast_arrays(az, *spec.candidates(az, ell))[1:]:
            assert np.all(np.isnan(row) | (np.isfinite(row) & (row > 0.0)))


class TestCubicRoots:
    """_largest_cubic_root, the TL1 prox candidate."""

    def test_known_triple(self):
        # (u-1)(u-2)(u-3) = u^3 - 6u^2 + 11u - 6
        root = _largest_cubic_root(np.array([-6.0]), np.array([11.0]), np.array([-6.0]))
        assert root[0] == pytest.approx(3.0, abs=1e-12)

    def test_single_real_root(self):
        # u^3 = 1 and (u - 2)(u^2 + 1) = u^3 - 2u^2 + u - 2 have one real root each
        root = _largest_cubic_root(np.array([0.0, -2.0]), np.array([0.0, 1.0]),
                                   np.array([-1.0, -2.0]))
        assert root == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_random_coefficients_satisfy_equation(self, rng):
        # and the root is the largest real one
        b2, b1, b0 = rng.uniform(-5.0, 5.0, size=(3, 50))
        root = _largest_cubic_root(b2, b1, b0)
        res = root**3 + b2 * root**2 + b1 * root + b0
        assert np.all(np.abs(res) <= 1e-7 * (1.0 + np.abs(root) ** 3))
        for k in range(50):
            # numpy's companion-matrix eigenvalues, an independent route
            ref = np.roots([1.0, b2[k], b1[k], b0[k]])
            assert root[k] == pytest.approx(ref[np.abs(ref.imag) < 1e-6].real.max(), abs=1e-6)


def _tl1_threshold(spec, ell):
    """Zhang & Xin's zero threshold of the scaled TL1 prox, lam' = lam / ell."""
    lam, a = spec.lam / ell, spec.a
    if lam <= a**2 / (2.0 * (a + 1.0)):
        return lam * (a + 1.0) / a
    return math.sqrt(2.0 * lam * (a + 1.0)) - a / 2.0


def _tl1_specs():
    """(spec, ell) pairs over ell in 1e-3 ... 1e3, each on both sides of
    lam / ell = a^2 / (2 (a+1)), where the threshold changes formula."""
    cases = []
    for a in (0.3, 1.0, 4.0):
        knee = a**2 / (2.0 * (a + 1.0))
        for ell in np.logspace(-3.0, 3.0, 7):
            for factor in (0.2, 0.999, 1.001, 5.0):
                cases.append((TransformedL1(factor * knee * ell, a), float(ell)))
    return cases


class TestTL1ProxAgainstThreeRoots:
    """full_prox keeps only the largest cubic root above the zero threshold and
    clips it to [|z| - w/ell, |z|], where the minimizer lies; it must return the
    bits of the prox that scores all three roots, or the clipped endpoint where
    that prox lands outside the interval."""

    @staticmethod
    def clipped(spec, z, ell):
        ref = tl1_prox_three_roots(spec, z, ell)
        az, aref = np.abs(z), np.abs(ref)
        lo = az - spec.weight / ell
        outside = (ref != 0.0) & ((aref < lo) | (aref > az))
        return np.where(outside, np.sign(z) * np.clip(aref, lo, az), ref)

    @staticmethod
    def inputs(t):
        tiny = [0.0, -0.0, 5e-324, -5e-324]
        grid = np.logspace(-3.0, 100.0, 1031)
        band = t * (1.0 + np.linspace(-3e-6, 3e-6, 25))
        z = np.concatenate([tiny, grid, -grid, band, -band])
        return np.concatenate([z, np.random.default_rng(3).permutation(z)])

    @pytest.mark.parametrize("spec, ell", _tl1_specs())
    def test_bit_identical(self, spec, ell):
        z = self.inputs(_tl1_threshold(spec, ell))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = full_prox(spec, z, ell)
        ref = self.clipped(spec, z, ell)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("spec, ell", _tl1_specs()[::5])
    def test_zero_d_and_empty(self, spec, ell):
        for z in (0.0, -0.0, 0.37, -12.5, 3e60):
            got = full_prox(spec, np.float64(z), ell)
            ref = self.clipped(spec, np.array([z]), ell)
            assert got.shape == () and got.tobytes() == ref.tobytes()
        assert full_prox(spec, np.zeros(0), ell).shape == (0,)

    @pytest.mark.parametrize("spec, ell", _tl1_specs()[::3])
    def test_below_threshold_is_signed_zero(self, spec, ell):
        t = _tl1_threshold(spec, ell)
        z = t * (1.0 - 1e-6) * np.linspace(-1.0, 1.0, 401)
        got = full_prox(spec, z, ell)
        assert np.all(got == 0.0)
        assert np.array_equal(np.signbit(got), np.signbit(z))
        assert np.array_equal(got, tl1_prox_three_roots(spec, z, ell))


class TestParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("l1-l2:lambda=5e-4", L1MinusL2(5e-4)),
            ("log:lambda=1e-3,eps=0.5", LogPenalty(1e-3, 0.5)),
            ("mcp:lambda=0.1,theta=5", MCP(0.1, 5.0)),
            ("scad:lambda=0.1,theta=3.7", SCAD(0.1, 3.7)),
            ("tl1:lambda=0.1,a=1", TransformedL1(0.1, 1.0)),
            ("log: Lambda = 1e-3 , EPS = 0.5", LogPenalty(1e-3, 0.5)),  # keys in any case
        ],
    )
    def test_parse_reg_roundtrip(self, text, expected):
        assert parse_reg(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "huh:lambda=1",
            "l1-l2",
            "l1-l2:lam=1",
            "log:lambda=1",
            "mcp:lambda=1,theta=2,a=3",
            "l1-l2:lambda=xyz",
            "scad:lambda=1,theta=2",
            "l1-l2:lambda=1,lambda=2",
            "log:lambda=1,eps",
            "log:lambda=1,eps=0.5,",
        ],
    )
    def test_parse_reg_rejects(self, text):
        with pytest.raises(ValueError):
            parse_reg(text)

    def test_parse_reg_takes_lambda_from_lam(self):
        # a plan's reg names the shape parameters; the weight comes from lam
        assert parse_reg("mcp:theta=2.5", 0.1) == MCP(0.1, 2.5)
        assert parse_reg(" l1-l2 ", 0.25) == L1MinusL2(0.25)
        assert parse_reg("log:EPS=0.5", 1e-3) == parse_reg("log:eps=0.5", 1e-3)
        with pytest.raises(ValueError, match="lambda comes from the plan's lambdas"):
            parse_reg("log:lambda=1e-3,eps=0.5", 1e-3)
        with pytest.raises(ValueError, match="lam"):
            parse_reg("log:eps=0.5", -1e-3)

    def test_parse_reg_names_the_key_and_token(self):
        # float()'s own message names neither the key nor the spec
        with pytest.raises(ValueError, match="^reg 'log' key 'lambda': 'abc' is not a number$"):
            parse_reg("log:lambda=abc,eps=0.5")

    def test_parse_reg_unknown_family(self):
        with pytest.raises(ValueError, match="unknown regularizer family 'nope'"):
            parse_reg("nope:eps=1", 1e-3)

    def test_parse_reg_maps_cli_names(self):
        assert parse_reg("log:eps=0.5", 1e-3) == LogPenalty(1e-3, 0.5)
        assert parse_reg("tl1:a=0.7", 0.2) == TransformedL1(0.2, 0.7)

    def test_registry_lists_every_family(self):
        # a family class missing from the registry cannot be parsed
        assert set(_FAMILIES.values()) == set(RegularizerSpec.__subclasses__())
        assert all(_FAMILIES[cls.name] is cls for cls in _FAMILIES.values())

    def test_parse_reg_rejects_missing_or_foreign_keys(self):
        with pytest.raises(ValueError, match=r"missing keys \['theta'\]"):
            parse_reg("mcp:", 0.1)
        with pytest.raises(ValueError, match="key 'eps' is unknown"):
            parse_reg("l1-l2:eps=1.0", 0.1)
