import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_pointset
from discrepkit import l2
from discrepkit import (HeinrichArray, PointSet, WeightedPointSet, extreme_l2,
                        extreme_l2_sq, halton, heinrich_D, modified_l2_sq, star_l2,
                        star_l2_sq_fast, warnock_star_l2_sq,
                        warnock_star_l2_sq_stable, weighted_star_l2_sq)


class TestWarnock:
    def test_midpoint_1d(self):
        # integral of the squared local discrepancy of {1/2}: 1/12
        assert warnock_star_l2_sq(PointSet([0.5], d=1)) == pytest.approx(1 / 12, abs=1e-15)

    def test_origin_1d(self):
        assert warnock_star_l2_sq(PointSet([0.0], d=1)) == pytest.approx(1 / 3, abs=1e-15)

    def test_origin_2d(self):
        assert warnock_star_l2_sq(PointSet([[0.0, 0.0]])) == pytest.approx(11 / 18, abs=1e-15)

    def test_matches_exact_1d_integral(self, rng):
        for n in (1, 2, 5, 9, 17):
            X = random_pointset(rng, n, 1)
            want = oracles.lp_star_pow_1d(X.points, 2)
            assert warnock_star_l2_sq(X) == pytest.approx(want, rel=1e-11, abs=1e-14)

    def test_sqrt_wrapper(self):
        X = PointSet([0.5], d=1)
        assert star_l2(X) == pytest.approx((1 / 12) ** 0.5, abs=1e-15)

    @given(st.integers(1, 30), st.integers(1, 5), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = PointSet(rng.random((n, d)))
        assert warnock_star_l2_sq(X) >= -1e-12


class TestWarnockStable:
    def test_analytic_values(self):
        assert warnock_star_l2_sq_stable(PointSet([0.5], d=1)) == pytest.approx(1 / 12, abs=1e-15)
        assert warnock_star_l2_sq_stable(PointSet([0.0], d=1)) == pytest.approx(1 / 3, abs=1e-15)

    def test_agrees_with_plain_small(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 65))
            d = int(rng.integers(1, 9))
            X = random_pointset(rng, n, d)
            assert warnock_star_l2_sq_stable(X) == warnock_star_l2_sq(X)

    @pytest.mark.parametrize("f", [warnock_star_l2_sq, warnock_star_l2_sq_stable])
    def test_matches_longdouble_reference(self, f):
        # 1e-12 separates the plain formula (1.1e-13 off on this set) from
        # Warnock's mean-subtracted rearrangement (1.1e-11 off)
        X = halton(4096, 4)
        want = float(oracles.warnock_star_l2_sq_longdouble(X.points))
        assert f(X) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_error_vs_high_precision_not_worse(self, rng):
        # extended-precision reference via exact fraction arithmetic on a
        # modest instance where cancellation already bites
        from fractions import Fraction
        n, d = 160, 6
        pts = rng.integers(1, 2 ** 20, size=(n, d)) / float(2 ** 20)
        X = PointSet(pts)
        F = [[Fraction(c).limit_denominator(2 ** 20) for c in row] for row in pts]
        t2 = sum(np.prod([1 - f * f for f in row]) for row in F)
        t3 = Fraction(0)
        for i in range(n):
            for j in range(n):
                term = Fraction(1)
                for k in range(d):
                    term *= min(1 - F[i][k], 1 - F[j][k])
                t3 += term
        exact = Fraction(3) ** -d - Fraction(2) ** (1 - d) / n * t2 + t3 / n ** 2
        exact = float(exact)
        for f in (warnock_star_l2_sq, warnock_star_l2_sq_stable):
            assert f(X) == pytest.approx(exact, rel=1e-13, abs=0.0)


class TestExtremeL2:
    def test_midpoint_1d(self):
        assert extreme_l2_sq(PointSet([0.5], d=1)) == pytest.approx(1 / 12, abs=1e-15)

    def test_origin_1d_matches_piecewise_integral(self):
        X = PointSet([0.0], d=1)
        want = oracles.extreme_l2_sq_1d([0.0])
        assert extreme_l2_sq(X) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_random_1d_matches_piecewise_integral(self, rng):
        for n in (1, 3, 6, 11):
            X = random_pointset(rng, n, 1)
            want = oracles.extreme_l2_sq_1d(X.points[:, 0])
            assert extreme_l2_sq(X) == pytest.approx(want, rel=1e-11, abs=1e-14)

    @given(st.integers(1, 20), st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = PointSet(rng.random((n, d)))
        assert extreme_l2_sq(X) >= -1e-12
        assert extreme_l2(X) >= 0.0


class TestWeightedL2:
    def test_origin_unit_weight(self):
        assert weighted_star_l2_sq(PointSet([0.0], d=1), [1.0]) == pytest.approx(1 / 3, abs=1e-15)

    def test_midpoint_unit_weight(self):
        assert weighted_star_l2_sq(PointSet([0.5], d=1), [1.0]) == pytest.approx(1 / 12, abs=1e-15)

    def test_zero_weights_vanish(self, rng):
        X = random_pointset(rng, 9, 3)
        assert weighted_star_l2_sq(X, [0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-14)

    def test_weight_validation(self, rng):
        X = random_pointset(rng, 4, 2)
        with pytest.raises(ValueError):
            weighted_star_l2_sq(X, [0.5, 1.0])  # increasing
        with pytest.raises(ValueError):
            weighted_star_l2_sq(X, [1.0, -0.1])

    def test_expands_to_projection_sum(self, rng):
        # sum over nonempty subsets u of (prod gamma_j^2) d2*(X_u)^2
        import itertools
        X = random_pointset(rng, 6, 3)
        g = np.array([0.9, 0.6, 0.3])
        want = 0.0
        for r in range(1, 4):
            for u in itertools.combinations(range(3), r):
                w2 = np.prod(g[list(u)] ** 2)
                want += w2 * warnock_star_l2_sq(X.project(u))
        got = weighted_star_l2_sq(X, g)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-14)

    def test_matches_extended_precision_closed_form(self):
        # the constant term prod(1 + g^2/3) must be formed in extended
        # precision too: rounded in double first, it is off by 1.3e-10
        # relative on this set
        X = halton(4096, 4)
        want = float(oracles.weighted_star_l2_sq_ext(X.points, np.ones(4)))
        assert modified_l2_sq(X) == pytest.approx(want, rel=1e-12, abs=0.0)
        g = np.array([1.0, 0.7, 0.4, 0.2])
        want = float(oracles.weighted_star_l2_sq_ext(X.points, g))
        assert weighted_star_l2_sq(X, g) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_modified_is_unit_weight_case(self, rng):
        X = random_pointset(rng, 7, 3)
        assert modified_l2_sq(X) == pytest.approx(
            weighted_star_l2_sq(X, np.ones(3)), rel=1e-13)


class TestPairBlocks:
    """Small blocks make sets of up to 300 points span 2 to 37 blocks, most
    with a ragged last block; every direct formula keeps its one-block value."""

    FORMULAS = (warnock_star_l2_sq, warnock_star_l2_sq_stable, extreme_l2_sq,
                lambda X: weighted_star_l2_sq(X, 0.8 ** np.arange(X.d)),
                modified_l2_sq)

    @pytest.mark.parametrize("n, d, elems", [(2, 3, 1), (37, 2, 100), (100, 4, 700),
                                             (257, 5, 2000), (300, 8, 4000)])
    def test_block_boundaries_keep_values(self, monkeypatch, n, d, elems):
        X = PointSet(np.random.default_rng(n * d).random((n, d)))
        whole = [f(X) for f in self.FORMULAS]
        monkeypatch.setattr(l2, "_BLOCK_ELEMS", elems)
        assert n > max(1, elems // n)  # more than one block
        blocked = [f(X) for f in self.FORMULAS]
        for a, b in zip(blocked, whole):
            assert a == pytest.approx(b, rel=1e-14, abs=0.0)


class TestHeinrichD:
    def test_dimension_zero(self):
        A = HeinrichArray([2.0, 3.0], [[0.1], [0.2]])
        B = HeinrichArray([5.0], [[0.3]])
        assert heinrich_D(A, B, 0) == 25.0

    def test_d1_small(self):
        A = HeinrichArray([1.0], [[0.5]])
        B = HeinrichArray([1.0, 1.0], [[0.25], [0.75]])
        assert heinrich_D(A, B, 1) == pytest.approx(0.75, abs=1e-15)

    def test_empty_b(self):
        A = HeinrichArray([1.0], [[0.5]])
        B = HeinrichArray([], None, dim=1)
        assert heinrich_D(A, B, 1) == 0.0

    def test_negative_dimension(self):
        A = HeinrichArray([1.0], [[0.5]])
        with pytest.raises(ValueError):
            heinrich_D(A, A, -1)

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError, match="finite"):
            HeinrichArray([1.0, 1.0], [[0.5], [np.nan]])
        with pytest.raises(ValueError, match="finite"):
            HeinrichArray([np.inf], [[0.5]])

    @given(st.integers(0, 40), st.integers(1, 40), st.integers(0, 4),
           st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_double_sum(self, m, n, d, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=n)
        w = rng.normal(size=m)
        Y = rng.random((n, max(d, 1)))
        Z = rng.random((m, max(d, 1)))
        A = HeinrichArray(v, Y)
        B = HeinrichArray(w, Z) if m else HeinrichArray([], None, dim=max(d, 1))
        # a leaf of one pair exercises the recursion all the way down
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(l2, "_LEAF", 1)
            got = heinrich_D(A, B, d)
        want = oracles.direct_heinrich(v, Y, w, Z, d)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_random_32_points_d3(self, rng, monkeypatch):
        v = rng.normal(size=32)
        w = rng.normal(size=32)
        Y = rng.random((32, 3))
        Z = rng.random((32, 3))
        monkeypatch.setattr(l2, "_LEAF", 1)
        got = heinrich_D(HeinrichArray(v, Y), HeinrichArray(w, Z), 3)
        want = oracles.direct_heinrich(v, Y, w, Z, 3)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestFastStarL2:
    def test_single_point(self):
        Q = WeightedPointSet([1.0], [[0.5]])
        assert star_l2_sq_fast(Q) == pytest.approx(1 / 12, abs=1e-15)

    def test_equal_weights_match_warnock(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 200))
            d = int(rng.integers(1, 7))
            X = random_pointset(rng, n, d)
            fast = star_l2_sq_fast(WeightedPointSet.equal_weights(X))
            direct = warnock_star_l2_sq(X)
            assert fast == pytest.approx(direct, rel=1e-10, abs=1e-15)

    def test_zero_sum_weights_match_direct_formula(self, rng):
        n, d = 10, 2
        pts = rng.random((n, d))
        w = rng.normal(size=n)
        w -= w.mean()  # weights summing to zero
        Q = WeightedPointSet(w, pts)
        got = star_l2_sq_fast(Q)
        one_minus = 1.0 - pts
        t2 = float(np.sum(w * np.prod(1.0 - pts ** 2, axis=1)))
        t3 = oracles.direct_heinrich(w, one_minus, w, one_minus, d)
        want = 3.0 ** (-d) - 2.0 ** (1 - d) * t2 + t3
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)
