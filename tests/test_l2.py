import tracemalloc
from fractions import Fraction

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


def _as_fraction(x):
    """Exact value of an ``np.longdouble`` (or double) as a Fraction."""
    m, e = np.frexp(np.longdouble(x))
    return Fraction(int(m * np.longdouble(2) ** 64)) * Fraction(2) ** (int(e) - 64)


def _acc_ulps(U, g=None):
    """Distance of ``l2._pair_sum`` of U, or of its factors U g + 1, from the
    exact sum of the same double products, in units in the last place of
    ``l2._ACC``."""
    got = l2._pair_sum(U if g is None else U * g + 1.0)
    return abs(_as_fraction(got) - oracles.exact_pair_sum(U, g)) / _as_fraction(np.spacing(got))


def _operands(X, d):
    """The pair-sum operands of Warnock, extreme, weighted and modified."""
    Z = np.stack([X, 1.0 - X], axis=2).reshape(X.shape[0], 2 * d)
    return [(1.0 - X, None), (Z, None), (1.0 - X, (0.8 ** np.arange(d)) ** 2),
            (1.0 - X, np.ones(d))]


def _kinds(rng, n, d):
    """Uniform points, four tied levels with zero among them, 30 % zero
    coordinates, and duplicated points."""
    zeros = rng.random((n, d))
    zeros[rng.random((n, d)) < 0.3] = 0.0
    half = rng.random(((n + 1) // 2, d))
    return [rng.random((n, d)), rng.choice([0.0, 0.25, 0.5, 0.75], size=(n, d)), zeros,
            np.vstack([half, half[::-1]])[:n]]


def _whole_block_pair_sum(U, v=None, g=None):
    """``l2._pair_sum`` written out: the same row bands, each block formed
    whole by broadcasting, per-pair factors 1 + g_k min(...), each block
    summed row by row in ``np.longdouble``, Neumaier across blocks."""
    n, d = U.shape
    step = max(1, l2._BLOCK_ELEMS // max(n, 1))
    total = err = np.longdouble(0.0)
    for s in range(0, n, step):
        e = min(s + step, n)
        for lo, hi in ((s, e), (e, n)) if e < n else ((s, e),):
            M = None
            for k in range(d):
                T = np.minimum(U[s:e, None, k], U[None, lo:hi, k])
                if g is not None:
                    T *= g[k]
                    T += 1.0
                M = T if M is None else M * T
            if v is not None:
                M = M * v[s:e, None] * v[lo:hi]
            x = np.sum(M, axis=1, dtype=np.longdouble).sum() * (2 if lo == e else 1)
            t = total + x
            if total:
                err += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
    return total + err


def _weighted_per_pair(X, gamma):
    """``weighted_star_l2_sq`` with the pair factors formed per pair."""
    n = X.shape[0]
    g2 = np.asarray(gamma, dtype=np.float64) ** 2
    t1 = np.prod(1.0 + np.asarray(g2, dtype=np.longdouble) / 3)
    t2 = np.sum(np.prod(1.0 + g2 * (1.0 - X * X) / 2.0, axis=1), dtype=np.longdouble)
    t3 = _whole_block_pair_sum(1.0 - X, g=g2)
    return float(t1 - np.longdouble(2.0) / n * t2 + t3 / (np.longdouble(n) * n))


class TestPairBlocks:
    """Small blocks make sets of up to 300 points span 2 to 37 blocks, most
    with a ragged last block; every direct formula keeps its one-block value.
    The symmetric kernel sums the diagonal block of each row band once and the
    block right of it twice, so it must also equal the exact sum over all
    ordered pairs of the same double products to the last bits of ``_ACC``."""

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

    # band edges: n = step - 1 and step (one band), step + 1 and 3 step + 1
    # (a last band of one row), for step = 8 and 64
    BANDS = [(7, 8), (8, 8), (9, 8), (25, 8), (63, 64), (64, 64), (65, 64), (193, 64)]

    @pytest.mark.parametrize("d", range(1, 9))
    def test_band_edges_within_two_ulps(self, monkeypatch, d):
        # 8 dimensions x 8 band shapes x 4 kinds: 256 sets, 1,024 sums
        rng = np.random.default_rng(4800 + d)
        for n, step in self.BANDS:
            monkeypatch.setattr(l2, "_BLOCK_ELEMS", n * step)
            for X in _kinds(rng, n, d):
                for U, g in _operands(X, d):
                    assert _acc_ulps(U, g) <= 2

    @pytest.mark.parametrize("d", [2, 4])
    def test_halton_4096_within_two_ulps(self, d):
        # 16 row bands at the default block size
        X = halton(4096, d).points
        for U, g in _operands(X, d):
            assert _acc_ulps(U, g) <= 2

    def test_default_bands_within_one_ulp(self):
        # 32 Warnock and weighted sums, each over 32 or 33 row bands
        rng = np.random.default_rng(4860)
        for d in range(1, 9):
            for n in (1023, 1024):
                ops = _operands(rng.random((n, d)), d)
                for U, g in (ops[0], ops[2]):
                    assert _acc_ulps(U, g) <= 1, (d, n, g is not None)

    # widths 1 to 3,000; one band, many bands, and bands of one row
    SHAPES = [(1, 1 << 20), (2, 1 << 20), (7, 1 << 20), (100, 1 << 20), (1023, 1 << 20),
              (3000, 1 << 20), (100, 700), (1023, 50_000), (300, 1)]

    @pytest.mark.parametrize("d", range(1, 9))
    def test_bits_of_whole_block_sums(self, monkeypatch, d):
        rng = np.random.default_rng(4820 + d)
        for n, elems in self.SHAPES:
            monkeypatch.setattr(l2, "_BLOCK_ELEMS", elems)
            X, v = _kinds(rng, n, d)[n % 4], rng.normal(size=n)
            ops = [U if g is None else U * g + 1.0 for U, g in _operands(X, d)]
            for U in ops[:1] if n > 1023 else ops:
                assert l2._pair_sum(U) == _whole_block_pair_sum(U)
            assert l2._pair_sum(X, v=v) == _whole_block_pair_sum(X, v)

    def test_values_ignore_numpy_buffer_size(self):
        # numpy sums a row of a few thousand entries whole at either buffer size
        rng = np.random.default_rng(4830)
        for n in (700, 3000):
            X, v = rng.random((n, 3)), rng.normal(size=n)
            want = [l2._pair_sum(X), l2._pair_sum(X, v=v)]
            old = np.setbufsize(1024)
            try:
                got = [l2._pair_sum(X), l2._pair_sum(X, v=v)]
            finally:
                np.setbufsize(old)
            assert got == want, n

    # blocks as the Heinrich leaves and the bands pass them, some with rows
    # wider than numpy's buffer
    KERNEL = [(1, 1, 1), (4, 8, 2), (64, 64, 3), (1, 4097, 2), (65, 64, 4), (40, 300, 5),
              (3, 9000, 3), (700, 100, 8)]

    @pytest.mark.parametrize("bufsize", [8192, 1024])
    def test_kernel_is_np_sum_of_whole_block(self, bufsize):
        rng = np.random.default_rng(4850)
        old = np.setbufsize(bufsize)
        try:
            for rows, width, d in self.KERNEL:
                A, B = _kinds(rng, rows, d)[width % 4], _kinds(rng, width, d)[rows % 4]
                va, vb = rng.normal(size=rows), rng.normal(size=width)
                M = np.minimum(A[:, None, 0], B[None, :, 0])
                for k in range(1, d):
                    M = M * np.minimum(A[:, None, k], B[None, :, k])
                assert l2._block_sum(A, B.T) == np.sum(M, axis=1, dtype=np.longdouble).sum()
                M = M * va[:, None] * vb
                want = np.sum(M, axis=1, dtype=np.longdouble).sum()
                assert l2._block_sum(A, B.T, va, vb) == want
        finally:
            np.setbufsize(old)

    @pytest.mark.parametrize("elems", [1 << 20, 3000])
    def test_weights_folded_per_point(self, monkeypatch, elems):
        # f(x) = 1 + g x rounded is nondecreasing for g >= 0, so
        # min(f(x), f(y)) = f(min(x, y)) bit for bit
        monkeypatch.setattr(l2, "_BLOCK_ELEMS", elems)
        rng = np.random.default_rng(4840)
        for d in range(1, 7):
            gammas = [np.ones(d), 0.8 ** np.arange(d), np.r_[np.ones(d - 1), 0.0]]
            for n in (1, 5, 64, 300):
                for X in _kinds(rng, n, d):
                    assert modified_l2_sq(PointSet(X)) == _weighted_per_pair(X, np.ones(d))
                    for g in gammas:
                        assert weighted_star_l2_sq(PointSet(X), g) == _weighted_per_pair(X, g)

    def test_memory_is_a_few_pieces(self):
        # two whole 2^20-entry block buffers peaked at 16.25-16.50 MiB
        X = PointSet(halton(4096, 4).points)
        for run in (lambda: warnock_star_l2_sq(X), lambda: extreme_l2_sq(X),
                    lambda: weighted_star_l2_sq(X, 0.8 ** np.arange(4))):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2 ** 20

    def test_weights_weigh_each_ordered_pair(self, monkeypatch):
        rng = np.random.default_rng(4810)
        Y, v = rng.random((30, 3)), rng.normal(size=30)
        monkeypatch.setattr(l2, "_BLOCK_ELEMS", 30 * 7)  # five bands, the last of two rows
        got = l2._pair_sum(Y, v=v)
        want = oracles.direct_heinrich(v, Y, v, Y, 3)
        assert float(got) == pytest.approx(want, rel=1e-13, abs=0.0)


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

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("kind", ["constant", "upper-tied", "duplicates", "signed"])
    def test_symmetric_recursion_tie_branches(self, monkeypatch, d, kind):
        # a leaf of one pair sends every split through the symmetric
        # recursion: a key column equal to its median everywhere, a median
        # equal to the largest key, and duplicated points with zero
        # coordinates reach its tie branches
        rng = np.random.default_rng(4820 + d)
        n = 24
        pts, w = rng.random((n, d)), np.full(n, 1.0 / n)
        if kind == "constant":
            pts[:, d - 1] = 0.5
            pts[:, 0] = 0.25
        elif kind == "upper-tied":
            pts[n // 2 - 1:] = pts.max(axis=0)
        elif kind == "duplicates":
            half = rng.random((n // 2, d))
            half[rng.random((n // 2, d)) < 0.3] = 0.0
            pts = np.vstack([half, half[::-1]])
        else:
            w = rng.normal(size=n)
            w -= w.mean()
        monkeypatch.setattr(l2, "_LEAF", 1)
        got = star_l2_sq_fast(WeightedPointSet(w, pts))
        t2 = float(np.sum(w * np.prod(1.0 - pts ** 2, axis=1)))
        t3 = oracles.direct_heinrich(w, 1.0 - pts, w, 1.0 - pts, d)
        want = 3.0 ** (-d) - 2.0 ** (1 - d) * t2 + t3
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)
