import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_pointset
from discrepkit import (BudgetExceededError, PointSet, lp_cost_estimate,
                        weighted_star_lp_pow, weighted_star_l2_sq)
from discrepkit import pointset
from discrepkit.l2 import _ACC
from discrepkit.lp import _tuple_level_sum


class TestValues:
    def test_p2_midpoint(self):
        X = PointSet([0.5], d=1)
        assert weighted_star_lp_pow(X, [1.0], 2) == pytest.approx(1 / 12, abs=1e-13)

    def test_p2_origin(self):
        X = PointSet([0.0], d=1)
        assert weighted_star_lp_pow(X, [1.0], 2) == pytest.approx(1 / 3, abs=1e-13)

    def test_p4_midpoint(self):
        # 2 * (1/2)^5 / 5
        X = PointSet([0.5], d=1)
        assert weighted_star_lp_pow(X, [1.0], 4) == pytest.approx(0.0125, abs=1e-13)

    def test_zero_weights_collapse(self, rng):
        X = random_pointset(rng, 6, 3)
        for p in (2, 4):
            assert weighted_star_lp_pow(X, np.zeros(3), p) == pytest.approx(0.0, abs=1e-12)


def walked_level_sum(pw, a, level):
    """The tuple sum by a depth-first walk over tuple prefixes, one
    interpreted call per prefix, adding each prefix's row sum to the total
    as it is met: the order the batched kernel must keep."""
    c = 1.0 + a
    if level == 0:
        return np.prod(c)
    total = _ACC(0.0)

    def walk(depth, running_max):
        nonlocal total
        if depth == level - 1:
            total += np.sum(np.prod(c - a * np.maximum(running_max, pw), axis=1))
            return
        for row in pw:
            walk(depth + 1, np.maximum(running_max, row))

    walk(0, np.zeros_like(a))
    return total


class TestTupleLevelSum:
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 15])
    def test_matches_depth_first_walk_bitwise(self, rng, monkeypatch, chunk):
        monkeypatch.setattr(pointset, "_CHUNK", chunk)
        for t in range(60):
            p, d = (2, 4, 6)[t % 3], int(rng.integers(1, 7))
            n = int(rng.integers(1, {2: 30, 4: 7, 6: 4}[p]))
            pts = rng.random((n, d))
            if t % 4 == 1:  # tied coordinates
                pts = np.floor(pts * 3) / 3
            elif t % 4 == 2:  # zero coordinates and a duplicate point
                pts[rng.random((n, d)) < 0.3] = 0.0
                pts[0] = pts[-1]
            g = np.sort(rng.random(d) * 2)[::-1].astype(_ACC)
            for level in range(p + 1):
                q = p - level + 1
                pw = pts.astype(_ACC) ** q
                got = _tuple_level_sum(pw, g / q, level)
                want = walked_level_sum(pw, g / q, level)
                assert got.dtype == want.dtype and got == want


class TestValidation:
    def test_odd_p(self, rng):
        X = random_pointset(rng, 3, 2)
        with pytest.raises(ValueError):
            weighted_star_lp_pow(X, np.ones(2), 3)

    def test_nonpositive_p(self, rng):
        X = random_pointset(rng, 3, 2)
        with pytest.raises(ValueError):
            weighted_star_lp_pow(X, np.ones(2), 0)

    def test_budget(self):
        X = PointSet(np.random.default_rng(0).random((64, 4)))
        with pytest.raises(BudgetExceededError):
            weighted_star_lp_pow(X, np.ones(4), 6, budget=10 ** 6)

    def test_cost_estimate_monotone(self):
        assert lp_cost_estimate(10, 3, 4) < lp_cost_estimate(20, 3, 4)


class TestCrossFormula:
    def test_p2_unit_weights_match_weighted_l2(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 33))
            d = int(rng.integers(1, 5))
            X = random_pointset(rng, n, d)
            a = weighted_star_lp_pow(X, np.ones(d), 2)
            b = weighted_star_l2_sq(X, np.ones(d))
            assert a == pytest.approx(b, rel=1e-10, abs=1e-13)

    def test_p2_general_weights_via_squared_map(self, rng):
        # the even-p expansion carries the weights linearly per factor, the
        # L2 product formula quadratically; they agree after squaring
        for _ in range(15):
            n = int(rng.integers(1, 25))
            d = int(rng.integers(1, 5))
            X = random_pointset(rng, n, d)
            g = np.sort(rng.random(d))[::-1]
            a = weighted_star_lp_pow(X, g ** 2, 2)
            b = weighted_star_l2_sq(X, g)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-13)

    def test_1d_unit_weight_matches_piecewise_integral(self, rng):
        for p in (2, 4):
            for n in (1, 2, 5, 16):
                X = random_pointset(rng, n, 1)
                want = oracles.lp_star_pow_1d(X.points, p)
                got = weighted_star_lp_pow(X, [1.0], p)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("p, n_max", [(2, 8), (4, 8), (6, 4)])
    def test_matches_exact_expansion(self, p, n_max):
        # binomial terms of size up to C(p, p/2) cancel to sums near 1e-5
        rng = np.random.default_rng(p)
        for _ in range(6):
            n = int(rng.integers(1, n_max + 1))
            d = int(rng.integers(1, 5))
            X = random_pointset(rng, n, d)
            g = np.sort(rng.random(d))[::-1]
            want = float(oracles.lp_pow_fraction(X.points, g, p))
            assert weighted_star_lp_pow(X, g, p) == pytest.approx(want, rel=1e-9, abs=0.0)

    @given(st.integers(1, 12), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = PointSet(rng.random((n, d)))
        g = np.sort(rng.random(d))[::-1]
        for p in (2, 4):
            assert weighted_star_lp_pow(X, g, p) >= -1e-10
