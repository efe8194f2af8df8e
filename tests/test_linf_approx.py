import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pointset, random_pointset_with_ties
from discrepkit import (BudgetExceededError, PointSet, TAConfig,
                        build_delta_cover, cover_bounds, ga_lower_bound,
                        halton, local_discrepancy, midpoint_set, star_2d,
                        star_exact, star_grid_enum, ta_basic, ta_improved)
from discrepkit.pointset import _Workspace


def check_lower_is_achieved(X, res):
    ld = local_discrepancy(res.witness, X)
    assert max(ld.delta, ld.delta_bar) == res.lower


class TestDeltaCover:
    def test_1d_half(self):
        cover = build_delta_cover(1, 0.5)
        assert cover.levels.tolist() == [0.5, 1.0]
        for y in (0.1, 0.6, 1.0):
            lo, hi = cover.bracket([y])
            assert lo[0] <= y <= hi[0]
            assert hi[0] - lo[0] <= 0.5 + 1e-15

    def test_2d_unit_delta_step(self):
        cover = build_delta_cover(2, 1.0)
        assert cover.levels.tolist() == [0.5, 1.0]

    def test_size_and_entropy_bound_reported(self):
        cover = build_delta_cover(3, 0.3)
        assert cover.size == len(cover.levels) ** 3
        assert cover.entropy_size_bound > 0

    def test_cap(self):
        with pytest.raises(BudgetExceededError):
            build_delta_cover(6, 0.01, cap=10 ** 6)

    @given(st.integers(1, 4), st.sampled_from([1.0, 0.5, 0.3, 0.17]),
           st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_bracketing_property(self, d, delta, seed):
        rng = np.random.default_rng(seed)
        cover = build_delta_cover(d, delta)
        levels = set(cover.levels.tolist()) | {0.0}
        for _ in range(250):
            y = rng.random(d)
            lo, hi = cover.bracket(y)
            assert np.all(lo <= y) and np.all(y <= hi)
            assert all(c in levels for c in lo)
            assert all(c in levels for c in hi)
            assert np.all(hi > 0.0)
            assert np.prod(hi) - np.prod(lo) <= delta + 1e-12


class TestCoverBounds:
    def test_midpoint_example(self):
        X = midpoint_set(4)
        res = cover_bounds(X, 0.1)
        assert res.lower <= 0.125 + 1e-15 <= res.lower + 0.1 + 1e-15

    def test_single_point_sandwich(self):
        X = PointSet([[0.5, 0.5]])
        res = cover_bounds(X, 0.05)
        assert res.lower <= 0.75 <= res.upper + 1e-15

    def test_delta_one_vacuous(self, rng):
        X = random_pointset(rng, 6, 2)
        res = cover_bounds(X, 1.0)
        assert res.upper >= 1.0

    def test_sandwich_random_suite(self, rng):
        for _ in range(40):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 33))
            X = random_pointset_with_ties(rng, n, d)
            exact = star_exact(X).value
            for delta in (0.25, 0.1):
                res = cover_bounds(X, delta)
                assert res.lower <= exact + 1e-12
                assert exact <= res.upper + 1e-12
                assert res.upper - res.lower <= delta + 1e-12
                check_lower_is_achieved(X, res)


class TestTABasic:
    def test_single_point_reaches_optimum(self):
        X = PointSet([[0.5, 0.5]])
        res = ta_basic(X, TAConfig(200, seed=3))
        assert res.lower == 0.75

    def test_lower_bound_sound(self, rng):
        for _ in range(10):
            X = random_pointset_with_ties(rng, int(rng.integers(2, 33)),
                                          int(rng.integers(1, 4)))
            exact = star_exact(X).value
            res = ta_basic(X, TAConfig(300, seed=11))
            assert res.lower <= exact + 1e-12
            check_lower_is_achieved(X, res)

    def test_deterministic(self, rng):
        X = random_pointset(rng, 16, 3)
        cfg = TAConfig(500, mc=2, k=4, seed=99)
        a = ta_basic(X, cfg)
        b = ta_basic(X, cfg)
        assert a.lower == b.lower
        assert a.witness.tolist() == b.witness.tolist()

    def test_upper_is_one(self, rng):
        res = ta_basic(random_pointset(rng, 8, 2), TAConfig(50, seed=0))
        assert res.upper == 1.0


class TestTAImproved:
    def test_halton16_reaches_exact(self):
        X = halton(16, 2)
        exact = star_2d(X).value
        best = max(ta_improved(X, TAConfig(10_000, seed=s)).lower
                   for s in range(10))
        assert best == pytest.approx(exact, abs=1e-6)

    def test_lower_bound_sound(self, rng):
        for _ in range(8):
            X = random_pointset_with_ties(rng, int(rng.integers(2, 33)),
                                          int(rng.integers(2, 5)))
            exact = star_exact(X).value
            res = ta_improved(X, TAConfig(400, seed=5))
            assert res.lower <= exact + 1e-12
            check_lower_is_achieved(X, res)

    def test_deterministic(self, rng):
        X = random_pointset(rng, 20, 3)
        cfg = TAConfig(400, seed=7)
        assert ta_improved(X, cfg).lower == ta_improved(X, cfg).lower

    def test_polynomial_sampling_mean(self):
        # inverse-transform samples on [0,1] have mean d/(d+1)
        rng = np.random.default_rng(0)
        for d in (2, 5):
            s = rng.random(100_000)
            vals = s ** (1.0 / d)  # Psi^-1 with l=0, u=1
            want = d / (d + 1)
            se = vals.std() / np.sqrt(len(vals))
            assert abs(vals.mean() - want) < 3 * se


class TestLargeSets:
    def test_workspace_memory_linear_and_bound_sound(self):
        # one block over all 20,000 points would hold about 150 MB of bitsets
        X = PointSet(np.random.default_rng(31).random((20_000, 3)))
        tracemalloc.start()
        try:
            ws = _Workspace(X.points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ws.blocks) > 1
        assert peak < 32 * 2 ** 20
        res = ta_improved(X, TAConfig(300, seed=3))
        check_lower_is_achieved(X, res)
        assert res.lower <= cover_bounds(X, 0.05).upper

    def test_grid_search_memory_is_one_chunk(self):
        # whole count tensors took 49.2 MiB and 26.7 MiB here
        rng = np.random.default_rng(37)
        X5, X4 = PointSet(rng.random((512, 5))), PointSet(rng.random((48, 4)))
        for run, limit in ((lambda: cover_bounds(X5, 0.2), 16),
                           (lambda: star_grid_enum(X4), 8)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit * 2 ** 20


class TestGALowerBound:
    def test_single_point_reaches_optimum(self):
        X = PointSet([[0.5, 0.5]])
        res = ga_lower_bound(X, mu=4, C=4, M=4, t=10, seed=1)
        assert res.lower == 0.75

    def test_sound_and_reproducible(self, rng):
        X = random_pointset(rng, 12, 3)
        exact = star_exact(X).value
        a = ga_lower_bound(X, mu=6, C=6, M=6, t=8, seed=42)
        b = ga_lower_bound(X, mu=6, C=6, M=6, t=8, seed=42)
        assert a.lower == b.lower
        assert a.lower <= exact + 1e-12
        check_lower_is_achieved(X, a)

    def test_parameter_validation(self, rng):
        X = random_pointset(rng, 4, 2)
        with pytest.raises(ValueError):
            ga_lower_bound(X, mu=0, C=1, M=1, t=1)


class TestQualityGate:
    def test_improved_beats_tolerance_smoke(self, rng):
        # smoke version of the full regression gate in the acceptance suite
        wins = total = 0
        for (n, d) in [(8, 2), (16, 3), (32, 2), (12, 4)]:
            X = random_pointset(rng, n, d)
            exact = star_exact(X).value
            best = max(ta_improved(X, TAConfig(4000, seed=s)).lower
                       for s in range(6))
            total += 1
            if best >= exact - 1e-3:
                wins += 1
        assert wins >= 0.75 * total
