import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_pointset, random_pointset_with_ties
from discrepkit import (BudgetExceededError, MarginalCDF, PointSet,
                        WeightedPointSet, dem_cost_estimate, halton,
                        local_discrepancy, midpoint_set, star_1d, star_2d,
                        star_3d, star_dem, star_exact, star_grid_enum)
from discrepkit.linf_exact import local_values


def check_witness(X, res):
    ld = local_discrepancy(res.witness, X)
    achieved = ld.delta if res.kind == "open" else ld.delta_bar
    assert achieved == res.value


class TestStar1D:
    def test_midpoints(self):
        for n in (1, 2, 4, 9, 100):
            res = star_1d(midpoint_set(n))
            assert res.value == pytest.approx(1 / (2 * n), abs=1e-16)
            check_witness(midpoint_set(n), res)

    def test_single_midpoint(self):
        assert star_1d(PointSet([0.5], d=1)).value == 0.5

    def test_atom_at_anchor(self):
        assert star_1d(PointSet([0.0], d=1)).value == 1.0

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            star_1d(PointSet([[0.5, 0.5]]))

    def test_second_form_of_formula(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 40))
            X = random_pointset(rng, n, 1)
            xs = np.sort(X.points[:, 0])
            i = np.arange(1, n + 1)
            alt = 1 / (2 * n) + np.max(np.abs(xs - (2 * i - 1) / (2 * n)))
            assert star_1d(X).value == pytest.approx(alt, abs=1e-15)

    def test_matches_brute(self, rng):
        for _ in range(20):
            X = random_pointset_with_ties(rng, int(rng.integers(1, 20)), 1)
            assert star_1d(X).value == pytest.approx(
                oracles.brute_star(X.points), abs=1e-14)


class TestGridEnum:
    def test_single_point(self):
        X = PointSet([[0.5, 0.5]])
        res = star_grid_enum(X)
        assert res.value == 0.75
        assert res.kind == "closed"
        assert res.witness.tolist() == [0.5, 0.5]

    def test_two_point_example(self):
        X = PointSet([[0.25, 0.75], [0.75, 0.25]])
        res = star_grid_enum(X)
        assert res.value == pytest.approx(0.5625, abs=1e-15)
        assert res.kind == "open"
        assert res.witness.tolist() == [0.75, 0.75]

    def test_identity_marginals_match_lebesgue(self):
        for n in (1, 3, 8):
            X = midpoint_set(n)
            res = star_grid_enum(X, MarginalCDF.identity(1))
            assert res.value == pytest.approx(star_1d(X).value, abs=1e-15)

    def test_plain_gstar_consistency(self, rng):
        X = random_pointset(rng, 9, 3)
        a = star_grid_enum(X)
        b = star_grid_enum(X, MarginalCDF.identity(3))
        assert a.value == b.value

    def test_budget(self, rng):
        X = random_pointset(rng, 20, 4)
        with pytest.raises(BudgetExceededError):
            star_grid_enum(X, budget=1000)

    def test_matches_brute(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 14))
            X = random_pointset_with_ties(rng, n, d)
            got = star_grid_enum(X)
            assert got.value == pytest.approx(oracles.brute_star(X.points), abs=1e-13)
            check_witness(X, got)

    def test_weighted_set_reduces_to_plain(self, rng):
        X = random_pointset(rng, 8, 2)
        W = WeightedPointSet.equal_weights(X)
        assert star_grid_enum(W).value == pytest.approx(star_grid_enum(X).value, abs=1e-15)

    def test_weighted_witness_recomputes(self, rng):
        pts = rng.random((7, 2))
        w = rng.normal(size=7)
        W = WeightedPointSet(w, pts)
        res = star_grid_enum(W)
        op, cl = local_values(W, res.witness)
        achieved = op if res.kind == "open" else cl
        assert achieved == res.value

    def test_nontrivial_gstar(self, rng):
        # piecewise-linear marginals; cross-check against a dense corner scan
        import itertools
        X = random_pointset(rng, 5, 2)
        G = MarginalCDF([
            ([0.0, 0.3, 1.0], [0.0, 0.6, 1.0]),
            ([0.0, 0.5, 1.0], [0.0, 0.25, 1.0]),
        ])
        res = star_grid_enum(X, G)
        best = -np.inf
        mesh = np.linspace(0, 1, 41)
        for y in itertools.product(mesh, repeat=2):
            op, cl = local_values(X, np.array(y), G)
            best = max(best, op, cl)
        assert best <= res.value + 1e-12
        check = local_values(X, res.witness, G)
        achieved = check[0] if res.kind == "open" else check[1]
        assert achieved == res.value


class TestMarginalCDF:
    def test_rejects_non_finite_tables(self):
        with pytest.raises(ValueError, match="finite"):
            MarginalCDF([([0.0, np.nan, 1.0], [0.0, 0.5, 1.0])])
        with pytest.raises(ValueError, match="finite"):
            MarginalCDF([([0.0, 0.5, 1.0], [0.0, np.inf, 1.0])])


class TestStar2D3D:
    def test_2d_single_point(self):
        assert star_2d(PointSet([[0.5, 0.5]])).value == 0.75

    def test_2d_two_points(self):
        X = PointSet([[0.25, 0.75], [0.75, 0.25]])
        assert star_2d(X).value == pytest.approx(0.5625, abs=1e-15)

    def test_2d_matches_grid_enum(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 65))
            X = random_pointset_with_ties(rng, n, 2)
            a = star_2d(X)
            assert abs(a.value - oracles.brute_star(X.points)) <= 1e-14
            check_witness(X, a)

    def test_3d_single_point(self):
        assert star_3d(PointSet([[0.5, 0.5, 0.5]])).value == 0.875

    def test_3d_matches_grid_enum(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 33))
            X = random_pointset_with_ties(rng, n, 3)
            a = star_3d(X)
            assert abs(a.value - oracles.brute_star(X.points)) <= 1e-14
            check_witness(X, a)

    def test_3d_halton_8(self):
        X = halton(8, 3)
        a = star_3d(X)
        assert abs(a.value - oracles.brute_star(X.points)) <= 1e-14
        check_witness(X, a)

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            star_2d(PointSet([0.5], d=1))
        with pytest.raises(ValueError):
            star_3d(PointSet([[0.5, 0.5]]))


class TestStarDem:
    def test_single_point(self):
        assert star_dem(PointSet([[0.5, 0.5]])).value == 0.75

    def test_matches_grid_enum_randomized(self, rng):
        sets = []
        for _ in range(60):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, 25 if d < 4 else 14))
            sets.append(random_pointset_with_ties(rng, n, d))
        for _ in range(10):
            sets.append(random_pointset_with_ties(rng, int(rng.integers(4, 9)), 6))
        for _ in range(20):  # zero-heavy: about 40 % zero coordinates
            d = int(rng.integers(2, 7))
            pts = rng.random((int(rng.integers(4, 14 if d < 6 else 9)), d))
            pts[rng.random(pts.shape) < 0.4] = 0.0
            sets.append(PointSet(pts))
        for X in sets:
            a = star_dem(X, validate=True)
            b = star_grid_enum(X)
            assert a.value == pytest.approx(b.value, abs=1e-12)
            check_witness(X, a)

    def test_halton_32_d4(self):
        X = halton(32, 4)
        assert star_dem(X).value == pytest.approx(star_grid_enum(X).value, abs=1e-12)

    def test_1d_agrees(self, rng):
        X = random_pointset(rng, 12, 1)
        assert star_dem(X).value == pytest.approx(star_1d(X).value, abs=1e-14)


class TestDispatcher:
    def test_routes_1d(self):
        X = midpoint_set(6)
        assert star_exact(X).value == star_1d(X).value

    def test_d4_uses_dem(self, rng):
        X = random_pointset(rng, 16, 4)
        assert star_exact(X).value == pytest.approx(star_grid_enum(X).value, abs=1e-12)

    def test_budget_error_is_actionable(self):
        X = PointSet(np.random.default_rng(1).random((10_000, 15)))
        with pytest.raises(BudgetExceededError) as exc:
            star_exact(X)
        msg = str(exc.value)
        assert "box evaluations" in msg
        assert "cover_bounds" in msg or "ta_improved" in msg

    def test_cost_estimate(self):
        assert dem_cost_estimate(16, 4) == pytest.approx(16.0 ** 3)

    @pytest.mark.parametrize("d", [2, 3])
    def test_low_dimensions_honour_budget(self, rng, d):
        # 100 distinct points: the augmented grid has 101^d corners
        X = random_pointset(rng, 100, d)
        with pytest.raises(BudgetExceededError, match="budget of 1000"):
            star_exact(X, budget=1000)
        assert star_exact(X, budget=101 ** d).value == star_grid_enum(X).value


class TestScaleProperty:
    @given(st.integers(1, 16), st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_value_in_unit_interval(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = PointSet(rng.random((n, d)))
        v = star_exact(X).value
        assert 0.0 < v <= 1.0
