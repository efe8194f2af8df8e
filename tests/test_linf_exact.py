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
from discrepkit import pointset
from discrepkit.linf_approx import build_delta_cover, cover_bounds
from discrepkit.linf_exact import _grid_side_max, local_values
from discrepkit.pointset import _grid_axes, _grid_cells, _grid_rows


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


def cumsum_tensor(axes, pts, w, side):
    """The whole count tensor by np.cumsum along every axis, independent of
    the prefix routine under test."""
    cells = _grid_cells(axes, pts, side)
    keep = cells >= 0
    H = np.zeros(tuple(len(a) for a in axes), dtype=np.int32 if w is None else np.float64)
    np.add.at(H.reshape(-1), cells[keep], np.int32(1) if w is None else w[keep])
    for ax in range(H.ndim):
        np.cumsum(H, axis=ax, out=H)
    return H


def full_side_max(axes, mu_axes, pts, w, side, n):
    """(max, index) of one side's local discrepancy from one whole count
    tensor: the grid search as it was before it was streamed."""
    counts = cumsum_tensor(axes, pts, w, side)
    mu = mu_axes[0]
    for m in mu_axes[1:]:
        mu = np.multiply.outer(mu, m)
    vals = mu - counts / n if side == "open" else counts / n - mu
    t = int(np.argmax(vals))
    return float(vals.flat[t]), np.unravel_index(t, vals.shape)


def full_grid_star(nu, open_axes, closed_axes, G=None):
    """(value, witness, kind) of the better side, recomputed at its corner."""
    w = getattr(nu, "weights", None)
    sides = []
    for axes, side in ((open_axes, "open"), (closed_axes, "closed")):
        mu = axes if G is None else [G.marginal(j, a) for j, a in enumerate(axes)]
        val, idx = full_side_max(axes, mu, nu.points, w, side, nu.n if w is None else 1.0)
        sides.append((val, np.array([a[i] for a, i in zip(axes, idx)]), side))
    _, y, kind = sides[0] if sides[0][0] >= sides[1][0] else sides[1]
    op, cl = local_values(nu, y, G)
    return (op if kind == "open" else cl), y.tolist(), kind


def random_marginals(rng, d):
    tables = []
    for _ in range(d):
        knots = np.unique(np.concatenate([[0.0, 1.0], rng.random(int(rng.integers(0, 4)))]))
        values = np.sort(rng.random(knots.size))
        values[0], values[-1] = 0.0, 1.0
        tables.append((knots, values))
    return MarginalCDF(tables)


class TestStreamedGrid:
    """The grid search in chunks of rows against one whole count tensor per
    side, with chunks of a few corners so that small sets span many, and
    with prefix sums by slice adds down to slices of a few entries."""

    @pytest.fixture(autouse=True, params=[(1, 1024), (7, 1), (60, 4)])
    def small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(pointset, "_CHUNK", request.param[0])
        monkeypatch.setattr(pointset, "_SLICED", request.param[1])

    def test_plain_sets_match_full_tensor_and_brute(self, rng):
        for _ in range(40):
            d = int(rng.integers(1, 6))
            X = random_pointset_with_ties(rng, int(rng.integers(1, [0, 40, 12, 7, 5, 4][d])), d)
            plain, aug = _grid_axes(X.points)
            got = star_grid_enum(X)
            assert (got.value, got.witness.tolist(), got.kind) == full_grid_star(X, aug, plain)
            assert got.value == pytest.approx(oracles.brute_star(X.points), abs=1e-13)

    def test_signed_weights_and_marginals_match_full_tensor(self, rng):
        for t in range(60):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, [0, 40, 16, 9, 6, 5][d]))
            pts = random_pointset_with_ties(rng, n, d).points
            W = WeightedPointSet(rng.normal(size=n), pts)
            G = random_marginals(rng, d) if t % 2 else None
            plain, aug = _grid_axes(pts)
            got = star_grid_enum(W, G)
            assert (got.value, got.witness.tolist(), got.kind) == full_grid_star(
                W, aug, plain, G)

    def test_cover_bounds_match_full_tensor(self, rng):
        for d, delta in ((1, 0.05), (2, 0.2), (3, 0.3), (4, 0.5), (5, 1.0)):
            X = random_pointset_with_ties(rng, 12, d)
            got = cover_bounds(X, delta)
            levels = [build_delta_cover(d, delta).levels] * d
            assert (got.lower, got.witness.tolist(), got.params["kind"]) == \
                full_grid_star(X, levels, levels)

    def test_points_at_one_and_outside_every_box(self, rng):
        # a coordinate at 1 is in no open box of the augmented grid, and the
        # axes below stop short of some points, which then lie in no box
        for _ in range(30):
            d = int(rng.integers(1, 5))
            pts = np.round(rng.random((9, d)) * 4) / 4
            axes = [np.unique(np.append(rng.choice(pts[:, j], 3), 1.0))[:3] for j in range(d)]
            for w, n in ((None, 9), (rng.normal(size=9), 1.0)):
                for side in ("open", "closed"):
                    want = full_side_max(axes, axes, pts, w, side, n)
                    got = _grid_side_max(axes, axes, pts, w, side, n)
                    assert got[0] == want[0] and tuple(got[1]) == tuple(want[1])

    def test_count_tensor_matches_cumsum(self, rng):
        for _ in range(40):
            d = int(rng.integers(1, 6))
            pts = random_pointset_with_ties(rng, 8, d).points
            plain, aug = _grid_axes(pts)
            for w in (None, rng.normal(size=8)):
                for axes, side in ((aug, "open"), (plain, "closed")):
                    cells = _grid_cells(axes, pts, side)
                    chunks = list(_grid_rows(tuple(map(len, axes)), cells, w))
                    assert [r0 for r0, _ in chunks] == \
                        np.cumsum([0] + [len(H) for _, H in chunks[:-1]]).tolist()
                    got = np.concatenate([H for _, H in chunks])
                    want = cumsum_tensor(axes, pts, w, side)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
