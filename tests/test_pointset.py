import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_pointset, random_pointset_with_ties
from discrepkit import (BudgetExceededError, PointSet, WeightedPointSet,
                        classify_critical, enumerate_critical, grid_view,
                        local_discrepancy, snap_down, snap_up, star_exact,
                        volume)


class TestTypes:
    def test_pointset_rejects_coordinate_one(self):
        with pytest.raises(ValueError):
            PointSet([[0.5, 1.0]])

    def test_pointset_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((0, 2)))

    def test_pointset_allows_duplicates_and_zero(self):
        X = PointSet([[0.0, 0.3], [0.0, 0.3]])
        assert X.n == 2 and X.d == 2

    def test_pointset_immutable(self):
        X = PointSet([[0.1, 0.2]])
        with pytest.raises(ValueError):
            X.points[0, 0] = 0.5

    def test_weighted_allows_negative_weights(self):
        W = WeightedPointSet([1.5, -0.5], [[0.1], [0.9]])
        assert W.weights[1] == -0.5

    def test_weighted_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            WeightedPointSet([np.inf], [[0.1]])


class TestVolume:
    def test_ones(self):
        assert volume([1.0, 1.0, 1.0]) == 1.0

    def test_half_square(self):
        assert volume([0.5, 0.5]) == 0.25

    def test_generic(self):
        assert volume([0.755, 0.776]) == pytest.approx(0.58588, abs=1e-12)

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            volume([1.5])


class TestLocalDiscrepancy:
    def test_single_point_at_own_corner(self):
        X = PointSet([[0.5, 0.5]])
        ld = local_discrepancy([0.5, 0.5], X)
        assert ld.open_count == 0
        assert ld.closed_count == 1
        assert ld.delta_bar == 0.75
        assert ld.delta_star == max(ld.delta, ld.delta_bar)

    def test_full_box(self):
        X = PointSet([[0.5, 0.5]])
        ld = local_discrepancy([1.0, 1.0], X)
        assert ld.open_count == 1 and ld.delta == 0.0

    def test_point_outside_box(self):
        X = PointSet([0.5], d=1)
        ld = local_discrepancy([0.25], X)
        assert ld.open_count == 0 and ld.closed_count == 0
        assert ld.delta == 0.25 and ld.delta_bar == -0.25

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            local_discrepancy([0.5], PointSet([[0.5, 0.5]]))

    @given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_counts_match_definition(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = PointSet(rng.random((n, d)))
        y = rng.random(d)
        ld = local_discrepancy(y, X)
        assert ld.open_count == oracles.open_count(X.points, y)
        assert ld.closed_count == oracles.closed_count(X.points, y)
        assert 0 <= ld.open_count <= ld.closed_count <= n


class TestGridView:
    def test_duplicate_collapse(self):
        X = PointSet([[0.3, 0.7], [0.3, 0.2]])
        gv = grid_view(X)
        assert gv.values[0].tolist() == [0.3]
        assert gv.aug_values[0].tolist() == [0.3, 1.0]
        assert gv.values[1].tolist() == [0.2, 0.7]

    def test_single_point(self):
        gv = grid_view(PointSet([0.5], d=1))
        assert gv.values[0].tolist() == [0.5]
        assert gv.aug_values[0].tolist() == [0.5, 1.0]

    def test_distinct_coordinates_grid_size(self, rng):
        n, d = 7, 3
        X = random_pointset(rng, n, d)  # distinct coordinates almost surely
        assert grid_view(X).grid_size == n ** d


class TestClassifyCritical:
    def test_spec_examples(self):
        X = PointSet([[0.5, 0.5]])
        assert classify_critical([0.5, 1.0], X)[0]
        assert classify_critical([0.5, 0.5], X)[1]
        assert classify_critical([1.0, 1.0], X)[0]  # vacuous
        assert not classify_critical([0.5, 0.5], X)[0]

    @given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_epsilon_definition(self, n, d, seed):
        import itertools
        rng = np.random.default_rng(seed)
        X = PointSet(rng.random((n, d)))
        gv = grid_view(X)
        for y in itertools.product(*gv.aug_values):
            got = classify_critical(np.array(y), X)
            want = oracles.critical_by_definition(X.points, y)
            assert got == want


class TestEnumerateCritical:
    def test_single_point_inventory(self):
        X = PointSet([[0.5, 0.5]])
        crit = enumerate_critical(X)
        closed = {tuple(c.corner) for c in crit if c.kind == "deltabar"}
        opened = {tuple(c.corner) for c in crit if c.kind == "delta"}
        assert closed == {(0.5, 0.5)}
        assert opened == {(0.5, 1.0), (1.0, 0.5), (1.0, 1.0)}

    def test_count_filter(self):
        X = PointSet([0.5], d=1)
        crit = enumerate_critical(X, k=1)
        closed = [c for c in crit if c.kind == "deltabar"]
        assert [tuple(c.corner) for c in closed] == [(0.5,)]

    def test_1d_every_grid_value_critical(self, rng):
        X = random_pointset(rng, 6, 1)
        crit = enumerate_critical(X)
        assert len([c for c in crit if c.kind == "deltabar"]) == 6
        assert len([c for c in crit if c.kind == "delta"]) == 7

    def test_budget(self):
        X = PointSet(np.random.default_rng(0).random((9, 4)))
        with pytest.raises(BudgetExceededError):
            enumerate_critical(X, budget=10)

    @staticmethod
    def by_definition(pts):
        import itertools
        pts = [tuple(map(float, x)) for x in pts]
        plain, aug = oracles.grid_axes(pts)
        out = []
        for y in itertools.product(*aug):
            if oracles.critical_by_definition(pts, y)[0]:
                out.append(("delta", y, oracles.open_count(pts, y)))
        for y in itertools.product(*plain):
            if oracles.critical_by_definition(pts, y)[1]:
                out.append(("deltabar", y, oracles.closed_count(pts, y)))
        return out

    @given(st.integers(1, 7), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_definition_with_ties_and_zeros(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = PointSet(rng.choice([0.0, 0.25, 0.5, 0.75], size=(n, d)))
        got = [(c.kind, tuple(map(float, c.corner)), c.count)
               for c in enumerate_critical(X)]
        want = self.by_definition(X.points)
        assert got == want
        k = int(rng.integers(0, n + 1))
        assert [(c.kind, tuple(map(float, c.corner)), c.count)
                for c in enumerate_critical(X, k=k)] == [c for c in want if c[2] == k]

    def test_origin_kept_when_no_point_sits_there(self):
        # every plain axis holds 0, no point is at the origin: no coordinate
        # of the origin can shrink, so it is vacuously deltabar-critical
        X = PointSet([[0.0, 0.5], [0.5, 0.0]])
        closed = [(tuple(c.corner), c.count) for c in enumerate_critical(X)
                  if c.kind == "deltabar"]
        assert ((0.0, 0.0), 0) in closed
        assert closed == [(y, n) for kind, y, n in self.by_definition(X.points)
                          if kind == "deltabar"]


class TestSnapDown:
    def test_single_point(self):
        X = PointSet([[0.5, 0.5]])
        assert snap_down([0.8, 0.9], X).tolist() == [0.5, 0.5]

    def test_partial_floor(self):
        X = PointSet([[0.5, 0.5]])
        assert snap_down([0.3, 0.9], X).tolist() == [0.0, 0.5]

    def test_below_grid_goes_to_zero(self):
        X = PointSet([[0.5, 0.7]])
        assert snap_down([0.4, 0.6], X).tolist() == [0.0, 0.0]

    @given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_preserves_closed_count_and_improves(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = PointSet(rng.random((n, d)))
        y = rng.random(d)
        z = snap_down(y, X)
        assert np.all(z <= y)
        before = local_discrepancy(y, X)
        after = local_discrepancy(z, X)
        assert after.closed_count == before.closed_count
        assert after.delta_bar >= before.delta_bar


class TestSnapUp:
    def test_single_point_two_orders(self):
        X = PointSet([[0.5, 0.5]])
        seen = set()
        for seed in range(12):
            z = snap_up([0.3, 0.3], X, seed)
            seen.add(tuple(z))
        assert seen == {(1.0, 0.5), (0.5, 1.0)}

    def test_all_points_captured(self, rng):
        X = random_pointset(rng, 5, 3)
        z = snap_up([1.0 - 1e-9] * 3, X, 0)
        assert z.tolist() == [1.0, 1.0, 1.0]

    def test_deterministic_per_seed(self, rng):
        X = random_pointset(rng, 9, 4)
        y = rng.random(4)
        a = snap_up(y, X, 42)
        b = snap_up(y, X, 42)
        assert a.tolist() == b.tolist()

    @given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_preserves_open_count_and_improves(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = PointSet(rng.random((n, d)))
        y = rng.random(d)
        z = snap_up(y, X, rng)
        assert np.all(z >= y)
        gv = grid_view(X)
        for j in range(d):
            assert z[j] in gv.aug_values[j]
        before = local_discrepancy(y, X)
        after = local_discrepancy(z, X)
        assert after.open_count == before.open_count
        assert after.delta >= before.delta

    @given(st.integers(2, 7), st.integers(2, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_maximality(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = PointSet(rng.random((n, d)))
        y = rng.random(d)
        z = snap_up(y, X, rng)
        base = local_discrepancy(z, X).open_count
        gv = grid_view(X)
        for j in range(d):
            if z[j] == 1.0:
                continue
            nxt = gv.aug_values[j][np.searchsorted(gv.aug_values[j], z[j], side="right")]
            z2 = z.copy()
            z2[j] = nxt
            assert local_discrepancy(z2, X).open_count > base


class TestInvariants:
    @given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_local_values_lower_bound_star(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = PointSet(rng.random((n, d)))
        exact = star_exact(X).value
        for _ in range(5):
            y = rng.random(d)
            ld = local_discrepancy(y, X)
            assert ld.delta <= exact + 1e-12
            assert ld.delta_bar <= exact + 1e-12

    def test_grid_max_equals_mesh_supremum(self, rng):
        # induced-grid value sandwiched by a fine mesh plus its gap bound
        for (n, d) in [(4, 1), (5, 2), (4, 3)]:
            X = random_pointset(rng, n, d)
            grid_val = oracles.brute_star(X.points)
            steps = 40
            mesh_val = oracles.brute_star_mesh(X.points, steps)
            assert mesh_val <= grid_val + 1e-12
            assert grid_val <= mesh_val + d * (1.0 / steps) + 1e-12

    def test_projection_monotonicity(self, rng):
        for _ in range(10):
            X = random_pointset(rng, 6, 3)
            subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
            vals = {u: star_exact(X.project(u)).value for u in subsets}
            for u in subsets:
                for v in subsets:
                    if set(u) <= set(v):
                        assert vals[u] <= vals[v] + 1e-12
