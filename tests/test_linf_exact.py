import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_pointset, random_pointset_with_ties
from discrepkit import (BudgetExceededError, MarginalCDF, PointSet,
                        WeightedPointSet, dem_cost_estimate, halton,
                        local_discrepancy, midpoint_set, rank1_lattice, star_1d,
                        star_2d, star_3d, star_dem, star_exact, star_grid_enum)
from discrepkit import linf_exact, pointset
from discrepkit.linf_approx import build_delta_cover, cover_bounds
from discrepkit.linf_exact import (_bracket_blocks, _grid_side_max, _grid_star, _refine,
                                   local_values, star_by_method)
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
                    got = _grid_side_max({side: (axes, axes)}, pts, w, n)[side]
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


def bracket_side_max(axes, mu_axes, pts, side, n):
    """One side's (max, index) by refining every block the coarse pass
    keeps, whatever the selection rule would choose."""
    best, blocks, bounds = _bracket_blocks(axes, mu_axes, pts, side, n)
    return _refine(blocks[bounds >= best], tuple(map(len, axes)), mu_axes,
                   _grid_cells(axes, pts, side), side, n)


class TestBracketSearch:
    """The bracket search with refinement forced on both sides against one
    whole count tensor per side: value and index bitwise, so also the tie
    rule (the first corner in grid order), at chunks of a few corners."""

    @pytest.fixture(autouse=True, params=[1, 7, 1 << 15])
    def small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(pointset, "_CHUNK", request.param)

    def check(self, axes, mu, pts, side):
        want = full_side_max(axes, mu, pts, None, side, len(pts))
        got = bracket_side_max(axes, mu, pts, side, len(pts))
        assert got[0] == want[0] and tuple(got[1]) == tuple(want[1])

    def test_plain_sets_and_marginals(self, rng):
        for t in range(40):
            d = int(rng.integers(1, 6))
            pts = random_pointset_with_ties(rng, int(rng.integers(1, [0, 40, 14, 8, 6, 5][d])),
                                            d).points.copy()
            if t % 4 == 0:  # coarse coordinates: many ties and duplicate points
                pts = np.floor(pts * 3) / 3
            G = random_marginals(rng, d) if t % 2 else None
            for axes, side in zip(_grid_axes(pts)[::-1], ("open", "closed")):
                self.check(axes, axes if G is None else
                           [G.marginal(j, a) for j, a in enumerate(axes)], pts, side)

    def test_cover_levels_and_axes_short_of_points(self, rng):
        for d, delta in ((1, 0.05), (2, 0.2), (3, 0.3), (4, 0.5)):
            pts = random_pointset_with_ties(rng, 12, d).points
            levels = [build_delta_cover(d, delta).levels] * d
            for side in ("open", "closed"):
                self.check(levels, levels, pts, side)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            pts = np.round(rng.random((9, d)) * 4) / 4
            axes = [np.unique(np.append(rng.choice(pts[:, j], 3), 1.0))[:3] for j in range(d)]
            for side in ("open", "closed"):
                self.check(axes, axes, pts, side)

    def test_selection(self, rng, monkeypatch):
        # a small uniform set refines; a weighted one never brackets
        refined = []
        monkeypatch.setattr(linf_exact, "_refine",
                            lambda *a: refined.append(a[-2]) or _refine(*a))
        X = random_pointset(rng, 20, 4)
        plain, aug = _grid_axes(X.points)
        got = star_grid_enum(X)
        assert (got.value, got.witness.tolist(), got.kind) == full_grid_star(X, aug, plain)
        assert refined == ["open", "closed"]
        monkeypatch.setattr(linf_exact, "_bracket_blocks", None)
        W = WeightedPointSet(np.full(X.n, 1.0 / X.n), X.points)
        got = star_grid_enum(W)
        assert (got.value, got.witness.tolist(), got.kind) == full_grid_star(W, aug, plain)


def level_sets(rng, n, d, m):
    """Uniform, Halton, lattice, duplicate-point and mirrored sets (the last
    swaps axes 0 and 1, so tied corners abound), then the first and last
    quantized onto the levels k/m, where open and closed cells differ."""
    u = rng.random((n // 2, d))
    mirror = np.concatenate([u, u[:, [1, 0, *range(2, d)]] if d > 1 else u / 2])
    sets = [rng.random((n, d)), halton(n, d).points,
            rank1_lattice(n, [1, *rng.choice(np.arange(3, n, 2), d - 1)]).points,
            np.concatenate([u, u]), mirror]
    return sets + [np.floor(p * m) / m for p in (sets[0], mirror)]


def keep_every_block(bracket):
    """The coarse pass with its incumbent, but every corner of the grid kept
    as a block of bound +inf, so that the side streams."""
    def run(axes, *a):
        size = math.prod(map(len, axes))
        return bracket(axes, *a)[0], np.arange(size), np.full(size, np.inf)
    return run


class TestSharedWalk:
    """Both sides of one axes list in one walk of the counts: the open side
    the first argmax of mu - c, the closed side its first argmin negated.
    Against two single-side walks bit for bit and one whole count tensor per
    side, with every block kept so that every side streams."""

    @pytest.fixture(autouse=True, params=[1, 7, 1 << 15])
    def small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(pointset, "_CHUNK", request.param)
        monkeypatch.setattr(linf_exact, "_bracket_blocks", keep_every_block(_bracket_blocks))

    def test_matches_single_side_walks_and_full_tensor(self, rng):
        for d, m in zip(range(1, 8), (40, 30, 12, 7, 5, 4, 3)):
            levels = np.arange(1, m + 1) / m
            levels[-1] = 1.0
            kept, axes = levels.copy(), [levels] * d
            for pts in level_sets(rng, 24, d, m):
                both = _grid_side_max({s: (axes, axes) for s in ("open", "closed")},
                                      pts, None, 24)
                both = [both["open"], both["closed"]]
                one = [_grid_side_max({s: (axes, axes)}, pts, None, 24)[s]
                       for s in ("open", "closed")]
                assert [(v.hex(), tuple(i)) for v, i in both] == \
                    [(v.hex(), tuple(i)) for v, i in one]
                full = [full_side_max(axes, axes, pts, None, s, 24) for s in ("open", "closed")]
                assert [(v, tuple(i)) for v, i in both] == [(v, tuple(i)) for v, i in full]
                got = _grid_star(PointSet(pts), axes, axes)
                assert (got.value, got.witness.tolist(), got.kind) == \
                    full_grid_star(PointSet(pts), axes, axes)
            # at d = 1 the chunk's volume product is a view of the levels
            assert levels.tobytes() == kept.tobytes()



def test_cover_walks_the_counts_once_unless_a_point_is_on_a_level(rng, monkeypatch):
    # with both sides made to stream after their coarse passes, they share
    # one walk of the 15^3 cover unless a quantized point sits on a level k/15
    shapes = []
    monkeypatch.setattr(linf_exact, "_grid_rows",
                        lambda shape, *a: shapes.append(shape) or _grid_rows(shape, *a))
    monkeypatch.setattr(linf_exact, "_bracket_blocks", keep_every_block(_bracket_blocks))
    monkeypatch.setattr(linf_exact, "_refine", None)
    X = PointSet(rng.random((64, 3)))
    levels = [build_delta_cover(3, 0.2).levels] * 3
    for pts, walks in ((X.points, 1), (np.floor(X.points * 15) / 15, 2)):
        shapes.clear()
        got = cover_bounds(PointSet(pts), 0.2)
        assert shapes.count((8, 8, 8)) == 2 and shapes.count((15, 15, 15)) == walks
        assert (got.lower, got.witness.tolist(), got.params["kind"]) == \
            full_grid_star(PointSet(pts), levels, levels)


class TestSharedIncumbent:
    """Both sides' blocks pruned against the larger of the two coarse
    incumbents: value, witness and kind as one whole count tensor per side
    gives them, at chunks of one and seven corners and the default."""

    @pytest.fixture(autouse=True, params=[1, 7, 1 << 15])
    def small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(pointset, "_CHUNK", request.param)

    @pytest.fixture
    def refined(self, monkeypatch):
        """Side -> blocks refined, for every call of :func:`_refine`."""
        seen = {}
        monkeypatch.setattr(linf_exact, "_refine",
                            lambda blocks, *a: seen.update({a[-2]: len(blocks)})
                            or _refine(blocks, *a))
        return seen

    def test_losing_side_refines_no_block(self, rng, refined):
        # the closed side wins on a diagonal set and on one clustered near 0,
        # the open side on one clustered near 1; each loser keeps no block
        t = np.sort(rng.random(6))
        for pts, loser in ((np.repeat(t[:, None], 5, axis=1), "open"),
                           (rng.random((8, 4)) * 0.1, "open"),
                           (1 - rng.random((8, 4)) * 0.1, "closed")):
            refined.clear()
            got = star_grid_enum(PointSet(pts))
            assert (got.value, got.witness.tolist(), got.kind) == \
                full_grid_star(PointSet(pts), *_grid_axes(pts)[::-1])
            assert got.kind != loser and refined[loser] == 0 and refined[got.kind] > 0

    def test_exact_tie_keeps_the_open_side(self, refined):
        # dyadic sets whose open and closed maxima are equal as doubles
        for pts in ([[0.25], [0.75]], [[0.125], [0.5], [0.75], [0.75]],
                    [[0.0, 0.625], [0.25, 0.375], [0.625, 0.875], [0.0, 0.5],
                     [0.875, 0.0], [0.5, 0.375], [0.75, 0.375], [0.875, 0.0]]):
            pts = np.array(pts)
            plain, aug = _grid_axes(pts)
            n = len(pts)
            assert full_side_max(aug, aug, pts, None, "open", n)[0] == \
                full_side_max(plain, plain, pts, None, "closed", n)[0]
            got = star_grid_enum(PointSet(pts))
            assert got.kind == "open"
            assert (got.value, got.witness.tolist(), got.kind) == \
                full_grid_star(PointSet(pts), aug, plain)

    def test_refining_side_joins_the_streamed_walk(self, monkeypatch):
        # on this cover the closed side's survivors would be refined, the
        # open side's streamed: both take the one walk of the 15^3 corners
        pts = np.random.default_rng(2).random((64, 3))
        levels = [build_delta_cover(3, 0.2).levels] * 3
        coarse = {s: _bracket_blocks(levels, levels, pts, s, 64) for s in ("open", "closed")}
        top = max(best for best, _, _ in coarse.values())
        work = {s: np.count_nonzero(bounds >= top) * (2 ** 3 + 64 * 3)
                for s, (_, _, bounds) in coarse.items()}
        assert 0 < work["closed"] < 15 ** 3 <= work["open"]
        shapes = []
        monkeypatch.setattr(linf_exact, "_grid_rows",
                            lambda shape, *a: shapes.append(shape) or _grid_rows(shape, *a))
        monkeypatch.setattr(linf_exact, "_refine", None)
        got = cover_bounds(PointSet(pts), 0.2)
        assert shapes.count((15, 15, 15)) == 1
        assert (got.lower, got.witness.tolist(), got.params["kind"]) == \
            full_grid_star(PointSet(pts), levels, levels)


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

    def test_dem_equals_grid_in_d4(self, rng):
        X = random_pointset(rng, 16, 4)
        dem, grid = star_by_method(X, "dem", 50_000_000), star_grid_enum(X)
        assert dem.value == grid.value
        assert (dem.method, grid.method) == ("dem", "grid")

    def test_budget_error_is_actionable(self):
        X = PointSet(np.random.default_rng(1).random((10_000, 15)))
        with pytest.raises(BudgetExceededError) as exc:
            star_exact(X)
        msg = str(exc.value)
        assert "box evaluations" in msg
        assert "cover_bounds" in msg or "ta_improved" in msg

    def test_cost_estimate(self):
        assert dem_cost_estimate(16, 4) == pytest.approx(16.0 ** 3)

    def test_grid_from_d4_when_its_corners_fit(self, rng):
        sets = [random_pointset(rng, n, d) for d, n in ((4, 16), (5, 10), (6, 7), (8, 5))]
        for X in sets + [halton(32, 4)]:
            got = star_exact(X)
            assert got.method == "grid"
            assert got.value == star_dem(X).value
            check_witness(X, got)

    def test_dem_when_the_grid_does_not_fit(self, rng):
        # 100 distinct points in d = 4: 101^4 corners exceed the default
        # budget, while DEM's estimate of 100^3 box evaluations fits it
        X = random_pointset(rng, 100, 4)
        assert star_exact(X, 50_000_000).method == "dem"
        assert star_exact(X, 101 ** 4).method == "grid"

    def test_grid_admits_a_set_dem_refuses(self, rng):
        # 1,000 points on 4 levels in d = 6: DEM estimates 10^12 box
        # evaluations, the augmented grid has 5^6 corners
        X = PointSet(np.floor(rng.random((1000, 6)) * 4) / 4)
        with pytest.raises(BudgetExceededError, match="box evaluations"):
            star_by_method(X, "dem", 50_000_000)
        got = star_exact(X)
        assert got.method == "grid"
        assert (got.value, got.witness.tolist(), got.kind) == \
            full_grid_star(X, *_grid_axes(X.points)[::-1])

    @pytest.mark.parametrize("method", ["Grid", "", "DEM", "4d"])
    def test_unknown_method_is_refused(self, rng, method):
        # DEM's estimate of 16^3 box evaluations fits the budget, so a
        # fallback to DEM would answer
        X = random_pointset(rng, 16, 4)
        with pytest.raises(ValueError, match="auto, 1d, 2d, 3d, grid, dem") as exc:
            star_by_method(X, method, 50_000_000)
        assert repr(method) in str(exc.value)

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
