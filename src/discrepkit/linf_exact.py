"""Exact L-infinity star discrepancy.

The star discrepancy of a finite point set is attained on the finite grids
induced by the coordinate values of the set: the open-box local discrepancy
is maximized over the augmented grid (coordinate values plus 1) and the
closed-box one over the plain grid (Niederreiter 1972).  Everything in this
module is a strategy for searching those grids:

* :func:`star_1d` -- Niederreiter's sorted-order formula in dimension one.
* :func:`star_grid_enum` -- full enumeration of the induced grids by prefix
  sums over chunks of whole rows, so memory is one chunk (``pointset._CHUNK``).  Also
  handles signed weights and a continuous marginal distribution for the volume.
* :func:`star_2d`, :func:`star_3d` -- grid enumeration, which outran the
  O(n^2) and O(n^3) sweeps of De Clerck and Bundschuh-Zhu at every size tried.
* :func:`star_dem` -- the decomposition scheme of Dobkin, Eppstein and
  Mitchell (1996) built on the Overmars-Yap partition: O(n^(d/2)) cells in
  which box counts separate per coordinate, each solved by a small dynamic
  program over (count, extremal volume) states.
* :func:`star_exact` -- dispatcher; every method but the 1-d formula checks
  its cost against a budget first.

Every result carries a witness corner; the returned value is always the
local discrepancy recomputed at the witness, so callers can verify any
output independently.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .pointset import (BudgetExceededError, PointSet, WeightedPointSet, _count_closed,
                       _count_open, _grid_axes, _grid_cells, _grid_rows, volume)

__all__ = [
    "MarginalCDF",
    "StarResult",
    "star_1d",
    "star_2d",
    "star_3d",
    "star_grid_enum",
    "star_dem",
    "star_exact",
    "dem_cost_estimate",
]


@dataclass(frozen=True)
class MarginalCDF:
    """Coordinatewise piecewise-linear distribution function on [0,1]^d.

    ``tables[j]`` is a pair (knots, values) with strictly increasing knots
    spanning [0,1], nondecreasing values, and the exact endpoint conditions
    F(0) = 0 and F(1) = 1.  The induced box measure of [0, y) is the product
    of the marginal values F_j(y_j); continuity is what makes grid
    enumeration exact for it.
    """

    tables: tuple

    def __init__(self, tables):
        norm = []
        for knots, values in tables:
            k = np.asarray(knots, dtype=np.float64).reshape(-1)
            v = np.asarray(values, dtype=np.float64).reshape(-1)
            if k.shape != v.shape or k.size < 2:
                raise ValueError("each marginal needs matching knot/value lists")
            if not np.all(np.isfinite(k)) or not np.all(np.isfinite(v)):
                raise ValueError("knots and values must be finite")
            if np.any(np.diff(k) <= 0.0):
                raise ValueError("knots must be strictly increasing")
            if k[0] != 0.0 or k[-1] != 1.0:
                raise ValueError("knots must span [0, 1]")
            if v[0] != 0.0 or v[-1] != 1.0:
                raise ValueError("marginals must satisfy F(0) = 0 and F(1) = 1")
            if np.any(np.diff(v) < 0.0):
                raise ValueError("marginal values must be nondecreasing")
            k.flags.writeable = False
            v.flags.writeable = False
            norm.append((k, v))
        object.__setattr__(self, "tables", tuple(norm))

    @property
    def d(self) -> int:
        return len(self.tables)

    @classmethod
    def identity(cls, d: int) -> "MarginalCDF":
        return cls([(np.array([0.0, 1.0]), np.array([0.0, 1.0]))] * d)

    def marginal(self, j: int, x) -> np.ndarray:
        knots, values = self.tables[j]
        return np.interp(np.asarray(x, dtype=np.float64), knots, values)

    def value(self, y) -> float:
        yv = np.asarray(y, dtype=np.float64).reshape(-1)
        out = 1.0
        for j in range(self.d):
            out *= float(self.marginal(j, yv[j]))
        return float(out)


@dataclass(frozen=True)
class StarResult:
    """A star discrepancy value together with its verifying corner."""

    value: float
    witness: np.ndarray
    kind: str  # "open" (delta witness) or "closed" (deltabar witness)

    def __post_init__(self):
        w = np.asarray(self.witness, dtype=np.float64)
        w.flags.writeable = False
        object.__setattr__(self, "witness", w)


def _coerce(nu) -> tuple[np.ndarray, np.ndarray, bool]:
    """Return (points, weights, is_plain) for a plain or weighted set."""
    if isinstance(nu, PointSet):
        return nu.points, np.full(nu.n, 1.0 / nu.n), True
    if isinstance(nu, WeightedPointSet):
        return nu.points, nu.weights, False
    raise TypeError("expected a PointSet or WeightedPointSet")


def _mu_value(y: np.ndarray, G: MarginalCDF | None) -> float:
    if G is None:
        return volume(y)
    return G.value(y)


def local_values(nu, y, G: MarginalCDF | None = None) -> tuple[float, float]:
    """(open, closed) local discrepancies of a possibly weighted set at y.

    Open: mu([0,y)) minus the weight in the open box; closed: weight in the
    closed box minus mu.  This is the recomputation hook used to verify
    witnesses of every exact algorithm.
    """
    pts, w, is_plain = _coerce(nu)
    yv = np.asarray(y, dtype=np.float64).reshape(-1)
    mu = _mu_value(yv, G)
    if is_plain:
        n = pts.shape[0]
        return mu - _count_open(pts, yv) / n, _count_closed(pts, yv) / n - mu
    return mu - _count_open(pts, yv, w), _count_closed(pts, yv, w) - mu


def _result_at(nu, y: np.ndarray, kind: str, G: MarginalCDF | None = None) -> StarResult:
    op, cl = local_values(nu, y, G)
    return StarResult(op if kind == "open" else cl, y.copy(), kind)


def _check_dim(X: PointSet, method: str) -> None:
    """Refuse a set whose dimension is not the one of ``method`` ("1d" to "3d")."""
    if X.d != int(method[0]):
        raise ValueError(f"star_{method} requires a {method[0]}-dimensional point set")


def star_1d(X: PointSet) -> StarResult:
    """Exact star discrepancy in dimension one (Niederreiter's formula)."""
    _check_dim(X, "1d")
    n = X.n
    xs = np.sort(X.points[:, 0], kind="stable")
    i = np.arange(1, n + 1)
    closed_terms = i / n - xs        # closed box at x_(i)
    open_terms = xs - (i - 1) / n    # open box at x_(i)
    ic = int(np.argmax(closed_terms))
    io = int(np.argmax(open_terms))
    if closed_terms[ic] >= open_terms[io]:
        return _result_at(X, np.array([xs[ic]]), "closed")
    return _result_at(X, np.array([xs[io]]), "open")


# ---------------------------------------------------------------------------
# grid enumeration via streamed prefix sums
# ---------------------------------------------------------------------------

def _grid_side_max(axes: list[np.ndarray], mu_axes: list[np.ndarray], pts: np.ndarray,
                   w: np.ndarray | None, side: str, n: float) -> tuple[float, tuple]:
    """(max, index) over the corner grid ``axes`` of the open (mu - weight) or
    closed (weight - mu) local discrepancy, weights ``w`` (unit counts with
    None) over ``n``, searched chunk by chunk as :func:`_grid_rows` counts.
    mu is the product of per-axis factors, taken left to right as
    :func:`local_values` takes it, so the maximum is bitwise the best value
    any corner recomputes to, and ties go to the first corner in grid order."""
    shape = tuple(len(a) for a in axes)
    row = math.prod(shape[1:])
    best, best_flat = -np.inf, 0
    for r0, H in _grid_rows(shape, _grid_cells(axes, pts, side), w):
        mu = mu_axes[0][r0 : r0 + len(H)]
        for m in mu_axes[1:]:
            mu = np.multiply.outer(mu, m)
        c = np.divide(H, n)
        vals = np.subtract(mu, c, out=c) if side == "open" else np.subtract(c, mu, out=c)
        pos = int(np.argmax(vals))
        if vals.flat[pos] > best:
            best, best_flat = float(vals.flat[pos]), pos + r0 * row
    return best, np.unravel_index(best_flat, shape)


def star_grid_enum(nu, G: MarginalCDF | None = None,
                   budget: int = 20_000_000) -> StarResult:
    """Star discrepancy by full enumeration of the induced grids, counted and
    searched in chunks of whole rows, so memory is one chunk (``pointset._CHUNK``).

    Valid for signed weights and for a continuous product distribution
    function in place of Lebesgue measure: the measure of the point part is
    piecewise constant on grid cells while mu is coordinatewise nondecreasing
    and continuous, so the open-box maximum is attained on the augmented grid
    and the closed-box maximum on the plain grid.
    """
    pts = _coerce(nu)[0]
    if G is not None and G.d != pts.shape[1]:
        raise ValueError("marginal table dimension mismatch")
    plain, aug = _grid_axes(pts)
    aug_size = 1
    for a in aug:
        aug_size *= len(a)
    if aug_size > budget:
        raise BudgetExceededError(
            f"augmented grid has {aug_size} corners, exceeding the budget "
            f"of {budget}; consider cover or heuristic bounds")
    return _grid_star(nu, aug, plain, G)


def _grid_star(nu, open_axes: list[np.ndarray], closed_axes: list[np.ndarray],
               G: MarginalCDF | None = None) -> StarResult:
    """Best open-box corner on ``open_axes`` and best closed-box corner on
    ``closed_axes``; the better of the two, recomputed at its corner.  Each
    side is searched in chunks of whole rows, so memory is one
    ``pointset._CHUNK``."""
    pts, w, is_plain = _coerce(nu)
    wts, n = (None, pts.shape[0]) if is_plain else (w, 1.0)
    best, corner = [], []
    for axes, side in ((open_axes, "open"), (closed_axes, "closed")):
        mu = axes if G is None else [G.marginal(j, a) for j, a in enumerate(axes)]
        val, idx = _grid_side_max(axes, mu, pts, wts, side, n)
        best.append(val)
        corner.append(np.array([a[i] for a, i in zip(axes, idx)]))
    if best[0] >= best[1]:
        return _result_at(nu, corner[0], "open", G)
    return _result_at(nu, corner[1], "closed", G)


def star_2d(X: PointSet) -> StarResult:
    """Exact star discrepancy in dimension two, by grid enumeration."""
    _check_dim(X, "2d")
    return star_grid_enum(X)


def star_3d(X: PointSet) -> StarResult:
    """Exact star discrepancy in dimension three, by grid enumeration."""
    _check_dim(X, "3d")
    return star_grid_enum(X)


# ---------------------------------------------------------------------------
# Dobkin-Eppstein-Mitchell decomposition
# ---------------------------------------------------------------------------

def _dem_cuts(coords: np.ndarray, forced: set, cap: int) -> list[float]:
    """Cut values along one axis: forced values plus enough extra cuts that
    every open gap holds at most ``cap`` strictly inside coordinates."""
    cuts = sorted(forced | {0.0, 1.0})
    final = [cuts[0]]
    for t in range(len(cuts) - 1):
        lo, hi = cuts[t], cuts[t + 1]
        inside = np.sort(coords[(coords > lo) & (coords < hi)])
        while inside.size > cap:
            v = float(inside[cap - 1])
            final.append(v)
            inside = inside[inside > v]
        final.append(hi)
    return final


def _dem_dp(cands: list[list[tuple[float, int]]], size: int, maximize: bool) -> list:
    """(count -> extremal volume) dynamic program of one cell.

    ``cands[j]`` lists coordinate j's candidate values, each with the number
    of the cell's internal points it counts.  Returns one state per count:
    ``(volume, corner)``, or None when no corner has that count.  Volumes are
    products taken left to right from 1.0, counts are visited in ascending
    order and candidates in list order, and only a strictly better volume
    replaces a state, so each state keeps the first extremal corner.
    """
    states: list = [(1.0, ())] + [None] * (size - 1)
    for cand in cands:
        nxt: list = [None] * size
        for c, state in enumerate(states):
            if state is None:
                continue
            vol, corner = state
            for v, cnt in cand:
                val = vol * v
                cur = nxt[c + cnt]
                if cur is None or (val > cur[0] if maximize else val < cur[0]):
                    nxt[c + cnt] = (val, corner + (v,))
        states = nxt
    return states


def star_dem(X: PointSet, validate: bool = False) -> StarResult:
    """Exact star discrepancy by recursive region decomposition.

    Space is subdivided one coordinate at a time into O(sqrt(n)) slabs per
    level, cutting at the coordinates of already-internal points (so no point
    is ever internal in two dimensions) and at extra coordinates so that no
    slab receives more than ceil(sqrt(n)) new internal points.  In a final
    cell every contained point is either below the lower corner in all
    coordinates or internal in exactly one, so the open/closed box counts
    separate per coordinate and a (count, extremal volume) dynamic program
    over per-coordinate candidate values finds the cell's best open and
    closed local discrepancies.  Grid corners are assigned to cells half-open
    on the lower side for open boxes and on the upper side for closed boxes,
    which makes the per-cell counts exact even with duplicate coordinates.

    A region at level j is passed as its bounds ``a`` and ``b`` (the first j
    lower and upper cut values), ``inside`` (the points in [0, b)) and
    ``idim``, which maps each point internal in some coordinate k < j
    (strictly between a_k and b_k while below b elsewhere) to that k.  Each DP
    state keeps the first extremal corner of its count and the best value is
    replaced only by a strictly larger one, so among tied corners the witness
    is the first met: regions in cut order, the open side before the closed
    side of each cell, counts in ascending order.

    ``validate`` additionally asserts the two decomposition invariants in
    every region (for tests; quadratic overhead).
    """
    n, d = X.n, X.d
    pts = X.points
    cap = math.isqrt(n)
    if cap * cap < n:
        cap += 1
    grids = [g.tolist() for g in _grid_axes(pts)[0]]
    best = [-np.inf, None, "open"]  # value, corner, kind

    def consider(states: list, sign: int, base: int, kind: str) -> None:
        for c, state in enumerate(states):
            if state is not None:
                val = sign * (state[0] - (base + c) / n)
                if val > best[0]:
                    best[:] = [val, state[1], kind]

    def check(j: int, a: tuple, b: tuple, inside: list, idim: dict) -> None:
        for i in inside:
            internal = [k for k in range(j) if a[k] < pts[i, k] < b[k]]
            assert len(internal) <= 1, "point internal in two dimensions"
            assert idim.get(i) == (internal[0] if internal else None)
        for k in range(j):
            cnt = sum(1 for i in inside if idim.get(i) == k)
            assert cnt <= cap, "too many internal points in one dimension"

    def cell(a: tuple, b: tuple, inside: list, idim: dict) -> None:
        per_dim: list[list[float]] = [[] for _ in range(d)]
        for i, j in idim.items():
            per_dim[j].append(float(pts[i, j]))
        # per coordinate, each distinct internal value counts the internal
        # points strictly below it on the open side and at or below it on the
        # closed side; the open side adds b_j (count = all), the closed side,
        # below the internal values, the smallest grid value in [a_j, b_j)
        # (count 0).  A coordinate without closed candidates has no closed box.
        open_c, closed_c = [], []
        for j, vals in enumerate(per_dim):
            vals.sort()
            distinct = list(dict.fromkeys(vals))
            open_c.append([(v, bisect.bisect_left(vals, v)) for v in distinct]
                          + [(b[j], len(vals))])
            closed = [(v, bisect.bisect_right(vals, v)) for v in distinct]
            g = grids[j]
            pos = bisect.bisect_left(g, a[j])
            if pos < len(g) and g[pos] < b[j] and (not closed or g[pos] < closed[0][0]):
                closed.insert(0, (g[pos], 0))
            closed_c.append(closed)
        base = len(inside) - len(idim)
        consider(_dem_dp(open_c, len(idim) + 1, True), 1, base, "open")
        if all(closed_c):
            consider(_dem_dp(closed_c, len(idim) + 1, False), -1, base, "closed")

    def recurse(j: int, a: tuple, b: tuple, inside: list, idim: dict) -> None:
        if validate:
            check(j, a, b, inside, idim)
        if j == d:
            cell(a, b, inside, idim)
            return
        coords = pts[inside, j] if inside else np.empty(0)
        segs = _dem_cuts(coords, {float(pts[i, j]) for i in idim}, cap)
        for lo, hi in zip(segs, segs[1:]):
            keep = [i for i in inside if pts[i, j] < hi]
            recurse(j + 1, a + (lo,), b + (hi,), keep,
                    {i: idim.get(i, j) for i in keep
                     if i in idim or lo < pts[i, j] < hi})

    recurse(0, (), (), list(range(n)), {})
    return _result_at(X, np.array(best[1]), best[2])


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def dem_cost_estimate(n: int, d: int) -> float:
    """Estimated elementary box evaluations of the decomposition, n^(d/2+1)."""
    return float(n) ** (d / 2.0 + 1.0)


def exact_method(d: int) -> str:
    """Name of the exact method :func:`star_exact` runs in dimension ``d``."""
    return f"{d}d" if d <= 3 else "dem"


def star_by_method(X: PointSet, method: str, budget: int) -> StarResult:
    """Run the exact method named "1d", "2d", "3d" or "dem".

    "2d" and "3d" enumerate the grid after checking the dimension and refuse
    when its augmented corner count exceeds ``budget``; the decomposition
    first checks its n^(d/2+1) work estimate against ``budget``.
    """
    if method == "1d":
        return star_1d(X)
    if method in ("2d", "3d"):
        _check_dim(X, method)
        return star_grid_enum(X, budget=budget)
    cost = dem_cost_estimate(X.n, X.d)
    if cost > budget:
        raise BudgetExceededError(
            f"exact computation needs about {cost:.3g} box evaluations, "
            f"exceeding the budget of {budget}; "
            f"use cover_bounds or ta_improved from discrepkit.linf_approx")
    return star_dem(X)


def star_exact(X: PointSet, budget: int = 50_000_000) -> StarResult:
    """Exact star discrepancy with dimension dispatch and a work budget.

    Dimension one uses Niederreiter's formula; dimensions two and three
    enumerate the grid when its augmented corner count fits the budget;
    higher dimensions use the decomposition when its n^(d/2+1) work estimate
    fits.  Otherwise a budget error reports the cost and suggests guaranteed
    or heuristic bounds instead.
    """
    return star_by_method(X, exact_method(X.d), budget)
