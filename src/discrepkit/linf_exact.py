"""Exact L-infinity star discrepancy.

The star discrepancy of a finite point set is attained on the finite grids
induced by the coordinate values of the set: the open-box local discrepancy
is maximized over the augmented grid (coordinate values plus 1) and the
closed-box one over the plain grid (Niederreiter 1972).  Everything in this
module is a strategy for searching those grids:

* :func:`star_1d` -- Niederreiter's sorted-order formula in dimension one.
* :func:`star_grid_enum` -- search of the induced grids.  With unit counts a
  coarse pass per side bounds blocks of 2 corners per axis from their corners
  (Thiemard's bracketing); blocks below the better side's incumbent are
  pruned and the rest refined when that costs less than the grid.  Otherwise,
  and for signed weights, the grid is counted and searched by prefix sums
  over chunks of whole rows, so memory is one chunk (``pointset._CHUNK``).
  Both sides of a delta-cover share one walk when no point sits on a level:
  the closed maximum is the first argmin of mu - c negated, bitwise as
  fl(c - mu) = -fl(mu - c).  Also handles a continuous marginal distribution
  for the volume.
* :func:`star_2d`, :func:`star_3d` -- grid enumeration, which outran the
  O(n^2) and O(n^3) sweeps of De Clerck and Bundschuh-Zhu at every size tried.
* :func:`star_dem` -- the decomposition scheme of Dobkin, Eppstein and
  Mitchell (1996) built on the Overmars-Yap partition: O(n^(d/2)) cells in
  which box counts separate per coordinate, each solved by a small dynamic
  program over (count, extremal volume) states.
* :func:`star_by_method` -- the one dispatcher; :func:`star_exact` runs its
  "auto" rule: the 1-d formula, else the grid search when its grid fits the
  budget, else the decomposition.  All but the 1-d formula check their cost.

Every result carries a witness corner and names the algorithm that ran
("1d", "grid" or "dem"); its value is the local discrepancy recomputed at
the witness, so callers can verify any output independently.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import pointset
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
    """A star discrepancy value, its verifying corner and the algorithm that ran."""

    value: float
    witness: np.ndarray
    kind: str  # "open" (delta witness) or "closed" (deltabar witness)
    method: str  # "1d", "grid" or "dem"

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


def local_values(nu, y, G: MarginalCDF | None = None) -> tuple[float, float]:
    """(open, closed) local discrepancies of a possibly weighted set at y.

    Open: mu([0,y)) minus the weight in the open box; closed: weight in the
    closed box minus mu.  This is the recomputation hook used to verify
    witnesses of every exact algorithm.
    """
    pts, w, is_plain = _coerce(nu)
    yv = np.asarray(y, dtype=np.float64).reshape(-1)
    mu = volume(yv) if G is None else G.value(yv)
    if is_plain:
        n = pts.shape[0]
        return mu - _count_open(pts, yv) / n, _count_closed(pts, yv) / n - mu
    return mu - _count_open(pts, yv, w), _count_closed(pts, yv, w) - mu


def _result_at(nu, y: np.ndarray, kind: str, method: str, G=None) -> StarResult:
    op, cl = local_values(nu, y, G)
    return StarResult(op if kind == "open" else cl, y.copy(), kind, method)


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
        return _result_at(X, np.array([xs[ic]]), "closed", "1d")
    return _result_at(X, np.array([xs[io]]), "open", "1d")


# ---------------------------------------------------------------------------
# grid search: bracketed blocks, or streamed prefix sums
# ---------------------------------------------------------------------------

def _bracket_blocks(axes: list[np.ndarray], mu_axes: list[np.ndarray], pts: np.ndarray,
                    side: str, n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(best, blocks, bounds) of one coarse pass over blocks of 2 corners per
    axis.  It counts the blocks' lower corners l (open side) or upper corners
    h (closed side), grid corners all, so ``best`` is an exact incumbent, and
    keeps the flat ``blocks`` (in grid order) and ``bounds`` where the bound
    V(h) - A(l)/n or A-bar(h)/n - V(l) is not below the best of earlier chunks."""
    lo = [np.arange(0, len(a), 2) for a in axes]
    hi = [np.minimum(i + 1, len(a) - 1) for i, a in zip(lo, axes)]
    own, other = (lo, hi) if side == "open" else (hi, lo)
    mus = [[m[i] for m, i in zip(mu_axes, idx)] for idx in (own, other)]
    cells = _grid_cells([a[i] for a, i in zip(axes, own)], pts, side)
    best, kept = -np.inf, []
    for r0, H in _grid_rows(tuple(map(len, lo)), cells, None):
        c = np.divide(H, n)
        vals = (np.subtract(*((v, c) if side == "open" else (c, v)), out=v) for v in
                (reduce(np.multiply.outer, [m[0][r0 : r0 + len(H)], *m[1:]]) for m in mus))
        best = max(best, float(next(vals).max()))  # one chunk-sized array at a time
        bound = next(vals)
        keep = np.flatnonzero(bound >= best)
        kept.append((keep + r0 * H[0].size, bound.flat[keep]))
    return best, *map(np.concatenate, zip(*kept))


def _refine(blocks: np.ndarray, shape: tuple, mu_axes: list[np.ndarray], cells: np.ndarray,
            side: str, n: int) -> tuple[float, tuple]:
    """(max, index) of one side's local discrepancy over the 2^d corners of
    the blocks of :func:`_bracket_blocks`, in batches of about
    ``pointset._CHUNK`` entries.  A block's count is its base (the points in
    the box of its lower corner) plus its window points (in the box of its
    upper corner only) prefix-summed over its own axes; a corner clipped at
    the grid's edge repeats a corner of the block, value and index."""
    d = len(shape)
    C = np.unravel_index(cells[cells >= 0], shape)
    offs = np.indices((2,) * d).reshape(d, -1, 1)
    step = max(1, pointset._CHUNK // (2 ** d + len(C[0]) * d))
    best, best_flat = -np.inf, 0
    for s in range(0, len(blocks), step):
        b = blocks[s : s + step]
        L = [2 * i for i in np.unravel_index(b, [(k + 1) // 2 for k in shape])]  # lower corners
        base, box, loc = True, True, 0
        for j in range(d):
            above = C[j] > L[j][:, None]
            base, box, loc = base & ~above, box & (C[j] <= L[j][:, None] + 1), 2 * loc + above
        bi, pi = np.nonzero(box & ~base)
        cnt = np.bincount(loc[bi, pi] * len(b) + bi, minlength=2 ** d * len(b))
        cnt = cnt.reshape((2,) * d + (len(b),))
        for ax in range(d):
            np.cumsum(cnt, axis=ax, out=cnt)
        K = [np.minimum(L[j] + offs[j], shape[j] - 1) for j in range(d)]
        mu = reduce(np.multiply, [m[k] for m, k in zip(mu_axes, K)])
        c = (cnt.reshape(2 ** d, -1) + base.sum(axis=1)) / n
        vals = mu - c if side == "open" else c - mu
        v = float(vals.max())
        flat = int(np.ravel_multi_index(K, shape)[vals == v].min())
        if (v, -flat) > (best, -best_flat):
            best, best_flat = v, flat
    return best, np.unravel_index(best_flat, shape)


def _grid_side_max(grids: dict, pts: np.ndarray, w: np.ndarray | None, n: float) -> dict:
    """(max, index) of each side of ``grids``, which maps "open" or "closed" to
    (axes, mu_axes), of the open (mu - weight) or closed (weight - mu) local
    discrepancy over the corner grid ``axes``, weights ``w`` (unit counts with
    None) over ``n``.  mu is the product of per-axis factors, taken left to
    right as :func:`local_values` takes it, so a maximum is bitwise the best
    value any corner recomputes to; ties go to the first corner in grid order.

    Unit counts with nondecreasing factors (never negative: coordinates or
    distribution values) first bracket every side (:func:`_bracket_blocks`):
    rounded products, quotients and differences are monotone, so a block's
    bound is at least every value in it as computed.  A block is pruned when
    its bound is strictly below the larger of the sides' incumbents, so every
    corner of the maximum over all sides survives, ties included; a losing side
    may keep no block and read -inf.  A side refines its blocks
    (:func:`_refine`) when their work, blocks times (2^d + n*d), is below its
    corner count.  Otherwise, and always with weights, whose signs void the
    bound, the grid is searched chunk by chunk as :func:`_grid_rows` counts it,
    on mu - weight: the open maximum is its first argmax, the closed one its
    first argmin negated, bitwise as fl(c - mu) = -fl(mu - c) (a zero may read
    -0.0).  So two sides on one axes list whose cells agree (no point on a
    level) share one walk when either streams."""
    cells = {s: _grid_cells(axes, pts, s) for s, (axes, _) in grids.items()}
    coarse = {s: _bracket_blocks(axes, mu, pts, s, n) for s, (axes, mu) in grids.items()
              if w is None and all(np.all(np.diff(m) >= 0) for m in mu)}
    top = max((best for best, _, _ in coarse.values()), default=-np.inf)
    refine = {}
    for s, (_, blocks, bounds) in coarse.items():
        blocks = blocks[bounds >= top]
        if len(blocks) * (2 ** pts.shape[1] + pts.size) < math.prod(map(len, grids[s][0])):
            refine[s] = blocks
    coarse = blocks = bounds = None  # the coarse pass is not kept through a walk
    if (len(refine) < 2 and len(grids) == 2 and grids["open"][0] is grids["closed"][0]
            and np.array_equal(cells["open"], cells["closed"])):
        refine, walks = {}, [["open", "closed"]]
    else:
        walks = [[s] for s in grids if s not in refine]
    found = {s: _refine(refine.pop(s), tuple(map(len, grids[s][0])), grids[s][1],
                        cells.pop(s), s, n) for s in list(refine)}
    for walk in walks:
        axes, mu_axes = grids[walk[0]]
        shape = tuple(map(len, axes))
        best = dict.fromkeys(walk, (-np.inf, 0))
        for r0, H in _grid_rows(shape, cells[walk[0]], w):
            mu = reduce(np.multiply.outer, [mu_axes[0][r0 : r0 + len(H)], *mu_axes[1:]])
            c = np.divide(H, n)
            vals = np.subtract(mu, c, out=c)  # not into mu: at d = 1 it views mu_axes[0]
            for side in walk:
                pos = int(np.argmax(vals) if side == "open" else np.argmin(vals))
                v = float(vals.flat[pos]) if side == "open" else -float(vals.flat[pos])
                if v > best[side][0]:
                    best[side] = (v, pos + r0 * H[0].size)
        found.update((s, (v, np.unravel_index(f, shape))) for s, (v, f) in best.items())
    return found


def star_grid_enum(nu, G: MarginalCDF | None = None,
                   budget: int = 20_000_000) -> StarResult:
    """Star discrepancy by search of the induced grids: bracketed and refined
    block by block for unit counts where the surviving blocks cost less than
    the grid, otherwise counted and searched in chunks of whole rows, so
    memory is one chunk (``pointset._CHUNK``).  Either way the value, the
    witness (the first maximal corner in grid order) and the kind are those
    of full enumeration, bit for bit (:func:`_grid_side_max`).

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
    aug_size = math.prod(map(len, aug))
    if aug_size > budget:
        raise BudgetExceededError(
            f"augmented grid has {aug_size} corners, exceeding the budget "
            f"of {budget}; consider cover or heuristic bounds")
    return _grid_star(nu, aug, plain, G)


def _grid_star(nu, open_axes: list[np.ndarray], closed_axes: list[np.ndarray],
               G: MarginalCDF | None = None) -> StarResult:
    """Best open-box corner on ``open_axes`` and closed-box corner on
    ``closed_axes``, the better recomputed at its corner; a delta-cover passes
    one axes list for both, whose sides may then share a walk."""
    pts, w, is_plain = _coerce(nu)
    wts, n = (None, pts.shape[0]) if is_plain else (w, 1.0)
    grids = {s: (axes, axes if G is None else [G.marginal(j, a) for j, a in enumerate(axes)])
             for s, axes in (("open", open_axes), ("closed", closed_axes))}
    found = _grid_side_max(grids, pts, wts, n)
    kind = "open" if found["open"][0] >= found["closed"][0] else "closed"
    y = np.array([a[i] for a, i in zip(grids[kind][0], found[kind][1])])
    return _result_at(nu, y, kind, "grid", G)


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
    return _result_at(X, np.array(best[1]), best[2], "dem")


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def dem_cost_estimate(n: int, d: int) -> float:
    """Estimated elementary box evaluations of the decomposition, n^(d/2+1)."""
    return float(n) ** (d / 2.0 + 1.0)


def star_by_method(X: PointSet, method: str, budget: int) -> StarResult:
    """Run the exact method named "1d", "2d", "3d", "grid" or "dem", or the
    one "auto" chooses: "1d" at d = 1, the grid search up to d = 3, and from
    d = 4 on the grid search when the augmented grid's corner count fits
    ``budget``, otherwise "dem".  The grid search ("2d" and "3d" check the
    dimension first) refuses when the augmented corner count exceeds
    ``budget``, the decomposition when its n^(d/2+1) work estimate does.
    Any other method name is refused with a ValueError.

    The grid search was the faster on all of 135 sets in d = 4..8 at the
    default budget (median 6.9 times).  Uniform sets in d = 4 cross over near
    2.4*10^9 corners (n = 220), 50 times the default budget; above it the
    decomposition is the faster (4.4*10^9 corners: 3.4 s against the grid's
    5.4 s and 4 times the memory)."""
    names = ("auto", "1d", "2d", "3d", "grid", "dem")
    if method not in names:
        raise ValueError(f"unknown exact method {method!r}; expected one of {', '.join(names)}")
    if method == "auto":
        fits = X.d <= 3 or math.prod(map(len, _grid_axes(X.points)[1])) <= budget
        method = "1d" if X.d == 1 else "grid" if fits else "dem"
    if method in ("2d", "3d"):
        _check_dim(X, method)
    if method in ("2d", "3d", "grid"):
        return star_grid_enum(X, budget=budget)
    if method == "1d":
        return star_1d(X)
    cost = dem_cost_estimate(X.n, X.d)
    if cost > budget:
        raise BudgetExceededError(
            f"exact computation needs about {cost:.3g} box evaluations, "
            f"exceeding the budget of {budget}; "
            f"use cover_bounds or ta_improved from discrepkit.linf_approx")
    return star_dem(X)


def star_exact(X: PointSet, budget: int = 50_000_000) -> StarResult:
    """Exact star discrepancy by the method :func:`star_by_method` chooses
    under a work budget; when neither the grid nor the decomposition fits, a
    budget error reports the decomposition's cost and suggests guaranteed or
    heuristic bounds instead."""
    return star_by_method(X, "auto", budget)
