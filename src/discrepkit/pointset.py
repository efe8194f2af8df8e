"""Core geometry for anchored-box discrepancies.

Everything downstream is built on four small notions:

* a point set ``X`` of ``n`` points in ``[0,1)^d``,
* anchored test boxes ``[0,y)`` (open) and ``[0,y]`` (closed) for a corner
  ``y`` in ``[0,1]^d``,
* the local discrepancy at a corner, i.e. how far the box volume is from the
  fraction of points the box captures,
* the finite grids induced by the coordinate values of ``X``, on which every
  exact algorithm in this package searches.

Conventions are strict: points live in the half-open cube, corners in the
closed cube, and all membership tests are exact floating-point comparisons.
Discrepancy *values* carry rounding error; box membership never does.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BudgetExceededError",
    "PointSet",
    "WeightedPointSet",
    "GridView",
    "LocalDiscrepancy",
    "CriticalCorner",
    "volume",
    "local_discrepancy",
    "grid_view",
    "classify_critical",
    "enumerate_critical",
    "snap_down",
    "snap_up",
]


class BudgetExceededError(RuntimeError):
    """An enumeration or cost model exceeded the caller-supplied budget."""


def _as_points(points, d: int | None = None) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1) if d in (None, 1) else arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError("points must form a 2-d array of shape (n, d)")
    return arr


@dataclass(frozen=True)
class PointSet:
    """``n`` points in ``[0,1)^d``, the object whose discrepancy is measured.

    Duplicate points and duplicate coordinates are allowed; a coordinate
    equal to 1 is not.
    """

    points: np.ndarray

    def __init__(self, points, d: int | None = None):
        arr = _as_points(points, d)
        if arr.shape[0] < 1:
            raise ValueError("a point set needs at least one point")
        if d is not None and arr.shape[1] != d:
            raise ValueError(f"expected dimension {d}, got {arr.shape[1]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coordinates must be finite")
        if np.any(arr < 0.0) or np.any(arr >= 1.0):
            raise ValueError("coordinates must satisfy 0 <= c < 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def project(self, dims) -> "PointSet":
        """Orthogonal projection onto the coordinates in ``dims`` (0-based)."""
        dims = list(dims)
        if not dims:
            raise ValueError("projection needs at least one coordinate")
        return PointSet(self.points[:, dims])


@dataclass(frozen=True)
class WeightedPointSet:
    """Points with arbitrary real weights; models signed discrete measures."""

    weights: np.ndarray
    points: np.ndarray

    def __init__(self, weights, points, d: int | None = None):
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        arr = _as_points(points, d)
        if arr.shape[0] != w.shape[0]:
            raise ValueError("one weight per point required")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(arr)):
            raise ValueError("weights and coordinates must be finite")
        if np.any(arr < 0.0) or np.any(arr >= 1.0):
            raise ValueError("coordinates must satisfy 0 <= c < 1")
        w, arr = w.copy(), arr.copy()
        w.flags.writeable = False
        arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @classmethod
    def equal_weights(cls, X: PointSet) -> "WeightedPointSet":
        return cls(np.full(X.n, 1.0 / X.n), X.points)


def _as_corner(y, d: int) -> np.ndarray:
    arr = np.asarray(y, dtype=np.float64).reshape(-1)
    if arr.shape[0] != d:
        raise ValueError(f"corner has dimension {arr.shape[0]}, expected {d}")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("corner coordinates must lie in [0, 1]")
    return arr


def volume(y) -> float:
    """Volume of the anchored box with upper corner ``y`` (product of coords)."""
    arr = np.asarray(y, dtype=np.float64).reshape(-1)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("corner coordinates must lie in [0, 1]")
    return float(np.multiply.reduce(arr))


@dataclass(frozen=True)
class LocalDiscrepancy:
    """Local discrepancy data of one test corner."""

    delta: float          # volume - open_count/n
    delta_bar: float      # closed_count/n - volume
    delta_star: float     # max of the two
    open_count: int
    closed_count: int
    volume: float


def _count_open(pts: np.ndarray, y: np.ndarray, w: np.ndarray | None = None):
    """Points of ``pts`` in the open box [0, y): their number, or with ``w``
    their total weight.  No validation; the kernel of one-off and weighted
    open counts (the heuristics count on ``_Workspace``)."""
    inside = np.all(pts < y, axis=1)
    return int(np.count_nonzero(inside)) if w is None else float(np.sum(w[inside]))


def _count_closed(pts: np.ndarray, y: np.ndarray, w: np.ndarray | None = None):
    """Points of ``pts`` in the closed box [0, y]: their number, or with ``w``
    their total weight.  No validation; the kernel of one-off and weighted
    closed counts (the heuristics count on ``_Workspace``)."""
    inside = np.all(pts <= y, axis=1)
    return int(np.count_nonzero(inside)) if w is None else float(np.sum(w[inside]))


def local_discrepancy(y, X: PointSet) -> LocalDiscrepancy:
    """Evaluate open/closed counts and local discrepancies at corner ``y``."""
    yv = _as_corner(y, X.d)
    a = _count_open(X.points, yv)
    ab = _count_closed(X.points, yv)
    v = volume(yv)
    delta = v - a / X.n
    delta_bar = ab / X.n - v
    return LocalDiscrepancy(delta, delta_bar, max(delta, delta_bar), a, ab, v)


def _grid_axes(pts: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(plain, augmented) axes of the grids induced by an (n, d) array.

    ``plain[j]`` is the increasing list of distinct j-th coordinates and
    ``aug[j]`` the same list with 1 appended unless already present (atoms of
    a measure may sit at 1).  No validation; every grid in the package is
    built here.
    """
    plain = [np.unique(pts[:, j]) for j in range(pts.shape[1])]
    aug = [v if v[-1] == 1.0 else np.append(v, 1.0) for v in plain]
    return plain, aug


@dataclass(frozen=True)
class GridView:
    """Per-coordinate sorted coordinate values of a point set.

    ``values[j]`` is the strictly increasing list of distinct j-th
    coordinates and ``aug_values[j]`` the same list with 1 appended.  The
    Cartesian products of these lists are the finite search spaces on which
    the open/closed local discrepancies attain the star discrepancy.
    """

    values: tuple
    aug_values: tuple
    sizes: tuple

    @property
    def grid_size(self) -> int:
        """Number of corners in the closed-side grid (product of sizes)."""
        out = 1
        for v in self.values:
            out *= len(v)
        return out


def grid_view(X: PointSet) -> GridView:
    plain, aug = _grid_axes(X.points)
    for v in plain + aug:
        v.flags.writeable = False
    return GridView(tuple(plain), tuple(aug), tuple(len(a) for a in aug))


def classify_critical(y, X: PointSet) -> tuple[bool, bool]:
    """Classify a corner as (delta-critical, deltabar-critical).

    A corner is delta-critical if every feasible enlargement of the open box
    strictly increases the point count (vacuously so where no enlargement is
    feasible), and deltabar-critical if every feasible shrinking of the
    closed box strictly decreases it.  Counts are piecewise constant, so it
    suffices to test a single-coordinate move to the neighboring grid value.
    """
    yv = _as_corner(y, X.d)
    pts = X.points
    plain, aug = _grid_axes(pts)
    a0 = _count_open(pts, yv)
    ab0 = _count_closed(pts, yv)

    is_delta = True
    for j in range(X.d):
        if yv[j] == 1.0:
            continue
        av = aug[j]
        nxt = av[np.searchsorted(av, yv[j], side="right")]
        y2 = yv.copy()
        y2[j] = nxt
        if _count_open(pts, y2) == a0:
            is_delta = False
            break

    is_deltabar = True
    for j in range(X.d):
        if yv[j] == 0.0:
            continue
        vals = plain[j]
        pos = np.searchsorted(vals, yv[j], side="left")
        prev = vals[pos - 1] if pos > 0 else 0.0
        y2 = yv.copy()
        y2[j] = prev
        if _count_closed(pts, y2) == ab0:
            is_deltabar = False
            break

    return is_delta, is_deltabar


@dataclass(frozen=True)
class CriticalCorner:
    corner: np.ndarray
    kind: str   # "delta" (open box) or "deltabar" (closed box)
    count: int  # open count for "delta", closed count for "deltabar"


def _count_tensor(axes: list[np.ndarray], pts: np.ndarray, w: np.ndarray | None,
                  side: str | list[str]) -> np.ndarray:
    """Cumulative weight tensor over the corner grid.

    Entry [t_1..t_d] is the total weight of points in the open box (side
    "open", strict comparisons) or closed box (side "closed") at the corner
    (axes[0][t_1], ..., axes[d-1][t_d]); ``side`` may also give one of the
    two per axis.  With ``w`` None, integer unit counts are accumulated
    instead (exact and faster).
    """
    keep, cells = _grid_cells(axes, pts, side)
    return _prefix_sums(tuple(len(a) for a in axes), cells,
                        None if w is None else w[keep])


def _grid_cells(axes: list[np.ndarray], pts: np.ndarray,
                side: str | list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(keep, cells): which points lie in some box of the corner grid, and
    for each of those the flat index of the smallest corner whose box holds
    it.  ``side`` as for :func:`_count_tensor`."""
    sides = [side] * len(axes) if isinstance(side, str) else side
    shape = tuple(len(a) for a in axes)
    idx = np.empty((pts.shape[0], len(axes)), dtype=np.int64)
    for j, a in enumerate(axes):
        srt = "right" if sides[j] == "open" else "left"
        idx[:, j] = np.searchsorted(a, pts[:, j], side=srt)
    keep = np.all(idx < np.array(shape), axis=1)
    return keep, np.ravel_multi_index(tuple(idx[keep].T), shape)


def _prefix_sums(shape: tuple, cells: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Deposit ``w[i]`` (a unit count with ``w`` None) at flat cell
    ``cells[i]``, in order, then take prefix sums along every axis."""
    H = np.zeros(shape, dtype=np.int32 if w is None else np.float64)
    np.add.at(H.reshape(-1), cells, np.int32(1) if w is None else w)
    for ax in range(len(shape)):
        np.cumsum(H, axis=ax, out=H)
    return H


def _critical_corners(points: np.ndarray, plain: list, aug: list,
                      w: np.ndarray | None = None) -> list:
    """Critical corners of the induced grids with their box contents.

    Returns [(corners, contents)] for the open side (augmented grid), then
    the closed side (plain grid), each in grid order: ``corners`` is (B, d)
    and ``contents`` the points in each box, counted, or weighed with ``w``.
    Open side: a corner is critical when in every coordinate either the
    value is 1 or some point sits exactly at the value while lying strictly
    inside the box in all other coordinates.  Closed side: some point sits
    at the value while lying weakly inside elsewhere.  This single-coordinate
    rule leaves out the origin corner when no point sits there, although it
    is vacuously deltabar-critical.
    """
    d = points.shape[1]
    out = []
    for axes, side in ((aug, "open"), (plain, "closed")):
        mask = np.ones(tuple(len(a) for a in axes), dtype=bool)
        for j in range(d):
            # points at the value in coordinate j (the axes hold every
            # coordinate), inside the box in the others
            sides = [side] * d
            sides[j] = "closed"
            counts = _count_tensor(axes, points, None, sides)
            at_j = np.diff(counts, axis=j, prepend=0) > 0
            if side == "open":  # a coordinate at 1 needs no enlargement witness
                at_j[(slice(None),) * j + (-1,)] = True
            mask &= at_j
        idx = np.nonzero(mask)
        corners = np.stack([axes[j][idx[j]] for j in range(d)], axis=1)
        out.append((corners, _count_tensor(axes, points, w, side)[idx]))
    return out


def enumerate_critical(X: PointSet, k: int | None = None,
                       budget: int = 1_000_000) -> list[CriticalCorner]:
    """All critical corners of the induced grids, optionally filtered by count.

    Delta-critical corners are searched in the augmented grid, deltabar ones
    in the plain grid.  With ``k`` given, only corners whose relevant count
    equals ``k`` are returned.  Intended for small instances; the total
    number of grid corners visited is capped by ``budget``.
    """
    plain, aug = _grid_axes(X.points)
    total = math.prod(len(a) for a in aug) + math.prod(len(v) for v in plain)
    if total > budget:
        raise BudgetExceededError(
            f"induced grid has {total} corners, exceeding the budget of {budget}")
    (open_y, open_c), (closed_y, closed_c) = _critical_corners(X.points, plain, aug)
    if all(v[0] == 0.0 for v in plain) and not np.any(np.all(closed_y == 0.0, axis=1)):
        # no coordinate of the origin can shrink: critical though empty
        closed_y = np.vstack([np.zeros((1, X.d)), closed_y])
        closed_c = np.append(0, closed_c)
    return [CriticalCorner(y, kind, int(c))
            for ys, cs, kind in ((open_y, open_c, "delta"), (closed_y, closed_c, "deltabar"))
            for y, c in zip(ys, cs) if k is None or c == k]


# Points per block of the rank-bitset workspace.  Its bitsets take about
# d * _BLOCK / 7.5 bytes per point, so memory stays linear in n, while each
# count and snap does one pass of Python work per block.  Per-move times for
# n = 64 ... 8192 fall with every doubling of the block
# (scripts/block_size_timing.py); 2048 is the largest power of two that keeps
# the workspace of 20,000 points in d = 3 below 32 MB.
_BLOCK = 2048


def _rank_bitsets(col: np.ndarray) -> tuple[list, list]:
    """(vals, sets) of one coordinate column of a block: ``vals`` its
    distinct values in increasing order, ``sets[t]`` the bitset of the
    points (bit i for row i) with a value below ``vals[t]``, and a last
    entry holding every point."""
    vals, sets, acc = [], [], 0
    order = np.argsort(col, kind="stable")
    for i, v in zip(order.tolist(), col[order].tolist()):
        if not vals or v != vals[-1]:
            vals.append(v)
            sets.append(acc)
        acc |= 1 << i
    sets.append(acc)
    return vals, sets


class _Workspace:
    """Rank bitsets of one point set, for counts and snaps at many corners.

    The points are split into blocks of at most ``_BLOCK``; each block keeps
    per axis the ``_rank_bitsets`` of its own coordinates.  The open box
    [0, y) of a block is the AND over the axes of sets[bisect_left(vals,
    y_j)], the closed box [0, y] that of sets[bisect_right(vals, y_j)], and
    a count is the popcount summed over the blocks.  The grids of the whole
    set are kept as lists: ``plain``, ``aug`` and ``sizes`` (of ``aug``).
    No validation; the kernel of every count and snap the heuristics make.
    """

    def __init__(self, pts: np.ndarray):
        self.n, self.d = pts.shape
        plain, aug = _grid_axes(pts)
        self.plain = [v.tolist() for v in plain]
        self.aug = [a.tolist() for a in aug]
        self.sizes = [len(a) for a in self.aug]
        self.blocks = []
        for start in range(0, self.n, _BLOCK):
            vals, sets = zip(*map(_rank_bitsets, pts[start:start + _BLOCK].T))
            self.blocks.append((vals, sets))

    def corner(self, idx: list) -> list:
        return [a[t] for a, t in zip(self.aug, idx)]

    def _count(self, y: list, side) -> int:
        total = 0
        for vals, sets in self.blocks:
            inside = -1
            for v, s, c in zip(vals, sets, y):
                inside &= s[side(v, c)]
            total += inside.bit_count()
        return total

    def delta(self, y: list) -> float:
        """Open-box local discrepancy V(y) - A(y)/n."""
        return math.prod(y) - self._count(y, bisect_left) / self.n

    def delta_bar(self, y: list) -> float:
        """Closed-box local discrepancy A-bar(y)/n - V(y)."""
        return self._count(y, bisect_right) / self.n - math.prod(y)

    def delta_star(self, y: list) -> float:
        return max(self.delta(y), self.delta_bar(y))

    def snap_up(self, y: list, rng) -> list:
        """Raise the coordinates of ``y`` in the order ``rng.permutation(d)``,
        each to the smallest j-th coordinate not below y_j of a point inside
        the current box in every other coordinate, or to 1 if there is none.

        ``run`` holds per block and axis the points below the current
        corner; the smallest blocking value in a block is found by bisecting
        over its grid positions with AND tests, and the blocks' minimum wins.
        """
        z = list(y)
        run = [[s[bisect_left(v, c)] for v, s, c in zip(vals, sets, z)]
               for vals, sets in self.blocks]
        for j in rng.permutation(self.d).tolist():
            zj = 1.0
            for (vals, sets), below in zip(self.blocks, run):
                v, s = vals[j], sets[j]
                blocking = s[-1] & ~below[j]
                for i, b in enumerate(below):
                    if i != j:
                        blocking &= b
                hi = bisect_left(v, zj)  # only values below zj can lower it
                if blocking & s[hi]:
                    zj = v[bisect_right(s, 0, 0, hi, key=blocking.__and__) - 1]
            z[j] = zj
            for (vals, sets), below in zip(self.blocks, run):
                below[j] = sets[j][bisect_left(vals[j], zj)]
        return z


def _snap_down(y, plain: list) -> list:
    """Floor every coordinate of ``y`` into ``plain[j] + {0}``; no validation.
    The grids may be lists (fastest per call) or arrays (no conversion)."""
    out = []
    for vals, c in zip(plain, y):
        pos = bisect_right(vals, c)
        out.append(vals[pos - 1] if pos else 0.0)
    return out


def snap_down(y, X: PointSet) -> np.ndarray:
    """Round each coordinate down to the nearest value in its grid (or 0).

    The result is the grid corner obtained by flooring every coordinate into
    ``values[j] + {0}``.  Point-in-closed-box outcomes are unchanged for every
    point, so the closed count is preserved and the closed-box local
    discrepancy never decreases.  The floor is unique, hence deterministic.
    """
    return np.array(_snap_down(_as_corner(y, X.d), _grid_axes(X.points)[0]))


def snap_up(y, X: PointSet, rng) -> np.ndarray:
    """Greedily raise coordinates onto the augmented grid without capturing points.

    Coordinates are processed in an order drawn uniformly at random from
    ``rng``; each is raised to the largest augmented-grid value that keeps the
    open count unchanged given the other (current) coordinates.  The result is
    maximal: raising any single coordinate further would capture a point.  The
    open-box local discrepancy never decreases.
    """
    yv = _as_corner(y, X.d).tolist()
    return np.array(_Workspace(X.points).snap_up(yv, np.random.default_rng(rng)))
