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
        if arr.shape[0] < 1:
            raise ValueError("a point set needs at least one point")
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
        return math.prod(map(len, self.values))


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
    closed box strictly decreases it.  Counts are piecewise constant, so a
    single-coordinate move decides it, the rule of :func:`_critical_corners`:
    in every coordinate j, delta needs y_j = 1 or a point at y_j lying
    strictly inside the box in the other coordinates, deltabar needs y_j = 0
    or a point at y_j lying weakly inside elsewhere.
    """
    yv = _as_corner(y, X.d)
    pts = X.points

    def single_rule(inside, vacuous):
        rest = inside.sum(axis=1, keepdims=True) - inside == X.d - 1
        return bool(np.all(vacuous | np.any((pts == yv) & rest, axis=0)))

    return single_rule(pts < yv, yv == 1.0), single_rule(pts <= yv, yv == 0.0)


@dataclass(frozen=True)
class CriticalCorner:
    corner: np.ndarray
    kind: str   # "delta" (open box) or "deltabar" (closed box)
    count: int  # open count for "delta", closed count for "deltabar"


def _grid_cells(axes: list[np.ndarray], pts: np.ndarray,
                side: str | list[str]) -> np.ndarray:
    """Each point's flat cell in the corner grid: the index of the smallest
    corner whose box holds it, or -1 if no box does.  Boxes are open (side
    "open", strict comparisons) or closed (side "closed"); ``side`` may also
    give one of the two per axis."""
    sides = [side] * len(axes) if isinstance(side, str) else side
    shape = tuple(len(a) for a in axes)
    idx = np.empty((pts.shape[0], len(axes)), dtype=np.int64)
    for j, a in enumerate(axes):
        srt = "right" if sides[j] == "open" else "left"
        idx[:, j] = np.searchsorted(a, pts[:, j], side=srt)
    cells = np.ravel_multi_index(tuple(idx.T), shape, mode="clip")
    return np.where(np.all(idx < np.array(shape), axis=1), cells, -1)


# Corners per chunk of whole rows in which every grid is counted; a chunk
# holds at least 2^15 corners or one row, whichever is larger.
_CHUNK = 1 << 15

# Entries per chunk tensor when several weightings (lanes) walk one grid
# together: 2 MiB.  Nearest-mass forward reduction of 100 atoms in d = 2 to
# 10, best of 5 on 2 cores, at 2^15..2^20 entries: 96, 81, 60, 49, 44, 39 ms
# (104 ms with one walk per candidate).
_LANES = 1 << 18

# Entries per slice from which a prefix along an axis runs as one add per
# slice, 2-5 times faster than np.cumsum; thinner slices cost a call each.
_SLICED = 1024


def _lanes(shape: tuple) -> int:
    """Lanes a walk over the grid ``shape`` takes at once: as many as keep
    each chunk's tensor within ``_LANES`` entries, at least one."""
    row = math.prod(shape[1:])
    return max(1, _LANES // (min(shape[0], max(1, _CHUNK // row)) * row))


def _grid_rows(shape: tuple, cells: np.ndarray, w: np.ndarray | None):
    """The cumulative weight tensor over the corner grid ``shape``, in chunks
    of whole rows: yields (r0, H), H the tensor's rows from r0 on, so memory
    is one chunk (``_CHUNK``).  ``w[i]`` (a unit count with ``w`` None,
    summed exactly in int32) is deposited at flat cell ``cells[i]`` unless
    that is -1, in order, and prefix sums run along every axis in turn, axis
    0 continuing from the chunk before.  Each entry adds the operands of one
    np.cumsum per axis of the whole tensor in its order: bitwise.  Every
    grid count in the package is formed here.

    ``w`` may have a trailing lane axis, one weighting per lane; H then has
    it too and prefix sums run along the grid axes only, so each lane of H
    is bitwise the walk of its weights alone, a chunk holding the same rows.
    """
    row = math.prod(shape[1:])
    step = max(1, _CHUNK // row)
    order = cells.argsort(kind="stable")  # -1s first, then each chunk's deposits as a slice
    cells, w = cells[order], None if w is None else w[order]
    lanes = () if w is None else w.shape[1:]
    carry = np.zeros(shape[1:] + lanes, dtype=np.int32 if w is None else np.float64)
    for r0 in range(0, shape[0], step):
        lo, hi = cells.searchsorted([r0 * row, (r0 + step) * row])
        H = np.zeros((min(step, shape[0] - r0),) + carry.shape, dtype=carry.dtype)
        at = cells[lo:hi] - r0 * row
        if lanes:  # flat index cell * B + lane: each entry's adds keep their order
            at = (at[:, None] * lanes[0] + np.arange(lanes[0])).ravel()
        np.add.at(H.reshape(-1), at, np.int32(1) if w is None else w[lo:hi].ravel())
        if r0:
            H[0] += carry
        for ax in range(len(shape)):
            if H.size < _SLICED * H.shape[ax]:
                H.cumsum(axis=ax, out=H)
            else:
                V = np.moveaxis(H, ax, 0)
                for i in range(1, H.shape[ax]):
                    np.add(V[i - 1, ...], V[i, ...], out=V[i, ...])
            if ax == 0:
                carry[...] = H[-1]
        yield r0, H


def _critical_corners(points: np.ndarray, axes: list, side: str,
                      w: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Critical corners of one side of the induced grids with their box
    contents: the open side on the augmented grid ``axes``, the closed side
    on the plain one.

    Returns (corners, contents) in grid order: ``corners`` is (B, d) and
    ``contents`` the points in each box, counted, or weighed with ``w``.
    Open side: a corner is critical when in every coordinate either the
    value is 1 or some point sits exactly at the value while lying strictly
    inside the box in all other coordinates.  Closed side: some point sits
    at the value while lying weakly inside elsewhere, so each closed corner
    is the componentwise maximum of the points in its box.  This
    single-coordinate rule leaves out the origin corner when no point sits
    there, although it is vacuously deltabar-critical.

    The axes hold every coordinate, so with F_j the count over boxes of the
    other side on axis j alone, the points at the value in coordinate j and
    inside elsewhere are exactly those of F_j != count.  All the counts are
    walked chunk by chunk together.
    """
    d = points.shape[1]
    shape = tuple(len(a) for a in axes)
    flip = "closed" if side == "open" else "open"
    sides = [[side] * d] + [[flip if k == j else side for k in range(d)] for j in range(d)]
    cells = [_grid_cells(axes, points, s) for s in sides]
    walks = [_grid_rows(shape, c, None) for c in cells]
    walks += [] if w is None else [_grid_rows(shape, cells[0], w)]
    corners, contents = [], []
    for chunk in zip(*walks):
        r0, H = chunk[0]
        vals = [axes[0][r0 : r0 + len(H)]] + list(axes[1:])
        mask = np.ones(H.shape, dtype=bool)
        for j, (_, F) in enumerate(chunk[1 : d + 1]):
            at_j = F != H
            if side == "open":  # a coordinate at 1 needs no enlargement witness
                at_j[(slice(None),) * j + (vals[j] == 1.0,)] = True
            mask &= at_j
        idx = np.nonzero(mask)
        corners.append(np.stack([v[i] for v, i in zip(vals, idx)], axis=1))
        contents.append((H if w is None else chunk[-1][1])[idx])
    return np.concatenate(corners), np.concatenate(contents)


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
    open_y, open_c = _critical_corners(X.points, aug, "open")
    closed_y, closed_c = _critical_corners(X.points, plain, "closed")
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
