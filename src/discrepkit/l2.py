"""Exact L2-type discrepancies.

Direct O(d n^2) evaluation of the squared L2 star discrepancy via Warnock's
formula (Warnock 1972), the squared extreme L2 discrepancy (cf. Heinrich
1996, Sect. 4), and the product-weighted squared L2 star discrepancy, whose
all-ones case is Hickernell's modified L2 discrepancy.

All these formulas evaluate the *square* of the respective discrepancy: at
the single point 1/2 in dimension one they yield 1/12, which is the integral
of the squared local discrepancy, not its square root.  Function names carry
a ``_sq`` suffix; thin square-root wrappers are provided.

The quadratic double sum is also computable in O(n log^(d-1) n) for fixed d
by the divide-and-conquer scheme of Heinrich (1996) with the one-dimensional
base case of Frank and Heinrich (1996); see :func:`heinrich_D` and
:func:`star_l2_sq_fast`.  The direct formulas and the leaves of that
recursion share one pair kernel, :func:`_pair_blocks`, which forms the
products over row blocks in two buffers allocated once per call.  The three
terms of Warnock-type formulas are much larger than their sum, so sums
accumulate in extended precision (``_ACC``) and the terms are combined
before the final rounding to double.  This is the package's one summation
policy: Warnock's own remedy, subtracting each summand's expected value, is
less accurate than it and is not used, and the L_p expansion of
:mod:`discrepkit.lp` is evaluated in the same precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pointset import PointSet, WeightedPointSet

__all__ = [
    "HeinrichArray",
    "warnock_star_l2_sq",
    "warnock_star_l2_sq_stable",
    "extreme_l2_sq",
    "weighted_star_l2_sq",
    "modified_l2_sq",
    "heinrich_D",
    "star_l2_sq_fast",
    "star_l2",
    "extreme_l2",
    "weighted_star_l2",
    "modified_l2",
]

# pairwise blocks sized to stay cache-resident; larger blocks thrash
_BLOCK_ELEMS = 1 << 20
_LEAF = 4096  # Heinrich subproblems with at most this many pairs are summed directly
_ACC = np.longdouble  # extended-precision accumulator for the big reductions


def _pair_blocks(U: np.ndarray, V: np.ndarray, g=None):
    """Yield ``(s, M)`` for each row block of U, where M[i, l] is the product
    over k of f_k(min(U[s + i, k], V[l, k])), f_k the identity or 1 + g[k] * x,
    taken left to right.  M is a view that the next block overwrites."""
    n, m = U.shape[0], V.shape[0]
    step = max(1, _BLOCK_ELEMS // max(m, 1))
    buf = np.empty((min(step, n), m))
    fac = np.empty_like(buf)
    for s in range(0, n, step):
        blk = U[s : s + step]
        M, F = buf[: blk.shape[0]], fac[: blk.shape[0]]
        for k in range(U.shape[1]):
            T = F if k else M
            np.minimum(blk[:, None, k], V[None, :, k], out=T)
            if g is not None:
                T *= g[k]
                T += 1.0
            if k:
                M *= F
        yield s, M


def _pair_sum(U: np.ndarray, V: np.ndarray, g=None):
    """Sum of all entries of the pair kernel, accumulated in ``_ACC``."""
    total = _ACC(0.0)
    for _, M in _pair_blocks(U, V, g):
        total += np.sum(M, dtype=_ACC)
    return total


def _warnock(X: PointSet) -> float:
    n, d = X.n, X.d
    pts = X.points
    one_minus = 1.0 - pts

    t2 = np.sum(np.prod(1.0 - pts * pts, axis=1), dtype=_ACC)
    t3 = _pair_sum(one_minus, one_minus)
    return float(_ACC(3.0) ** -d - _ACC(2.0) ** (1 - d) / n * t2 + t3 / (_ACC(n) * n))


def warnock_star_l2_sq(X: PointSet) -> float:
    """Squared L2 star discrepancy by Warnock's formula."""
    return _warnock(X)


def warnock_star_l2_sq_stable(X: PointSet) -> float:
    """The value of :func:`warnock_star_l2_sq`, bit for bit.

    Warnock's mean-subtracted rearrangement is less accurate than the plain
    formula once its sums are accumulated in extended precision (1.1e-11
    against 1.1e-13 relative on 4,096 Halton points in d = 4), so this name
    evaluates the plain formula.
    """
    return _warnock(X)


def extreme_l2_sq(X: PointSet) -> float:
    """Squared extreme (unanchored) L2 discrepancy.

    Computed under the unnormalized box measure dy dz on {y <= z}; the
    leading constant is 12^(-d) and the pair kernel is
    min(x, x') * min(1-x, 1-x') per coordinate, one kernel column each.
    """
    n, d = X.n, X.d
    pts = X.points
    one_minus = 1.0 - pts

    t2 = np.sum(np.prod(1.0 - pts ** 3 - one_minus ** 3, axis=1), dtype=_ACC)
    Z = np.stack([pts, one_minus], axis=2).reshape(n, 2 * d)  # x_0, 1-x_0, x_1, ...
    t3 = _pair_sum(Z, Z)
    return float(_ACC(12.0) ** -d - _ACC(2.0) / (_ACC(6.0) ** d * n) * t2
                 + t3 / (_ACC(n) * n))


def _check_weights(gamma, d: int) -> np.ndarray:
    g = np.asarray(gamma, dtype=np.float64).reshape(-1)
    if g.shape[0] != d:
        raise ValueError(f"need {d} weights, got {g.shape[0]}")
    if np.any(g < 0.0):
        raise ValueError("weights must be nonnegative")
    if np.any(np.diff(g) > 0.0):
        raise ValueError("weights must be nonincreasing")
    return g


def weighted_star_l2_sq(X: PointSet, gamma) -> float:
    """Squared product-weighted L2 star discrepancy.

    Expands to sum over nonempty coordinate subsets u of
    (prod_{j in u} gamma_j^2) times the squared L2 star discrepancy of the
    projection onto u.  The pair factor is 1 + gamma_k^2 * min(1-x, 1-x');
    the empty subset contributes 1 - 2 + 1 = 0 and cancels.
    """
    n, d = X.n, X.d
    g2 = _check_weights(gamma, d) ** 2
    pts = X.points
    one_minus = 1.0 - pts

    t1 = np.prod(1.0 + np.asarray(g2, dtype=_ACC) / 3)
    t2 = np.sum(np.prod(1.0 + g2 * (1.0 - pts * pts) / 2.0, axis=1), dtype=_ACC)
    t3 = _pair_sum(one_minus, one_minus, g2)
    return float(t1 - _ACC(2.0) / n * t2 + t3 / (_ACC(n) * n))


def modified_l2_sq(X: PointSet) -> float:
    """Squared Hickernell modified L2 discrepancy (all projection weights 1)."""
    return weighted_star_l2_sq(X, np.ones(X.d))


@dataclass(frozen=True)
class HeinrichArray:
    """Weighted points in the closed cube, the operands of :func:`heinrich_D`."""

    weights: np.ndarray
    points: np.ndarray

    def __init__(self, weights, points, dim: int | None = None):
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.size == 0:
            pts = np.zeros((0, dim if dim is not None else 0))
        else:
            pts = np.asarray(points, dtype=np.float64)
            if pts.ndim == 1:
                pts = pts.reshape(-1, 1)
        if pts.shape[0] != w.shape[0]:
            raise ValueError("one weight per point required")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(pts)):
            raise ValueError("weights and coordinates must be finite")
        if pts.size and (np.any(pts < 0.0) or np.any(pts > 1.0)):
            raise ValueError("coordinates must lie in [0, 1]")
        w, pts = w.copy(), pts.copy()
        w.flags.writeable = False
        pts.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _D_direct(v, Y, w, Z, d: int):
    total = _ACC(0.0)
    for s, M in _pair_blocks(Y[:, :d], Z[:, :d]):
        M *= v[s : s + M.shape[0], None]
        M *= w
        total += np.sum(M, dtype=_ACC)
    return total


def _D_rec(v, Y, w, Z, d: int):
    n, m = v.shape[0], w.shape[0]
    if m == 0 or n == 0:
        return _ACC(0.0)
    if d == 0:
        return np.sum(v, dtype=_ACC) * np.sum(w, dtype=_ACC)
    if n == 1:
        return _D_direct(v, Y, w, Z, d)
    if d == 1:
        ya, zb = Y[:, 0], Z[:, 0]
        oz = np.argsort(zb, kind="stable")
        zs, ws = zb[oz], w[oz]
        pref_wz = np.concatenate(([0.0], np.cumsum((ws * zs).astype(_ACC))))
        suff_w = np.concatenate((np.cumsum(ws[::-1].astype(_ACC))[::-1], [0.0]))
        nu = np.searchsorted(zs, ya, side="right")  # z_(1..nu) <= y_i < rest
        return np.sum(v * (pref_wz[nu] + ya * suff_w[nu]), dtype=_ACC)
    if n * m <= _LEAF:
        return _D_direct(v, Y, w, Z, d)

    # split A at the rank median of its d-th components (stable, index ties)
    keys = Y[:, d - 1]
    order = np.argsort(keys, kind="stable")
    half = n // 2
    L, R = order[:half], order[half:]
    mu = keys[order[half - 1]]
    in_left = Z[:, d - 1] <= mu
    BL = np.flatnonzero(in_left)
    BR = np.flatnonzero(~in_left)

    total = _D_rec(v[L], Y[L], w[BL], Z[BL], d)
    total += _D_rec(v[R], Y[R], w[BR], Z[BR], d)
    total += _D_rec(v[L] * Y[L, d - 1], Y[L, : d - 1], w[BR], Z[BR][:, : d - 1], d - 1)
    total += _D_rec(v[R], Y[R][:, : d - 1], w[BL] * Z[BL, d - 1], Z[BL][:, : d - 1], d - 1)
    return total


def heinrich_D(A: HeinrichArray, B: HeinrichArray, d: int) -> float:
    """D(A, B, d) = sum_i sum_j v_i w_j prod_{k<=d} min(y_ik, z_jk).

    Divide and conquer on the d-th coordinate: split A at its rank median mu,
    route B by z_d <= mu, recurse on the two same-side pairs in dimension d
    and on the two cross pairs in dimension d-1 with the d-th coordinate
    folded into the weights of the lower side.  Base cases: an empty operand
    (0), d = 0 (product of weight sums, the empty product being 1), a
    singleton A (direct sum), and d = 1, evaluated by sorting B and prefix
    sums.  Subproblems with at most ``_LEAF`` weight pairs are summed by the
    pair kernel; this changes constants only.
    """
    if d < 0:
        raise ValueError("dimension must be >= 0")
    if A.n and A.dim < d:
        raise ValueError("array A has fewer active coordinates than d")
    if B.n and B.dim < d:
        raise ValueError("array B has fewer active coordinates than d")
    return float(_D_rec(A.weights, A.points, B.weights, B.points, d))


def star_l2_sq_fast(Q: WeightedPointSet) -> float:
    """Squared L2 star discrepancy of a signed quadrature measure.

    Evaluates the Warnock-type expansion for general weights with the double
    sum delegated to the recursion of :func:`heinrich_D` on the reflected
    points 1 - x.  With equal weights 1/n this is the squared L2 star
    discrepancy of the support.
    """
    n, d = Q.n, Q.d
    v = Q.weights
    one_minus = 1.0 - Q.points

    t2 = np.sum(v * np.prod(1.0 - Q.points ** 2, axis=1), dtype=_ACC)
    t3 = _D_rec(v, one_minus, v, one_minus, d)
    return float(_ACC(3.0) ** -d - _ACC(2.0) ** (1 - d) * t2 + t3)


def _root(x: float) -> float:
    return math.sqrt(max(x, 0.0))


def star_l2(X: PointSet) -> float:
    """L2 star discrepancy (square root of the Warnock value)."""
    return _root(warnock_star_l2_sq(X))


def extreme_l2(X: PointSet) -> float:
    return _root(extreme_l2_sq(X))


def weighted_star_l2(X: PointSet, gamma) -> float:
    return _root(weighted_star_l2_sq(X, gamma))


def modified_l2(X: PointSet) -> float:
    return _root(modified_l2_sq(X))
