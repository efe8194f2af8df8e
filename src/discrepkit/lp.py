"""Weighted L_p star discrepancy for even integer p.

Implements the expansion of Leobacher and Pillichshammer (2003) for product
weights: the p-th power of the weighted L_p star discrepancy is a signed
binomial sum over tuple lengths l = 0..p of sums over all l-tuples of point
indices, each contributing a product over coordinates of

    1 + gamma_j * (1 - max_tuple(x_j)^(p-l+1)) / (p-l+1),

with the maximum over an empty tuple taken as 0.  The weights enter each
factor linearly, exactly as in that expansion; note this convention differs
by a squaring of the per-coordinate weights from the product-weighted L2
formula in :mod:`discrepkit.l2` (the two agree at p = 2 after mapping
gamma_j -> gamma_j**2, and coincide for 0/1 weights).

Direct evaluation costs O(d n^p); a budget guards against runaway sizes.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .pointset import BudgetExceededError, PointSet
from .l2 import _check_weights

__all__ = ["weighted_star_lp_pow", "lp_cost_estimate"]


class _KahanSum:
    """Compensated scalar accumulator."""

    __slots__ = ("s", "c")

    def __init__(self) -> None:
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t

    @property
    def value(self) -> float:
        return self.s


def lp_cost_estimate(n: int, d: int, p: int) -> int:
    """Tuple-factor operations needed by the direct expansion."""
    return d * sum(comb(p, l) * n ** l for l in range(p + 1))


def _tuple_level_sum(pts: np.ndarray, gamma: np.ndarray, q: int, level: int) -> float:
    """Sum over all ``level``-tuples of the per-tuple factor product.

    Walks tuple prefixes depth first carrying the running coordinatewise
    maximum; the innermost index is vectorized.  Exponent q = p - level + 1.
    """
    n, d = pts.shape
    pw = pts ** q
    acc = _KahanSum()
    if level == 0:
        acc.add(float(np.prod(1.0 + gamma / q)))
        return acc.value
    if level == 1:
        vals = np.prod(1.0 + gamma * (1.0 - pw) / q, axis=1)
        for v in vals:
            acc.add(float(v))
        return acc.value

    def walk(depth: int, running_max: np.ndarray) -> None:
        if depth == level - 1:
            m = np.maximum(running_max[None, :], pw)
            vals = np.prod(1.0 + gamma * (1.0 - m) / q, axis=1)
            acc.add(float(np.sum(vals)))
            return
        for i in range(n):
            walk(depth + 1, np.maximum(running_max, pw[i]))

    walk(0, np.zeros(d))
    return acc.value


def weighted_star_lp_pow(X: PointSet, gamma, p: int,
                         budget: int = 100_000_000) -> float:
    """p-th power of the product-weighted L_p star discrepancy, even p only."""
    if p <= 0 or p % 2 != 0:
        raise ValueError("p must be a positive even integer")
    g = _check_weights(gamma, X.d)
    cost = lp_cost_estimate(X.n, X.d, p)
    if cost > budget:
        raise BudgetExceededError(
            f"direct L_p evaluation needs about {cost} operations, "
            f"exceeding the budget of {budget}")
    total = _KahanSum()
    for l in range(p + 1):
        q = p - l + 1
        level = _tuple_level_sum(X.points, g, q, l)
        total.add(comb(p, l) * (-1.0 / X.n) ** l * level)
    return total.value
