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

The binomial terms are far larger than their signed sum, so the expansion
is evaluated in the extended precision of ``l2._ACC``, the summation policy
of the L2 formulas too.  Direct evaluation costs O(d n^p); a budget guards
against runaway sizes.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .pointset import BudgetExceededError, PointSet
from .l2 import _ACC, _check_weights

__all__ = ["weighted_star_lp_pow", "lp_cost_estimate"]


def lp_cost_estimate(n: int, d: int, p: int) -> int:
    """Tuple-factor operations needed by the direct expansion."""
    return d * sum(comb(p, l) * n ** l for l in range(p + 1))


def _tuple_level_sum(pw: np.ndarray, a: np.ndarray, level: int):
    """Sum over all ``level``-tuples of prod_j (1 + a_j - a_j * max_tuple pw_j),
    pw the points raised to q = p - level + 1 and a = gamma / q.

    Walks tuple prefixes depth first carrying the running coordinatewise
    maximum, which starts at 0, the maximum over the empty prefix; the
    innermost index is vectorized.
    """
    c = 1.0 + a
    if level == 0:
        return np.prod(c)
    total = _ACC(0.0)

    def walk(depth: int, running_max: np.ndarray) -> None:
        nonlocal total
        if depth == level - 1:
            total += np.sum(np.prod(c - a * np.maximum(running_max, pw), axis=1))
            return
        for row in pw:
            walk(depth + 1, np.maximum(running_max, row))

    walk(0, np.zeros_like(a))
    return total


def weighted_star_lp_pow(X: PointSet, gamma, p: int,
                         budget: int = 100_000_000) -> float:
    """p-th power of the product-weighted L_p star discrepancy, even p only."""
    if p <= 0 or p % 2 != 0:
        raise ValueError("p must be a positive even integer")
    g = _check_weights(gamma, X.d).astype(_ACC)
    cost = lp_cost_estimate(X.n, X.d, p)
    if cost > budget:
        raise BudgetExceededError(
            f"direct L_p evaluation needs about {cost} operations, "
            f"exceeding the budget of {budget}")
    pts = X.points.astype(_ACC)
    total = _ACC(0.0)
    for l in range(p + 1):
        q = p - l + 1
        level = _tuple_level_sum(pts ** q, g / q, l)
        total += comb(p, l) * (_ACC(-1.0) / X.n) ** l * level
    return float(total)
