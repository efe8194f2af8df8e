"""Minimal dense simplex with Bland's rule, started from a feasible basis.

Solves  min c.x  subject to  A x = b, x >= 0  on small dense instances.  The
caller supplies a feasible basis, one column per row; there is no phase 1.
Bland's pivoting rule (smallest eligible index) excludes cycling, which
matters here because the scenario-reduction programs are heavily degenerate.
Intended for desk-scale sizes, a few hundred rows at most.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LPError", "solve_lp"]

_EPS = 1e-9


class LPError(RuntimeError):
    """Unbounded program, or a singular or infeasible starting basis."""


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    rows = np.flatnonzero(f)  # rows with a zero (or -0.0) entry stay untouched
    T[rows] -= f[rows, None] * T[row]
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: np.ndarray, ncols: int) -> None:
    """Minimize the objective in the last tableau row over columns < ncols."""
    while True:
        improving = np.flatnonzero(T[-1, :ncols] < -_EPS)
        if improving.size == 0:
            return
        col = improving[0]  # Bland: first improving column
        row, best = -1, np.inf
        for r in np.flatnonzero(T[:-1, col] > _EPS):
            ratio = T[r, -1] / T[r, col]
            if ratio < best - _EPS or (abs(ratio - best) <= _EPS and
                                       (row < 0 or basis[r] < basis[row])):
                row, best = r, ratio
        if row < 0:
            raise LPError("linear program is unbounded")
        _pivot(T, basis, row, col)


def solve_lp(c, A, b, basis) -> tuple[np.ndarray, float]:
    """Solve min c.x s.t. A x = b, x >= 0, starting from the feasible basis
    ``basis`` (column basis[r] basic in row r); returns (x, objective)."""
    m, n = np.shape(A)
    basis = np.array(basis, dtype=np.intp)
    if np.shape(b) != (m,) or np.shape(c) != (n,) or basis.shape != (m,):
        raise ValueError("inconsistent LP shapes")

    T = np.zeros((m + 1, n + 1))  # the copy converts A, b and c to float64
    T[:m, :n] = A
    T[:m, -1] = b
    T[-1, :n] = c
    for row, col in enumerate(basis):  # canonical form for the given basis
        if abs(T[row, col]) <= _EPS:
            raise LPError("starting basis is singular")
        _pivot(T, basis, row, col)
    if np.any(T[:m, -1] < -_EPS):
        raise LPError("starting basis is infeasible")
    _run_simplex(T, basis, n)

    x = np.zeros(n)
    x[basis] = T[:m, -1]
    return x, float(np.dot(c, x))
