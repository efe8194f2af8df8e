"""Minimal dense two-phase simplex with Bland's rule.

Solves  min c.x  subject to  A x = b, x >= 0  on small dense instances.
Bland's pivoting rule (smallest eligible index) excludes cycling, which
matters here because the scenario-reduction programs are heavily degenerate.
Intended for desk-scale sizes, a few hundred rows at most.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LPError", "solve_lp"]

_EPS = 1e-9


class LPError(RuntimeError):
    """Infeasible, unbounded, or numerically degenerate program."""


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


def solve_lp(c, A, b) -> tuple[np.ndarray, float]:
    """Solve min c.x s.t. A x = b, x >= 0; returns (x, objective)."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    m, n = A.shape
    if b.shape[0] != m or c.shape[0] != n:
        raise ValueError("inconsistent LP shapes")

    A = A.copy()
    b = b.copy()
    neg = b < 0.0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: artificial basis, minimize the artificial mass
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    basis = np.arange(n, n + m)
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    _run_simplex(T, basis, n + m)
    if T[-1, -1] < -1e-7:
        raise LPError("linear program is infeasible")
    # drive remaining artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n:
            piv = np.flatnonzero(np.abs(T[r, :n]) > _EPS)
            if piv.size:
                _pivot(T, basis, r, piv[0])

    # rows still basic in an artificial are redundant zero rows; drop them
    rows = np.flatnonzero(basis < n)
    T2 = np.zeros((len(rows) + 1, n + 1))
    T2[:-1, :n] = T[rows, :n]
    T2[:-1, -1] = T[rows, -1]
    basis2 = basis[rows]
    T2[-1, :n] = c
    for t in range(len(rows)):
        T2[-1] -= T2[-1, basis2[t]] * T2[t]
    _run_simplex(T2, basis2, n)

    x = np.zeros(n)
    x[basis2] = T2[: len(rows), -1]
    return x, float(np.dot(c, x))
