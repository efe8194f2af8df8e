"""Independent brute-force oracles used across the test suite.

Everything here is written from the definitions with plain loops and
itertools, deliberately sharing no code path with the library.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def open_count(pts, y):
    return sum(1 for x in pts if all(c < yc for c, yc in zip(x, y)))


def closed_count(pts, y):
    return sum(1 for x in pts if all(c <= yc for c, yc in zip(x, y)))


def box_volume(y):
    v = 1.0
    for c in y:
        v *= c
    return v


def grid_axes(pts):
    d = len(pts[0])
    plain = [sorted(set(x[j] for x in pts)) for j in range(d)]
    aug = [sorted(set(x[j] for x in pts) | {1.0}) for j in range(d)]
    return plain, aug


def brute_star(pts):
    """Exhaustive star discrepancy over the induced grids."""
    pts = [tuple(map(float, x)) for x in np.atleast_2d(pts)]
    n = len(pts)
    plain, aug = grid_axes(pts)
    best = -np.inf
    for y in itertools.product(*aug):
        best = max(best, box_volume(y) - open_count(pts, y) / n)
    for y in itertools.product(*plain):
        best = max(best, closed_count(pts, y) / n - box_volume(y))
    return best


def brute_star_mesh(pts, steps):
    """Supremum of the local discrepancy over a uniform corner mesh."""
    pts = [tuple(map(float, x)) for x in np.atleast_2d(pts)]
    n = len(pts)
    d = len(pts[0])
    axis = [i / steps for i in range(steps + 1)]
    best = -np.inf
    for y in itertools.product(axis, repeat=d):
        v = box_volume(y)
        best = max(best, v - open_count(pts, y) / n,
                   closed_count(pts, y) / n - v)
    return best


def critical_by_definition(pts, y):
    """(delta-critical, deltabar-critical) via midpoint neighbor probes."""
    pts = [tuple(map(float, x)) for x in np.atleast_2d(pts)]
    y = list(map(float, y))
    d = len(y)
    plain, aug = grid_axes(pts)

    a0 = open_count(pts, y)
    is_delta = True
    for j in range(d):
        if y[j] == 1.0:
            continue
        nxt = min(v for v in aug[j] if v > y[j])
        y2 = list(y)
        y2[j] = (y[j] + nxt) / 2.0
        if open_count(pts, y2) == a0:
            is_delta = False
            break

    ab0 = closed_count(pts, y)
    is_deltabar = True
    for j in range(d):
        if y[j] == 0.0:
            continue
        below = [v for v in plain[j] if v < y[j]]
        prev = max(below) if below else 0.0
        y2 = list(y)
        y2[j] = (prev + y[j]) / 2.0
        if closed_count(pts, y2) == ab0:
            is_deltabar = False
            break

    return is_delta, is_deltabar


def largest_empty_box_volume(pts):
    """Max volume over augmented-grid corners of empty open anchored boxes."""
    pts = [tuple(map(float, x)) for x in np.atleast_2d(pts)]
    _, aug = grid_axes(pts)
    best = 0.0
    for y in itertools.product(*aug):
        if open_count(pts, y) == 0:
            best = max(best, box_volume(y))
    return best


def domination_number(n_vertices, edges):
    """Exhaustive search for the smallest dominating set."""
    adj = [set() for _ in range(n_vertices)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for size in range(1, n_vertices + 1):
        for cand in itertools.combinations(range(n_vertices), size):
            covered = set(cand)
            for v in cand:
                covered |= adj[v]
            if len(covered) == n_vertices:
                return size
    raise AssertionError("unreachable")


def lp_star_pow_1d(xs, p):
    """Exact piecewise integral of |y - F_n(y)|^p in dimension one, even p."""
    xs = sorted(float(x) for x in np.atleast_1d(np.asarray(xs)).reshape(-1))
    n = len(xs)
    cuts = [0.0] + xs + [1.0]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a == b:
            continue
        mid = (a + b) / 2.0
        q = sum(1 for x in xs if x < mid) / n
        total += ((b - q) ** (p + 1) - (a - q) ** (p + 1)) / (p + 1)
    return total


def extreme_l2_sq_1d(xs):
    """Exact integral of (z - y - count/n)^2 over {0 <= y <= z <= 1}, d=1."""
    xs = sorted(float(x) for x in np.atleast_1d(np.asarray(xs)).reshape(-1))
    n = len(xs)
    cuts = sorted({0.0, 1.0} | set(xs))
    cells = [(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
    total = 0.0
    for (a1, b1) in cells:  # y cell
        # triangle part: y and z in the same cell, no points in between
        total += (b1 - a1) ** 4 / 12.0
        for (a2, b2) in cells:
            if a2 < b1:
                continue  # keep z cells strictly to the right
            q = sum(1 for x in xs if b1 <= x <= a2) / n
            def inner(z):
                return ((z - a1 - q) ** 4 - (z - b1 - q) ** 4) / 12.0
            total += inner(b2) - inner(a2)
    return total


def direct_heinrich(v, Y, w, Z, d):
    """Plain-loop double sum for D(A, B, d)."""
    total = 0.0
    for i in range(len(v)):
        for j in range(len(w)):
            term = v[i] * w[j]
            for k in range(d):
                term *= min(Y[i][k], Z[j][k])
            total += term
    return total


def two_measure_disc_brute(atoms_p, probs_p, atoms_q, probs_q):
    """Sup over open and closed anchored boxes of |P(B) - Q(B)|."""
    ap = [tuple(map(float, x)) for x in np.atleast_2d(atoms_p)]
    aq = [tuple(map(float, x)) for x in np.atleast_2d(atoms_q)]
    union = ap + aq
    plain, aug = grid_axes(union)

    def pmass(y, closed):
        cmp = (lambda c, yc: c <= yc) if closed else (lambda c, yc: c < yc)
        mp = sum(p for x, p in zip(ap, probs_p) if all(cmp(c, yc) for c, yc in zip(x, y)))
        mq = sum(q for x, q in zip(aq, probs_q) if all(cmp(c, yc) for c, yc in zip(x, y)))
        return abs(mp - mq)

    best = 0.0
    for y in itertools.product(*aug):
        best = max(best, pmass(y, closed=False))
    for y in itertools.product(*plain):
        best = max(best, pmass(y, closed=True))
    return best


def warnock_star_l2_sq_longdouble(pts, block=64):
    """Warnock's formula 3^-d - 2^(1-d)/n sum_i prod(1 - x^2)
    + 1/n^2 sum_{i,l} prod min(1 - x_i, 1 - x_l), with every product and
    every sum formed in extended precision (np.longdouble), the pair sum
    over row blocks of ``block`` points."""
    x = np.asarray(pts, dtype=np.float64).astype(np.longdouble)
    n, d = x.shape
    one = np.longdouble(1)
    single = np.sum(np.prod(one - x * x, axis=1))
    pair = np.longdouble(0)
    for s in range(0, n, block):
        mins = np.minimum(one - x[s:s + block, None, :], one - x[None, :, :])
        pair += np.sum(np.prod(mins, axis=2))
    return (np.longdouble(3) ** -d - np.longdouble(2) ** (1 - d) / n * single
            + pair / (np.longdouble(n) * n))


def exact_pair_sum(U, g=None, block=256):
    """Exact value, as a Fraction, of sum over all ordered pairs (i, l) of
    prod_k f_k(min(U_ik, U_lk)), f_k the identity or 1 + g_k x.  Each product
    is rounded in double as it is formed, left to right over k; the sum is
    not rounded: np.frexp splits every product into a 53-bit integer
    mantissa and a power of two, and the mantissas are added per power of
    two, in two exact float halves of at most 27 bits and then as Python
    integers."""
    U = np.asarray(U, dtype=np.float64)
    n, d = U.shape
    by_exp = {}
    for s in range(0, n, block):
        prod = None
        for k in range(d):
            f = np.minimum(U[s:s + block, None, k], U[None, :, k])
            if g is not None:
                f = f * g[k] + 1.0
            prod = f if prod is None else prod * f
        m, e = np.frexp(prod.reshape(-1))
        mant = (m * 2.0 ** 53).astype(np.int64)
        idx = e - e.min()
        hi = np.bincount(idx, weights=(mant >> 27).astype(np.float64))
        lo = np.bincount(idx, weights=(mant & ((1 << 27) - 1)).astype(np.float64))
        for j in np.flatnonzero((hi != 0) | (lo != 0)):
            ex = int(j) + int(e.min())
            by_exp[ex] = by_exp.get(ex, 0) + (int(hi[j]) << 27) + int(lo[j])
    if not by_exp:
        return Fraction(0)
    low = min(by_exp)
    total = sum(v << (ex - low) for ex, v in by_exp.items())
    return Fraction(total) * Fraction(2) ** (low - 53)


def lp_pow_fraction(pts, gamma, p):
    """p-th power of the product-weighted L_p star discrepancy for even p by
    the Leobacher-Pillichshammer expansion in exact rationals:
    sum_{l=0..p} C(p, l) (-1/n)^l sum over all l-tuples of point indices of
    prod_j (1 + gamma_j (1 - m_j^(p-l+1)) / (p-l+1)), m_j the largest j-th
    coordinate in the tuple (0 for the empty tuple).  Points and weights are
    the exact values of their doubles."""
    X = [[Fraction(float(c)) for c in row] for row in np.atleast_2d(pts)]
    g = [Fraction(float(c)) for c in np.atleast_1d(gamma)]
    n = len(X)
    total = Fraction(0)
    for l in range(p + 1):
        q = p - l + 1
        level = Fraction(0)
        for tup in itertools.product(range(n), repeat=l):
            term = Fraction(1)
            for j, gj in enumerate(g):
                m = max((X[i][j] for i in tup), default=Fraction(0))
                term *= 1 + gj * (1 - m ** q) / q
            level += term
        total += math.comb(p, l) * Fraction(-1, n) ** l * level
    return total


def weighted_star_l2_sq_ext(pts, gamma, block=256):
    """Closed form of the squared product-weighted L2 star discrepancy,
    prod(1 + g^2/3) - 2/n sum_i prod(1 + g^2 (1 - x^2)/2)
    + 1/n^2 sum_{i,l} prod(1 + g^2 min(1 - x_i, 1 - x_l)),
    with the constant term and every sum in extended precision
    (np.longdouble).  The per-point and per-pair products are double, the
    precision of the points themselves."""
    x = np.asarray(pts, dtype=np.float64)
    g2 = np.asarray(gamma, dtype=np.float64) ** 2
    n = x.shape[0]
    const = np.prod(1 + g2.astype(np.longdouble) / 3)
    single = np.sum(np.prod(1 + g2 * (1 - x * x) / 2, axis=1), dtype=np.longdouble)
    pair = np.longdouble(0)
    for s in range(0, n, block):
        mins = np.minimum(1 - x[s:s + block, None, :], 1 - x[None, :, :])
        pair += np.sum(np.prod(1 + g2 * mins, axis=2), dtype=np.longdouble)
    return const - 2 * single / n + pair / (np.longdouble(n) * n)


def pivot_row_loop(T, basis, row, col):
    """Gauss-Jordan pivot on T[row, col], one tableau row at a time; rows
    whose pivot-column entry is zero (either sign) are left untouched."""
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def snap_up_vector(pts, y, rng):
    """Snap-up with per-point counts of the coordinates below the current
    corner, one vector pass per coordinate: coordinates in the order
    ``rng.permutation(d)``, each raised to the smallest value not below y_j
    among points strictly below the corner in every other coordinate, or to
    1 if there is none."""
    pts = np.asarray(pts, dtype=np.float64)
    d = pts.shape[1]
    z = np.array(y, dtype=np.float64)
    less = pts < z
    cnt = less.sum(axis=1)
    for j in rng.permutation(d):
        others = (cnt - less[:, j]) == d - 1
        blocked = pts[others & (pts[:, j] >= z[j]), j]
        z[j] = blocked.min() if blocked.size else 1.0
        new_col = pts[:, j] < z[j]
        cnt += new_col.astype(np.int64) - less[:, j]
        less[:, j] = new_col
    return z


def inner_optimum_highs(atoms, probs, support):
    """Best probabilities on P's atoms[support] by HiGHS: min t subject to
    |P(B) - Q(B)| <= t for every open box with its corner on the augmented
    union grid and every closed box with its corner on the plain union grid
    (the support lies in P's atoms, so the union grid is P's).  Returns (q, t)."""
    from scipy.optimize import linprog
    pts = [tuple(map(float, x)) for x in np.atleast_2d(atoms)]
    probs = [float(p) for p in probs]
    support = [int(i) for i in support]
    m = len(support)
    plain, aug = grid_axes(pts)
    rows, rhs = [], []
    for grid, closed in ((aug, False), (plain, True)):
        for y in itertools.product(*grid):
            inside = [all(c <= yc if closed else c < yc for c, yc in zip(x, y))
                      for x in pts]
            mass = sum(p for p, i in zip(probs, inside) if i)
            a = [1.0 if inside[i] else 0.0 for i in support]
            rows.append(a + [-1.0])                 # Q(B) - t <= P(B)
            rhs.append(mass)
            rows.append([-v for v in a] + [-1.0])   # P(B) - Q(B) <= t
            rhs.append(-mass)
    res = linprog([0.0] * m + [1.0], A_ub=rows, b_ub=rhs,
                  A_eq=[[1.0] * m + [0.0]], b_eq=[1.0], bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    return res.x[:m], float(res.fun)
