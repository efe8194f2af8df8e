"""Independent brute-force oracles used across the test suite.

Everything here is written from the definitions with plain loops and
itertools, deliberately sharing no code path with the library.
"""

import itertools

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
