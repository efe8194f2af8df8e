"""Applications: measure reduction, permutation search, quality reporting.

Scenario reduction in the sense of Henrion, Kuechler and Roemisch (2009):
approximate a discrete probability measure P by a measure Q supported on a
small subset of P's atoms, minimizing the anchored-box (Kolmogorov-type)
distance.  The outer support search is greedy forward or backward selection.
The inner probability optimization is either a small linear program whose
constraints are indexed by the supporting boxes, which are exactly the
critical corners of the grid induced by P's atoms, or, by default, the
nearest-mass heuristic (each atom's mass moves to its nearest kept atom).
Either is set up once per reduction: the box table, or P's closed grid on
which every nearest-mass candidate is scored, since a candidate's atoms are
P's own.

Permutation search in the style of de Rainville, Gagne, Teytaud and
Laurendeau (2012): a component-by-component (mu+lambda) evolutionary search
for digit permutations of the generalized Halton sequence, scored by the
modified L2 discrepancy.

Quality reporting evaluates requested discrepancy measures per named point
set, exact where the budget allows, falling back to bound intervals.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import l2, lp
from ._simplex import LPError, solve_lp
from .generators import PermutationConfig, halton, primes, random_permutation
from .linf_approx import TAConfig, _best_ta, cover_bounds
from .linf_exact import exact_method, star_exact
from .pointset import (BudgetExceededError, _as_points, _critical_corners,
                       _grid_axes, _grid_cells, _prefix_sums)

__all__ = [
    "DiscreteMeasure",
    "ReductionResult",
    "two_measure_star_disc",
    "optimal_inner_weights",
    "forward_selection",
    "backward_selection",
    "optimize_halton_permutations",
    "quality_report",
    "ReportCell",
    "LPError",
]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finitely many distinct atoms in [0,1]^d."""

    atoms: np.ndarray
    probabilities: np.ndarray

    def __init__(self, atoms, probabilities, d: int | None = None):
        a = _as_points(atoms, d)
        p = np.asarray(probabilities, dtype=np.float64).reshape(-1)
        if a.shape[0] != p.shape[0]:
            raise ValueError("one probability per atom required")
        if a.shape[0] < 1:
            raise ValueError("need at least one atom")
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(p)):
            raise ValueError("atoms and probabilities must be finite")
        if np.any(a < 0.0) or np.any(a > 1.0):
            raise ValueError("atoms must lie in [0, 1]^d")
        if np.any(p < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        if len({tuple(row) for row in a}) != a.shape[0]:
            raise ValueError("atoms must be pairwise distinct")
        a, p = a.copy(), p.copy()
        a.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "probabilities", p)

    @property
    def n(self) -> int:
        return self.atoms.shape[0]

    @property
    def d(self) -> int:
        return self.atoms.shape[1]

    @classmethod
    def uniform(cls, atoms, d: int | None = None) -> "DiscreteMeasure":
        a = _as_points(atoms, d)
        return cls(a, np.full(a.shape[0], 1.0 / a.shape[0]))


def _check_budget(size: int, unit: str, budget: int, what: str) -> None:
    if size > budget:
        raise BudgetExceededError(
            f"{what} needs {size} {unit}, exceeding the budget of "
            f"{budget}; keep supports small or the dimension at 3 or less")


def _closed_grid(pts: np.ndarray, budget: int):
    """(cells, gap) on the plain grid induced by ``pts``, after the distance's
    budget check on the augmented grid: each point's flat closed cell, and
    gap(cells, w), the largest |total weight| over the closed boxes with
    ``w`` deposited at ``cells`` in order."""
    plain, aug = _grid_axes(pts)
    _check_budget(math.prod(map(len, aug)), "grid corners", budget, "two-measure distance")
    shape = tuple(map(len, plain))
    _, cells = _grid_cells(plain, pts, "closed")
    return cells, lambda c, w: float(np.max(np.abs(_prefix_sums(shape, c, w))))


def two_measure_star_disc(P: DiscreteMeasure, Q: DiscreteMeasure,
                          budget: int = 20_000_000) -> float:
    """Anchored-box distance sup_B |P(B) - Q(B)| of two discrete measures.

    Both measures are piecewise constant on the grid induced by the union of
    the supports, so the supremum over closed boxes is attained on the plain
    union grid.  Open boxes add nothing: the open box at augmented-grid
    index t + 1 holds exactly the atoms of the closed box at plain-grid
    index t, and an open box with an index 0 on some axis is empty.  The
    open tensor is thus the closed deposit shifted by one cell per axis,
    and since 0.0 + x == x each of its entries is bitwise a closed entry or
    0.  Only the closed side is enumerated; the budget still counts the
    augmented grid's corners.
    """
    if P.d != Q.d:
        raise ValueError("measures must share the dimension")
    cells, gap = _closed_grid(np.vstack([P.atoms, Q.atoms]), budget)
    return gap(cells, np.concatenate([P.probabilities, -Q.probabilities]))


def _supporting_boxes(P: DiscreteMeasure, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The supporting boxes of P: a B x N matrix telling which atoms each box
    holds, and P's mass in each box.  They depend on P alone, so one table
    serves every candidate support.  ``budget`` bounds the grid and the
    entries of the largest simplex tableau :func:`_inner_lp` can build,
    (2B+2) x (N+2B+2) for B boxes and N atoms."""
    plain, aug = _grid_axes(P.atoms)
    what = "inner weight optimization"
    _check_budget(math.prod(map(len, aug)), "grid corners", budget, what)
    (open_y, open_m), (closed_y, closed_m) = _critical_corners(
        P.atoms, plain, aug, P.probabilities)
    B = len(open_y) + len(closed_y)
    _check_budget((2 * B + 2) * (P.n + 2 * B + 2), "simplex tableau entries", budget, what)
    member = np.vstack([np.all(P.atoms < open_y[:, None], axis=2),
                        np.all(P.atoms <= closed_y[:, None], axis=2)])
    return member, np.concatenate([open_m, closed_m])


def _inner_lp(member: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve min t s.t. |mass - member q| <= t, q a probability vector, for a
    B x m membership matrix of the support atoms; returns (q, t)."""
    B, m = member.shape
    r = np.arange(B)
    # variables: q_1..q_m, t, then one slack per inequality (2B of them)
    A = np.zeros((2 * B + 1, m + 1 + 2 * B))
    A[:B, :m] = A[B : 2 * B, :m] = member
    A[:B, m] = -1.0                  # q.a - t + s = P(B)
    A[r, m + 1 + r] = 1.0
    A[B : 2 * B, m] = 1.0            # q.a + t - s' = P(B)
    A[B + r, m + 1 + B + r] = -1.0
    A[2 * B, :m] = 1.0
    b = np.concatenate([mass, mass, [1.0]])
    c = np.zeros(A.shape[1])
    c[m] = 1.0
    # feasible start: all mass on the first atom, t basic in the row of the
    # largest deviation, the other 2B - 1 slacks basic in their own rows
    dev = member[:, 0] - mass
    basis = m + 1 + np.arange(2 * B + 1)
    basis[np.argmax(np.concatenate([dev, -dev]))] = m
    basis[2 * B] = 0
    x, obj = solve_lp(c, A, b, basis)
    q = np.maximum(x[:m], 0.0)
    q /= q.sum()
    return q, float(obj)


def optimal_inner_weights(P: DiscreteMeasure, support_idx,
                          budget: int = 2_000_000) -> tuple[np.ndarray, float]:
    """Best probabilities on a fixed support subset, by linear programming.

    Minimizes t subject to |P(B) - sum_i q_i 1_B(y_i)| <= t over the
    supporting boxes (critical corners of the union-support grids), with the
    q_i a probability vector.  Returns (q, t).
    """
    support_idx = sorted(set(int(i) for i in support_idx))
    if not support_idx:
        raise ValueError("support subset must be nonempty")
    if any(i < 0 or i >= P.n for i in support_idx):
        raise ValueError("support indices out of range")
    member, mass = _supporting_boxes(P, budget)
    return _inner_lp(member[:, support_idx], mass)


@dataclass(frozen=True)
class ReductionResult:
    """Reduced measure with its achieved distance and the selection trace."""

    measure: DiscreteMeasure
    support_idx: tuple
    distance: float
    trace: tuple  # ((support size, distance), ...)


def _nearest_mass_weights(P: DiscreteMeasure, support_idx: list) -> np.ndarray:
    """Fast heuristic weights: each atom's mass goes to its nearest kept atom."""
    Y = P.atoms[support_idx]
    d2 = np.sum((P.atoms[:, None, :] - Y[None, :, :]) ** 2, axis=2)
    assign = np.argmin(d2, axis=1)
    q = np.zeros(len(support_idx))
    np.add.at(q, assign, P.probabilities)
    return q


def _measure_on(P: DiscreteMeasure, support_idx: list, q: np.ndarray) -> DiscreteMeasure:
    return DiscreteMeasure(P.atoms[support_idx], q)


def _support_scorer(P: DiscreteMeasure, exact_inner: bool, budget: int):
    """The inner problem of one reduction of P, set up once: a function from
    a support to (q, t) on that support sorted increasingly, q in that order.

    With ``exact_inner`` q is LP-optimal over P's supporting boxes.  Else q
    is nearest-mass and t is ``two_measure_star_disc`` of P and q, to the
    bit: the support's atoms are P's, so the union grid is P's grid and
    [p, -q] goes to the cells of P's atoms and then of the support's.
    """
    if exact_inner:
        member, mass = _supporting_boxes(P, budget)
        return lambda support: _inner_lp(member[:, sorted(support)], mass)
    cells, gap = _closed_grid(P.atoms, budget)

    def nearest(support):
        support = sorted(support)
        q = _nearest_mass_weights(P, support)
        return q, gap(np.concatenate([cells, cells[support]]),
                      np.concatenate([P.probabilities, -q]))

    return nearest


_TIE = 1e-9  # candidates this close to the incumbent tie; the earlier wins


def forward_selection(P: DiscreteMeasure, n: int, exact_inner: bool = False,
                      budget: int = 2_000_000) -> ReductionResult:
    """Grow the support greedily, one atom at a time, smallest distance first."""
    if not (1 <= n <= P.n):
        raise ValueError("need 1 <= n <= number of atoms")
    score = _support_scorer(P, exact_inner, budget)
    chosen: list[int] = []
    trace = []
    while len(chosen) < n:
        best = None
        for cand in range(P.n):
            if cand in chosen:
                continue
            qc, t = score(chosen + [cand])
            if best is None or t < best[1] - _TIE:
                best = (cand, t, qc)
        chosen.append(best[0])
        dist, q = best[1], best[2]
        trace.append((len(chosen), dist))
    idx = sorted(chosen)
    return ReductionResult(_measure_on(P, idx, q), tuple(idx), dist, tuple(trace))


def backward_selection(P: DiscreteMeasure, n: int, exact_inner: bool = False,
                       budget: int = 2_000_000) -> ReductionResult:
    """Shrink the support greedily from the full set, best removal first."""
    if not (1 <= n <= P.n):
        raise ValueError("need 1 <= n <= number of atoms")
    score = _support_scorer(P, exact_inner, budget)
    chosen = list(range(P.n))
    trace = [(P.n, 0.0)]
    if n == P.n:  # nothing to remove, but the weights still come from a solve
        q, dist = score(chosen)
    while len(chosen) > n:
        best = None
        for cand in chosen:
            qc, t = score([i for i in chosen if i != cand])
            if best is None or t < best[1] - _TIE:
                best = (cand, t, qc)
        chosen.remove(best[0])
        dist, q = best[1], best[2]
        trace.append((len(chosen), dist))
    return ReductionResult(_measure_on(P, chosen, q), tuple(chosen), dist, tuple(trace))


# ---------------------------------------------------------------------------
# evolutionary search for generalized Halton permutations
# ---------------------------------------------------------------------------

def _mutate_permutation(pi: np.ndarray, rng) -> np.ndarray:
    """Swap each non-fixed position with probability 2/p with a random partner."""
    p = len(pi)
    out = pi.copy()
    if p <= 2:
        return out
    for pos in range(1, p):
        if rng.random() < 2.0 / p:
            other = rng.integers(1, p)
            out[pos], out[other] = out[other], out[pos]
    return out


def _crossover_permutations(pa: np.ndarray, pb: np.ndarray, rng) -> np.ndarray:
    """Recombine by iteratively swapping value pairs of the first parent
    toward the second, at a fair coin per position."""
    p = len(pa)
    child = pa.copy()
    pos_of = np.empty(p, dtype=np.int64)
    pos_of[child] = np.arange(p)
    for pos in range(1, p):
        if child[pos] != pb[pos] and rng.random() < 0.5:
            other = pos_of[pb[pos]]
            child[pos], child[other] = child[other], child[pos]
            pos_of[child[pos]] = pos
            pos_of[child[other]] = other
    return child


def optimize_halton_permutations(d: int, n_points: int, mu: int, lam: int,
                                 generations: int, seed: int = 0) -> PermutationConfig:
    """Component-by-component evolutionary search for digit permutations.

    For each coordinate in turn, a (mu+lambda) elitist EA over zero-fixing
    permutations of the coordinate's prime base minimizes the squared
    modified L2 discrepancy of the first ``n_points`` generalized Halton
    points projected onto the coordinates fixed so far.  The identity is
    always seeded, and the final configuration is never worse than the plain
    Halton configuration under the same fitness.
    """
    if min(d, n_points, mu, lam, generations) < 1:
        raise ValueError("all parameters must be >= 1")
    rng = np.random.default_rng(seed)
    bases = primes(d)
    chosen: list[np.ndarray] = []

    def fitness(perm_lists: list) -> float:
        cfg = PermutationConfig(perm_lists)
        X = halton(n_points, len(perm_lists), cfg)
        return l2.modified_l2_sq(X)

    for j, p in enumerate(bases):
        identity = np.arange(p)
        if p == 2:
            chosen.append(identity)
            continue
        prefix = [q.tolist() for q in chosen]
        cache: dict[tuple, float] = {}

        def fit(pi: np.ndarray) -> float:
            key = tuple(pi.tolist())
            if key not in cache:
                cache[key] = fitness(prefix + [pi.tolist()])
            return cache[key]

        pop = [identity] + [np.array(random_permutation(p, rng)) for _ in range(mu - 1)]
        pop = pop[:mu]
        fits = [fit(q) for q in pop]
        for _ in range(generations):
            offspring = []
            for _ in range(lam):
                pa, pb = rng.integers(0, len(pop), size=2)
                child = _crossover_permutations(pop[pa], pop[pb], rng)
                child = _mutate_permutation(child, rng)
                offspring.append(child)
            allpop = pop + offspring
            allfits = fits + [fit(q) for q in offspring]
            order = sorted(range(len(allpop)), key=lambda i: allfits[i])[:mu]
            pop = [allpop[i] for i in order]
            fits = [allfits[i] for i in order]
        chosen.append(pop[0])

    result = PermutationConfig([q.tolist() for q in chosen])
    identity_cfg = PermutationConfig.identity(d)
    fit_res = l2.modified_l2_sq(halton(n_points, d, result))
    fit_id = l2.modified_l2_sq(halton(n_points, d, identity_cfg))
    return result if fit_res <= fit_id else identity_cfg


# ---------------------------------------------------------------------------
# quality report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportCell:
    set_name: str
    measure: str
    value: float | None
    lower: float | None
    upper: float | None
    method: str
    seed: int | None
    wall_time: float
    error: str | None = None


def quality_report(sets: dict, measures: list, exact_budget: int = 50_000_000,
                   delta: float = 0.1, ta_iterations: int = 2000,
                   restarts: int = 3, seed: int = 0) -> list[ReportCell]:
    """Evaluate each requested measure on each named point set.

    Exact methods run where the budget allows; the star discrepancy falls
    back to a [heuristic lower, cover upper] interval otherwise.  Per-cell
    failures are recorded in the cell, never raised.
    """
    out: list[ReportCell] = []
    for name in sorted(sets):
        X = sets[name]
        for measure in measures:
            t0 = time.perf_counter()
            value = lower = upper = None
            method = measure
            cell_seed = None
            err = None
            try:
                if measure == "star-linf":
                    try:
                        res = star_exact(X, exact_budget)
                        value = res.value
                        method = exact_method(X.d)
                    except BudgetExceededError:
                        cell_seed = seed
                        lower = _best_ta(X, TAConfig(ta_iterations, seed=seed), restarts).lower
                        try:
                            upper = cover_bounds(X, delta, cap=exact_budget).upper
                        except BudgetExceededError:
                            upper = 1.0
                        method = "ta-lower/cover-upper"
                elif measure == "star-l2":
                    value = l2.warnock_star_l2_sq(X)
                    method = "warnock"
                elif measure == "extreme-l2":
                    value = l2.extreme_l2_sq(X)
                    method = "direct"
                elif measure == "modified-l2":
                    value = l2.modified_l2_sq(X)
                    method = "warnock-weighted"
                elif measure == "lp-even":
                    value = lp.weighted_star_lp_pow(X, np.ones(X.d), 4)
                    method = "direct-p4"
                elif measure == "cover-upper":
                    res = cover_bounds(X, delta, cap=exact_budget)
                    lower, upper = res.lower, res.upper
                    method = "cover"
                elif measure == "ta-lower":
                    cell_seed = seed
                    lower = _best_ta(X, TAConfig(ta_iterations, seed=seed), restarts).lower
                    upper = 1.0
                    method = "ta-improved"
                else:
                    raise ValueError(f"unknown measure {measure!r}")
            except Exception as exc:  # recorded, never raised
                err = f"{type(exc).__name__}: {exc}"
            out.append(ReportCell(name, measure, value, lower, upper, method,
                                  cell_seed, time.perf_counter() - t0, err))
    return out
