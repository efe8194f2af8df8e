"""Applications: measure reduction, permutation search, quality reporting.

Scenario reduction in the sense of Henrion, Kuechler and Roemisch (2009):
approximate a discrete probability measure P by a measure Q supported on a
small subset of P's atoms, minimizing the anchored-box (Kolmogorov-type)
distance.  The outer support search is greedy forward or backward selection.
The inner probability optimization is either a small linear program whose
constraints are indexed by the supporting boxes, P's closed critical
boxes, solved as its dual with one row per support atom, or, by default, the
nearest-mass heuristic (each atom's mass moves to its nearest kept atom).
Either is set up once per reduction: the box table, or P's closed grid on
which nearest-mass candidates are scored, since their atoms are P's own.
One batched scorer takes all candidates of a greedy step: the LP solves
them one by one, the nearest-mass heuristic walks P's grid once per batch
of candidates, one lane each.

Permutation search in the style of de Rainville, Gagne, Teytaud and
Laurendeau (2012): a component-by-component (mu+lambda) evolutionary search
for digit permutations of the generalized Halton sequence, scored by the
modified L2 discrepancy.

The measure table ``MEASURES`` is the one place that maps each measure name
of ``disc`` and ``report`` to the call it runs and the fields it records,
with the options' defaults in ``OPTIONS``.  Quality reporting runs the
table per named point set; the star discrepancy falls back to a bound
interval where its exact search does not fit the budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import l2, lp
from ._simplex import LPError, solve_lp
from .generators import PermutationConfig, halton, primes, random_permutation
from .linf_approx import TAConfig, _best_ta, cover_bounds, ga_lower_bound
from .linf_exact import star_by_method, star_grid_enum
from .pointset import (BudgetExceededError, _as_points, _critical_corners,
                       _grid_axes, _grid_cells, _grid_rows, _lanes)

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
    """(cells, gap, lanes) on the plain grid induced by ``pts``, after the
    distance's budget check on the augmented grid: each point's flat closed
    cell; gap(cells, w), the largest |total weight| over the closed boxes
    with ``w`` deposited at ``cells`` in order, per lane if ``w`` has a lane
    axis, streamed in chunks of rows, so memory is one ``pointset._CHUNK``
    per lane; and the lanes one walk takes (``pointset._lanes``)."""
    plain, aug = _grid_axes(pts)
    _check_budget(math.prod(map(len, aug)), "grid corners", budget, "two-measure distance")
    shape = tuple(map(len, plain))
    cells = _grid_cells(plain, pts, "closed")

    def gap(c, w):  # the max over axis 0 first runs along whole rows
        return np.max([np.abs(H, out=H).max(axis=0).reshape((-1,) + w.shape[1:]).max(axis=0)
                       for _, H in _grid_rows(shape, c, w)], axis=0)

    return cells, gap, _lanes(shape)


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
    0.  Only the closed side is enumerated, in chunks of rows; the budget
    still counts the augmented grid's corners.
    """
    if P.d != Q.d:
        raise ValueError("measures must share the dimension")
    cells, gap, _ = _closed_grid(np.vstack([P.atoms, Q.atoms]), budget)
    return float(gap(cells, np.concatenate([P.probabilities, -Q.probabilities])))


def _supporting_boxes(P: DiscreteMeasure, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The supporting boxes of P, its closed critical boxes: a B x N matrix
    telling which atoms each box holds, and P's mass in each box.

    Each closed critical corner is the componentwise maximum of the atoms in
    its box, so the boxes are P's distinct non-empty closed-box atom sets,
    and B >= 1.  By the shift argument of :func:`two_measure_star_disc`
    every non-empty open box holds one of these sets, so open boxes add no
    constraint.  They depend on P alone, so one table serves every candidate
    support.  ``budget`` bounds the augmented grid and the entries of the
    largest simplex tableau :func:`_inner_lp` can build, (N+2) x (2B+N+3)
    for B boxes and N atoms."""
    plain, aug = _grid_axes(P.atoms)
    what = "inner weight optimization"
    _check_budget(math.prod(map(len, aug)), "grid corners", budget, what)
    corners, mass = _critical_corners(P.atoms, plain, "closed", P.probabilities)
    B = len(corners)
    _check_budget((P.n + 2) * (2 * B + P.n + 3), "simplex tableau entries", budget, what)
    return np.all(P.atoms <= corners[:, None], axis=2), mass


def _inner_lp(member: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve min t s.t. |mass - member q| <= t, q a probability vector, for a
    B x m membership matrix of the support atoms; returns (q, t).

    The simplex runs on the dual, max mass.(v - u) + z s.t. member'(v - u)
    + z <= 0 row by row and sum(u + v) = 1, u, v >= 0, z free: m + 1 rows.
    q is the reduced costs of its slack columns."""
    B, m = member.shape
    # variables: u (B), v (B), z = z+ - z-, then one slack per support atom
    A = np.zeros((m + 1, 2 * B + 2 + m))
    A[:m, B : 2 * B] = member.T
    A[:m, :B] = -A[:m, B : 2 * B]
    A[:m, 2 * B] = 1.0
    A[:m, 2 * B + 1] = -1.0
    A[:m, 2 * B + 2 :] = np.eye(m)
    A[m, : 2 * B] = 1.0
    b = np.zeros(m + 1)
    b[m] = 1.0
    c = np.concatenate([mass, -mass, [-1.0, 1.0], np.zeros(m)])
    # feasible start: u_0 = 1 and z = 0, so slack i is member[0, i] >= 0
    basis = np.append(2 * B + 2 + np.arange(m), 0)
    _, obj, reduced = solve_lp(c, A, b, basis)
    q = np.maximum(reduced[2 * B + 2 :], 0.0)
    q /= q.sum()
    return q, 0.0 - obj  # t = -obj, but +0.0 where obj is 0.0


def optimal_inner_weights(P: DiscreteMeasure, support_idx,
                          budget: int = 2_000_000) -> tuple[np.ndarray, float]:
    """Best probabilities on a fixed support subset, by linear programming.

    Minimizes t subject to |P(B) - sum_i q_i 1_B(y_i)| <= t over the
    supporting boxes (P's closed critical boxes), with the q_i a probability
    vector.  Returns (q, t).
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


def _support_scorer(P: DiscreteMeasure, exact_inner: bool, budget: int):
    """The inner problem of one reduction of P, set up once: a function
    score(kept, cands, grow) yielding, for each candidate c of one greedy
    step, (q, t) on the support kept + [c] (grow) or kept less c, sorted
    increasingly, q in that order.

    With ``exact_inner`` q is LP-optimal over P's supporting boxes, one
    solve per support.  Else q is nearest-mass (each atom's mass goes to the
    first of its nearest support atoms, summed in atom order) and t is
    ``two_measure_star_disc`` of P and q, to the bit: P's atoms have
    distinct closed cells, so a candidate is one lane of P's grid holding
    p_i - q_i at atom i's cell, and a batch of candidates is one walk.
    """
    def support(kept, c, grow):
        return sorted(kept + [c]) if grow else [i for i in kept if i != c]

    if exact_inner:
        member, mass = _supporting_boxes(P, budget)
        return lambda kept, cands, grow: (
            _inner_lp(member[:, support(kept, c, grow)], mass) for c in cands)
    cells, gap, lanes = _closed_grid(P.atoms, budget)
    X, p = P.atoms, P.probabilities

    def d2(cols):  # squared distances from every atom to the atoms cols
        return np.sum((X[:, None, :] - X[None, cols, :]) ** 2, axis=2)

    def nearest_two(kept):  # each atom's first two (d2, atom) over kept, in that order
        dist, near = np.full((P.n, 2), np.inf), np.full((P.n, 2), P.n)
        for b0 in range(0, len(kept), lanes):
            cols = kept[b0 : b0 + lanes]
            dd, nn = np.hstack([dist, d2(cols)]), np.hstack([near, np.tile(cols, (P.n, 1))])
            o = dd.argsort(axis=1, kind="stable")[:, :2]
            dist, near = np.take_along_axis(dd, o, 1), np.take_along_axis(nn, o, 1)
        return dist, near

    def nearest_mass(kept, cands, grow):
        kept = sorted(kept)
        dist, near = nearest_two(np.array(kept, dtype=np.int64))
        for b0 in range(0, len(cands), lanes):
            c = np.array(cands[b0 : b0 + lanes], dtype=np.int64)
            if grow:  # c takes the atoms it is closer to, or as close with a smaller index
                dc = d2(c)
                to = np.where((dc < dist[:, :1]) | (dc == dist[:, :1]) & (c < near[:, :1]),
                              c, near[:, :1])
            else:  # a dropped atom's atoms go to their second-nearest
                to = np.where(near[:, :1] == c, near[:, 1:], near[:, :1])
            q = np.zeros((P.n, len(c)))
            np.add.at(q.reshape(-1), (to * len(c) + np.arange(len(c))).ravel(),
                      np.repeat(p, len(c)))
            t = gap(cells, (0.0 + p)[:, None] - q)
            for b, cb in enumerate(c.tolist()):
                yield q[support(kept, cb, grow), b], float(t[b])

    return nearest_mass


_TIE = 1e-9  # candidates this close to the incumbent tie; the earlier wins


def _pick(cands: list, scored) -> tuple:
    """(candidate, t, q) of the first candidate no later one beats by _TIE."""
    best = None
    for cand, (qc, t) in zip(cands, scored):
        if best is None or t < best[1] - _TIE:
            best = (cand, t, qc)
    return best


def forward_selection(P: DiscreteMeasure, n: int, exact_inner: bool = False,
                      budget: int = 2_000_000) -> ReductionResult:
    """Grow the support greedily, one atom at a time, smallest distance first."""
    if not (1 <= n <= P.n):
        raise ValueError("need 1 <= n <= number of atoms")
    score = _support_scorer(P, exact_inner, budget)
    chosen: list[int] = []
    trace = []
    while len(chosen) < n:
        cands = [c for c in range(P.n) if c not in chosen]
        cand, dist, q = _pick(cands, score(chosen, cands, True))
        chosen.append(cand)
        trace.append((len(chosen), dist))
    idx = sorted(chosen)
    return ReductionResult(DiscreteMeasure(P.atoms[idx], q), tuple(idx), dist,
                           tuple(trace))


def backward_selection(P: DiscreteMeasure, n: int, exact_inner: bool = False,
                       budget: int = 2_000_000) -> ReductionResult:
    """Shrink the support greedily from the full set, best removal first."""
    if not (1 <= n <= P.n):
        raise ValueError("need 1 <= n <= number of atoms")
    score = _support_scorer(P, exact_inner, budget)
    chosen = list(range(P.n))
    trace = [(P.n, 0.0)]
    if n == P.n:  # nothing to remove, but the weights still come from a solve
        (q, dist), = score(chosen[:-1], chosen[-1:], True)  # the last atom added to the rest
    while len(chosen) > n:
        cand, dist, q = _pick(chosen, score(chosen, chosen, False))
        chosen.remove(cand)
        trace.append((len(chosen), dist))
    return ReductionResult(DiscreteMeasure(P.atoms[chosen], q), tuple(chosen), dist,
                           tuple(trace))


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
        return l2.modified_l2_sq(halton(n_points, len(perm_lists), PermutationConfig(perm_lists)))

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
        fits = [fit(q) for q in pop]
        for _ in range(generations):
            offspring = []
            for _ in range(lam):
                pa, pb = rng.integers(0, len(pop), size=2)
                child = _crossover_permutations(pop[pa], pop[pb], rng)
                offspring.append(_mutate_permutation(child, rng))
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
# the measure table and the quality report
# ---------------------------------------------------------------------------

# The options the measures read, with their defaults: ``disc`` takes each
# from its flag of the same name, and ``quality_report`` overlays its keywords.
OPTIONS = dict(method="auto", budget=50_000_000, delta=0.1, variant="improved",
               iterations=10_000, restarts=1, mc=2, k=8, p=2, mu=8, lambda_c=8,
               lambda_m=8, stagnation=50, seed=None, gstar=None, gamma=None)
REPORT_MEASURES = "star-linf,star-l2"  # what ``report`` runs without --measures


class Measure(NamedTuple):
    run: Callable  # (X, options) -> the fields of its record
    label: str = ""  # the method a report cell names where the fields name none
    needs: tuple = ()  # of seed, gstar and gamma: the options the caller prepares


def _squared(value: float) -> dict:
    return dict(value=value, squared=True)


def _star_linf(X, o) -> dict:
    res = (star_by_method(X, o.method, o.budget) if o.gstar is None
           else star_grid_enum(X, o.gstar, o.budget))
    return dict(method=res.method, value=res.value, witness=res.witness, witness_kind=res.kind)


def _weighted_l2(X, o) -> dict:
    if o.gamma is None:
        raise ValueError("weighted-l2 needs --gamma")
    return _squared(l2.weighted_star_l2_sq(X, o.gamma))


def _lp_even(X, o) -> dict:
    gamma = np.ones(X.d) if o.gamma is None else o.gamma
    return dict(p=o.p, value=lp.weighted_star_lp_pow(X, gamma, o.p, budget=o.budget),
                squared=False, power=o.p)


def _cover_upper(X, o) -> dict:
    res = cover_bounds(X, o.delta, cap=o.budget)
    return dict(lower=res.lower, upper=res.upper, delta=o.delta, witness=res.witness)


def _ta_lower(X, o) -> dict:
    res = _best_ta(X, TAConfig(o.iterations, mc=o.mc, k=o.k, seed=o.seed), o.restarts, o.variant)
    return dict(variant=o.variant, lower=res.lower, upper=res.upper, iterations=o.iterations,
                seed=o.seed, restarts=o.restarts, witness=res.witness)


def _ga_lower(X, o) -> dict:
    res = ga_lower_bound(X, o.mu, o.lambda_c, o.lambda_m, o.stagnation, o.seed)
    return dict(lower=res.lower, upper=res.upper, mu=o.mu, lambda_c=o.lambda_c,
                lambda_m=o.lambda_m, stagnation=o.stagnation, seed=o.seed,
                witness=res.witness)


# Each entry looks its library function up when it runs, so a wrapper put on
# that function's name (a profiler's, say) sees the call.
MEASURES = {
    "star-linf": Measure(_star_linf, needs=("gstar",)),
    "star-l2": Measure(lambda X, o: _squared(l2.warnock_star_l2_sq(X)), "warnock"),
    "extreme-l2": Measure(lambda X, o: _squared(l2.extreme_l2_sq(X)), "direct"),
    "modified-l2": Measure(lambda X, o: _squared(l2.modified_l2_sq(X)), "warnock-weighted"),
    "weighted-l2": Measure(_weighted_l2, "warnock-weighted", ("gamma",)),
    "lp-even": Measure(_lp_even, "direct-p4", ("gamma",)),
    "cover-upper": Measure(_cover_upper, "cover"),
    "ta-lower": Measure(_ta_lower, "ta-improved", ("seed",)),
    "ga-lower": Measure(_ga_lower, "ga", ("seed",)),
}


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


def _star_bracket(X, o, cell: dict) -> None:
    """The star discrepancy's interval where the exact search does not fit:
    TA's lower bound, then the cover's upper bound, or 1.0 where the cover
    does not fit either.  Each goes into ``cell`` when found, so a failing
    cover leaves the lower bound in the error cell."""
    cell["seed"] = o.seed
    cell["lower"] = _ta_lower(X, o)["lower"]
    try:
        cell["upper"] = _cover_upper(X, o)["upper"]
    except BudgetExceededError:
        cell["upper"] = 1.0
    cell["method"] = "ta-lower/cover-upper"


def quality_report(sets: dict, measures: list, exact_budget: int = OPTIONS["budget"],
                   delta: float = OPTIONS["delta"], ta_iterations: int = 2000,
                   restarts: int = 3, seed: int = 0) -> list[ReportCell]:
    """Evaluate each requested measure on each named point set.

    Every measure runs its ``MEASURES`` entry with the ``disc`` defaults,
    overlaid by these keywords and p = 4; the star discrepancy falls back to
    a [TA lower, cover upper] interval where the exact search does not fit
    ``exact_budget``.  Per-cell failures are recorded in the cell, never
    raised, and an error cell's method is its measure.
    """
    o = SimpleNamespace(**OPTIONS | dict(budget=exact_budget, delta=delta, p=4, seed=seed,
                                         iterations=ta_iterations, restarts=restarts))
    out: list[ReportCell] = []
    for name in sorted(sets):
        X = sets[name]
        for measure in measures:
            t0 = time.perf_counter()
            cell = {"method": measure}
            try:
                if measure not in MEASURES:
                    raise ValueError(f"unknown measure {measure!r}")
                row = MEASURES[measure]
                if "seed" in row.needs:
                    cell["seed"] = seed
                try:
                    cell.update({"method": row.label, **row.run(X, o)})
                except BudgetExceededError:
                    if measure != "star-linf":
                        raise
                    _star_bracket(X, o, cell)
            except Exception as exc:  # recorded, never raised
                cell["error"] = f"{type(exc).__name__}: {exc}"
            out.append(ReportCell(name, measure, cell.get("value"), cell.get("lower"),
                                  cell.get("upper"), cell["method"], cell.get("seed"),
                                  time.perf_counter() - t0, cell.get("error")))
    return out
