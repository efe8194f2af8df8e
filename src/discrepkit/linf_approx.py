"""Guaranteed and heuristic bounds for the star discrepancy.

Two-sided bounds come from delta-covers (Thiemard 2000/2001; Doerr, Gnewuch,
Srivastav 2005): a finite corner set whose brackets sandwich every anchored
box to within delta in volume discretizes the star discrepancy with additive
error at most delta.  The cover built here is the plain uniform grid with
step at most delta/d, whose bracket defect telescopes to at most delta; the
much smaller covers known from the bracketing-entropy literature are only
reported as a size yardstick, not constructed.

Heuristic lower bounds come from threshold accepting, in the original
grid-neighborhood form of Winker and Fang (1997) and the refined form of
Gnewuch, Wahlstrom and Winzen (2012) with continuous neighborhoods, a
polynomial sampling measure favoring large coordinates, and rounding onto
critical boxes by snapping, and from a (mu+lambda) evolutionary scheme in
the style of Shah (2010).  Every heuristic returns an achieved local
discrepancy with its witness corner, hence always a valid lower bound.

The heuristics count and snap on the rank-bitset workspace of ``pointset``:
per axis and block of points, one Python int per grid position holds the
points below it, so a box count is a popcount of ANDs and a snap a bisection
over such ANDs.  Its memory is linear in n.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .pointset import (BudgetExceededError, PointSet, _snap_down,
                       _Workspace)
from .linf_exact import _grid_star, local_values

__all__ = [
    "DeltaCover",
    "BoundResult",
    "TAConfig",
    "build_delta_cover",
    "cover_bounds",
    "ta_basic",
    "ta_improved",
    "ga_lower_bound",
]


@dataclass(frozen=True)
class DeltaCover:
    """Uniform-grid delta-cover: the corners {h, 2h, ..., 1}^d, h <= delta/d.

    For every y in [0,1]^d there is a bracket x <= y <= z with V_z - V_x <=
    delta, where z is the componentwise grid ceiling (raised to h where y_j
    is below the first level) and x the grid floor; the floor may use the 0
    level and is not itself a reported corner.  All reported corners have
    positive coordinates.
    """

    delta: float
    levels: np.ndarray  # the positive per-axis values h, 2h, ..., 1
    d: int
    descriptor: str

    @property
    def size(self) -> int:
        return len(self.levels) ** self.d

    @property
    def entropy_size_bound(self) -> float:
        """Cover size achievable by the constructions of Gnewuch (2008),
        2^d (2 pi d)^(-1/2) e^d (1/delta + 1)^d; reported for context."""
        d = self.d
        return 2.0 ** d * (2 * math.pi * d) ** -0.5 * math.e ** d * (1.0 / self.delta + 1.0) ** d

    def bracket(self, y) -> tuple[np.ndarray, np.ndarray]:
        """A bracket x <= y <= z with V_z - V_x <= delta; x may touch 0."""
        yv = np.asarray(y, dtype=np.float64).reshape(-1)
        up = np.searchsorted(self.levels, yv, side="left")
        hi = self.levels[np.minimum(up, len(self.levels) - 1)]
        dn = np.searchsorted(self.levels, yv, side="right") - 1
        lo = np.where(dn >= 0, self.levels[np.maximum(dn, 0)], 0.0)
        return lo, hi


def build_delta_cover(d: int, delta: float, cap: int = 200_000_000) -> DeltaCover:
    """Uniform-grid delta-cover of the anchored boxes in dimension d."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    m = math.ceil(d / delta)
    if m ** d > cap:
        raise BudgetExceededError(
            f"cover would have {m}^{d} corners, exceeding the cap of {cap}")
    levels = np.arange(1, m + 1) / m
    levels[-1] = 1.0
    return DeltaCover(delta, levels, d,
                      f"uniform grid, step 1/{m}, {m}^{d} corners")


@dataclass(frozen=True)
class BoundResult:
    """Two-sided bound with the witness achieving the lower side."""

    lower: float
    upper: float
    witness: np.ndarray
    params: dict

    def __post_init__(self):
        if self.lower > self.upper + 1e-15:
            raise ValueError("lower bound exceeds upper bound")
        w = np.asarray(self.witness, dtype=np.float64)
        w.flags.writeable = False
        object.__setattr__(self, "witness", w)


def cover_bounds(X: PointSet, delta: float, cap: int = 200_000_000) -> BoundResult:
    """Sandwich lower <= d*_inf(X) <= lower + delta from a delta-cover.

    The lower bound is the best open- or closed-box local discrepancy over
    the cover corners, each an achieved value and hence sound; adding delta
    on top is valid by the bracketing property.
    """
    cover = build_delta_cover(X.d, delta, cap)
    res = _grid_star(X, [cover.levels] * X.d, [cover.levels] * X.d)
    return BoundResult(res.value, res.value + delta, res.witness,
                       {"delta": delta, "cover_size": cover.size,
                        "entropy_size_bound": cover.entropy_size_bound,
                        "kind": res.kind})


@dataclass(frozen=True)
class TAConfig:
    """Threshold accepting parameters.

    ``iterations`` moves per run (per phase for the improved variant), ``mc``
    coordinates changed per move, grid radius ``k`` for the basic variant,
    and the seed of the single random stream.  The threshold schedule has
    about sqrt(iterations) segments.
    """

    iterations: int
    mc: int = 2
    k: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.mc < 1:
            raise ValueError("mc must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")


def _random_index(ws: _Workspace, rng) -> list:
    return [int(rng.integers(0, s)) for s in ws.sizes]


def _thresholds(ws: _Workspace, iterations: int, rng, move_change) -> tuple[list, int]:
    """Threshold schedule from sampled neighbor pairs.

    Draws about sqrt(iterations) random grid corners, asks ``move_change``
    for the objective change of a random move from each, and returns the
    empirical quantiles of the negated absolute changes rising from the
    median toward zero, the last segment pinned at zero.
    """
    seg_len = max(1, math.isqrt(iterations - 1) + 1) if iterations > 1 else 1
    n_seg = math.ceil(iterations / seg_len)
    seg_len = math.ceil(iterations / n_seg)
    J = max(4, math.isqrt(iterations - 1) + 1) if iterations > 1 else 4
    deltas = np.empty(J)
    for t in range(J):
        deltas[t] = abs(move_change(_random_index(ws, rng)))
    if n_seg == 1:
        return [0.0], seg_len
    qs = 0.5 + 0.5 * np.arange(n_seg) / (n_seg - 1)
    sched = np.quantile(-deltas, qs)
    sched[-1] = 0.0
    return sched.tolist(), seg_len


def ta_basic(X: PointSet, cfg: TAConfig) -> BoundResult:
    """Threshold accepting on the augmented grid (Winker-Fang neighborhoods).

    State is a grid corner; a move redraws ``mc`` random coordinates by up to
    ``k`` grid steps each; a move is accepted when the objective (the larger
    of the open and closed local discrepancies) does not drop by more than
    the current threshold.  Returns the best value seen; the upper bound is
    the uninformative 1.
    """
    ws = _Workspace(X.points)
    rng = np.random.default_rng(cfg.seed)
    mc = min(cfg.mc, ws.d)

    def neighbor(idx: list) -> list:
        out = list(idx)
        coords = rng.choice(ws.d, size=mc, replace=False)
        steps = rng.integers(-cfg.k, cfg.k + 1, size=mc)
        for j, step in zip(coords.tolist(), steps.tolist()):
            out[j] = min(max(out[j] + step, 0), ws.sizes[j] - 1)
        return out

    def move_change(idx):
        f = ws.delta_star(ws.corner(idx))
        return ws.delta_star(ws.corner(neighbor(idx))) - f

    sched, seg_len = _thresholds(ws, cfg.iterations, rng, move_change)

    idx = _random_index(ws, rng)
    y = ws.corner(idx)
    f = ws.delta_star(y)
    best_f, best_y = f, y
    for it in range(cfg.iterations):
        T = sched[min(it // seg_len, len(sched) - 1)]
        idx2 = neighbor(idx)
        z = ws.corner(idx2)
        fz = ws.delta_star(z)
        if fz > best_f:
            best_f, best_y = fz, z
        if fz - f >= T:
            idx, f = idx2, fz
    op, cl = local_values(X, best_y)
    return BoundResult(max(op, cl), 1.0, best_y,
                       {"variant": "basic", "iterations": cfg.iterations,
                        "mc": mc, "k": cfg.k, "seed": cfg.seed})


def ta_improved(X: PointSet, cfg: TAConfig) -> BoundResult:
    """Threshold accepting with continuous neighborhoods and snapping.

    Per phase the state is a snapped grid corner.  A move picks ``mc``
    coordinates, spans the continuous interval reaching k grid positions to
    either side, and samples each new coordinate through the inverse
    transform ((u^d - l^d) s + l^d)^(1/d) of the polynomial measure, which
    favors large coordinates.  The sample is rounded down and up onto
    critical corners by snapping; the closed phase optimizes the closed-box
    value of the down-snap, the open phase the open-box value of the up-snap,
    and both snaps feed the overall best.  The neighborhood radius k shrinks
    linearly from half the largest grid size to 1 over the run; ``cfg.k`` is
    not used.
    """
    ws = _Workspace(X.points)
    rng = np.random.default_rng(cfg.seed)
    d = ws.d
    mc = min(cfg.mc, d)
    # snapped-down corners live on the grids extended by a 0 level
    ext = [[0.0] + a if a[0] > 0.0 else a for a in ws.aug]

    best = {"val": -np.inf, "y": None}

    def track(val: float, y: list) -> None:
        if val > best["val"]:
            best["val"] = val
            best["y"] = y

    def sample_tilde(y: list, k: int) -> list:
        out = list(y)
        for j in rng.choice(d, size=mc, replace=False).tolist():
            e = ext[j]
            pos = bisect_left(e, y[j])
            lo = e[max(pos - k, 0)]
            hi = e[min(pos + k, len(e) - 1)]
            if hi <= lo:
                out[j] = lo
                continue
            s = rng.random()
            out[j] = ((hi ** d - lo ** d) * s + lo ** d) ** (1.0 / d)
        return out

    def run_phase(closed_phase: bool, iters: int) -> None:
        if iters < 1:
            return
        y0 = ws.corner(_random_index(ws, rng))
        if closed_phase:
            y = _snap_down(y0, ws.plain)
            f = ws.delta_bar(y)
        else:
            y = ws.snap_up(y0, rng)
            f = ws.delta(y)
        track(ws.delta_star(y), y)
        k0 = max(1, max(ws.sizes) // 2)

        def move_change(idx):
            yy = ws.corner(idx)
            zt = sample_tilde(yy, k0)
            if closed_phase:
                return ws.delta_bar(_snap_down(zt, ws.plain)) - ws.delta_bar(yy)
            return ws.delta(ws.snap_up(zt, rng)) - ws.delta(yy)

        sched, seg_len = _thresholds(ws, iters, rng, move_change)
        for it in range(iters):
            T = sched[min(it // seg_len, len(sched) - 1)]
            frac = it / max(iters - 1, 1)
            k = max(1, int(round(k0 * (1.0 - frac) + 1.0 * frac)))
            zt = sample_tilde(y, k)
            z_dn = _snap_down(zt, ws.plain)
            z_up = ws.snap_up(zt, rng)
            v_dn = ws.delta_bar(z_dn)
            v_up = ws.delta(z_up)
            track(v_dn, z_dn)
            track(v_up, z_up)
            if closed_phase:
                fz, z = v_dn, z_dn
            else:
                fz, z = v_up, z_up
            if fz - f >= T:
                y, f = z, fz

    half = cfg.iterations // 2
    run_phase(True, half)
    run_phase(False, cfg.iterations - half)

    op, cl = local_values(X, best["y"])
    return BoundResult(max(op, cl), 1.0, best["y"],
                       {"variant": "improved", "iterations": cfg.iterations,
                        "mc": mc, "seed": cfg.seed})


def _best_ta(X: PointSet, cfg: TAConfig, restarts: int,
             variant: str = "improved") -> BoundResult:
    """Best of ``restarts`` TA runs seeded cfg.seed, cfg.seed + 1, ...

    ``variant`` is "basic" or "improved"; the first of equally good runs wins.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    run = ta_basic if variant == "basic" else ta_improved
    best = None
    for r in range(restarts):
        res = run(X, replace(cfg, seed=cfg.seed + r))
        if best is None or res.lower > best.lower:
            best = res
    return best


def ga_lower_bound(X: PointSet, mu: int, C: int, M: int, t: int,
                   seed: int = 0) -> BoundResult:
    """(mu+lambda) evolutionary lower bound with lambda = C + M.

    Population of grid corners; per generation C uniform crossovers of random
    parents and M single-step grid mutations of random individuals, then
    elitist selection of the mu best by the larger of the open and closed
    local discrepancies.  Stops once the best value has not improved for t
    consecutive generations.
    """
    if min(mu, C, M, t) < 1:
        raise ValueError("mu, C, M and t must all be >= 1")
    ws = _Workspace(X.points)
    rng = np.random.default_rng(seed)

    def fitness(idx: list) -> float:
        return ws.delta_star(ws.corner(idx))

    pop = [_random_index(ws, rng) for _ in range(mu)]
    fits = [fitness(p) for p in pop]
    best_f = max(fits)
    best_y = ws.corner(pop[fits.index(best_f)])
    stagnant = 0
    while stagnant < t:
        children = []
        for _ in range(C):
            pa, pb = rng.integers(0, mu, size=2)
            mask = (rng.random(ws.d) < 0.5).tolist()
            children.append([a if m else b for m, a, b in zip(mask, pop[pa], pop[pb])])
        mixed = pop + children
        for _ in range(M):
            out = list(mixed[rng.integers(0, len(mixed))])
            j = int(rng.integers(0, ws.d))
            out[j] = min(max(out[j] + int(rng.choice((-1, 1))), 0), ws.sizes[j] - 1)
            children.append(out)
        allpop = pop + children
        allfits = fits + [fitness(c) for c in children]
        order = sorted(range(len(allpop)), key=lambda i: -allfits[i])[:mu]
        pop = [allpop[i] for i in order]
        fits = [allfits[i] for i in order]
        if fits[0] > best_f:
            best_f = fits[0]
            best_y = ws.corner(pop[0])
            stagnant = 0
        else:
            stagnant += 1
    op, cl = local_values(X, best_y)
    return BoundResult(max(op, cl), 1.0, best_y,
                       {"variant": "ga", "mu": mu, "C": C, "M": M,
                        "stagnation": t, "seed": seed})
