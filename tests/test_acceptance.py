"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 8's forward-vs-exhaustive check holds greedy forward
selection to what a greedy search promises: it never beats the exhaustive
optimum, it reaches it for n = 1 and n = N (where the greedy scan is itself
exhaustive), and every step is a best single-atom extension of its prefix.
Equality for 1 < n < N is not promised, and the README's counterexample is
pinned as a checked fact.
"""

import functools
import itertools
import time

import numpy as np
import pytest

import oracles
from discrepkit import (DiscreteMeasure, Graph, PointSet, TAConfig,
                        WeightedPointSet, cover_bounds, dominating_set_instance,
                        forward_selection, ga_lower_bound, halton, midpoint_set,
                        modified_l2_sq, optimal_inner_weights,
                        optimize_halton_permutations, star_1d, star_2d, star_3d,
                        star_dem, star_exact, star_grid_enum, ta_basic,
                        ta_improved, two_measure_star_disc, warnock_star_l2_sq,
                        warnock_star_l2_sq_stable, star_l2_sq_fast,
                        weighted_star_l2_sq, weighted_star_lp_pow)
from discrepkit.cli import run_command


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_minimal_1d_discrepancy():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 1001):
        got = star_1d(midpoint_set(n)).value
        worst = max(worst, abs(got - 1.0 / (2 * n)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-15 and elapsed < 1.0
    verdict(1, ok, f"star_1d(midpoints) == 1/(2n) for n<=1000, "
                   f"worst |err|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_oracle_web():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240902)
    worst = 0.0
    for t in range(500):
        d = 2 + t % 4
        n = int(rng.integers(1, 25))
        pts = rng.random((n, d))
        if rng.random() < 0.3 and n > 1:  # duplicate coordinates on purpose
            i, j = rng.integers(0, n, size=2)
            pts[i, rng.integers(0, d)] = pts[j, rng.integers(0, d)]
        X = PointSet(pts)
        vals = [star_grid_enum(X).value, star_dem(X).value]
        if d == 2:
            vals.append(star_2d(X).value)
        if d == 3:
            vals.append(star_3d(X).value)
        worst = max(worst, max(vals) - min(vals))
    for d in (2, 3, 4):
        X = halton(32, d)
        vals = [star_grid_enum(X).value, star_dem(X).value]
        if d == 2:
            vals.append(star_2d(X).value)
        if d == 3:
            vals.append(star_3d(X).value)
        worst = max(worst, max(vals) - min(vals))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 120.0
    verdict(2, ok, f"cross-algorithm agreement on 500 instances + Halton-32, "
                   f"worst spread={worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_l2_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240903)
    worst_fast = 0.0
    for _ in range(100):
        n = 2 ** int(rng.integers(8, 15))
        d = int(rng.integers(1, 7))
        X = PointSet(rng.random((n, d)))
        direct = warnock_star_l2_sq(X)
        fast = star_l2_sq_fast(WeightedPointSet.equal_weights(X))
        worst_fast = max(worst_fast, abs(fast - direct) / abs(direct))
    worst_stable = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 1001))
        d = int(rng.integers(1, 9))
        X = PointSet(rng.random((n, d)))
        ref = float(oracles.warnock_star_l2_sq_longdouble(X.points))
        worst_stable = max(worst_stable, abs(warnock_star_l2_sq_stable(X) - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    ok = worst_fast <= 1e-10 and worst_stable <= 1e-12 and elapsed < 300.0
    verdict(3, ok, f"fast-vs-direct rel<={worst_fast:.2e} (100 instances), "
                   f"stable-vs-extended-precision rel<={worst_stable:.2e}, {elapsed:.1f}s")


def test_criterion_4_formula_cross_validation():
    rng = np.random.default_rng(20240904)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 33))
        d = int(rng.integers(1, 5))
        X = PointSet(rng.random((n, d)))
        a = weighted_star_lp_pow(X, np.ones(d), 2)
        b = weighted_star_l2_sq(X, np.ones(d))
        worst = max(worst, abs(a - b))
    mid = PointSet([0.5], d=1)
    origin = PointSet([0.0], d=1)
    checks = [
        abs(weighted_star_lp_pow(mid, [1.0], 2) - 1 / 12),
        abs(weighted_star_l2_sq(mid, [1.0]) - 1 / 12),
        abs(weighted_star_lp_pow(origin, [1.0], 2) - 1 / 3),
        abs(weighted_star_l2_sq(origin, [1.0]) - 1 / 3),
    ]
    p4 = abs(weighted_star_lp_pow(mid, [1.0], 4) - 0.0125)
    ok = worst <= 1e-10 and max(checks) <= 1e-12 and p4 <= 1e-12
    verdict(4, ok, f"p=2 agreement<={worst:.2e}, analytic checks<="
                   f"{max(checks):.2e}, p=4 midpoint err={p4:.2e}")


def test_criterion_5_sandwich_guarantee():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240905)
    worst_slack = np.inf
    worst_width = 0.0
    sound = True
    for _ in range(100):
        n = int(rng.integers(1, 65))
        d = int(rng.integers(1, 5))
        X = PointSet(rng.random((n, d)))
        exact = star_exact(X).value
        for delta in (0.1, 0.05):
            res = cover_bounds(X, delta)
            sound &= res.lower <= exact + 1e-12 and exact <= res.upper + 1e-12
            worst_slack = min(worst_slack, exact - res.lower)
            worst_width = max(worst_width, res.upper - res.lower - delta)
    elapsed = time.perf_counter() - t0
    ok = sound and worst_slack >= -1e-12 and worst_width <= 1e-12 and elapsed < 300.0
    verdict(5, ok, f"lower <= exact <= lower+delta on 100x2 runs, "
                   f"min slack={worst_slack:.2e}, {elapsed:.1f}s")


def _ta_suite(rng):
    sizes = [(8, 2), (16, 2), (32, 2), (64, 2), (8, 3), (16, 3), (32, 3),
             (48, 3), (64, 3), (12, 4), (16, 4), (24, 4), (32, 4), (64, 4),
             (8, 5), (16, 5), (24, 5), (32, 5), (48, 5), (64, 5)]
    return [PointSet(rng.random((n, d))) for (n, d) in sizes]


def test_criterion_6_heuristic_soundness_and_strength():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240906)
    suite = _ta_suite(rng)
    sound = True
    hits = 0
    for i, X in enumerate(suite):
        exact = star_exact(X).value
        best = -np.inf
        for s in range(10):
            res = ta_improved(X, TAConfig(10_000, seed=1000 * i + s))
            sound &= res.lower <= exact + 1e-12
            best = max(best, res.lower)
        rb = ta_basic(X, TAConfig(2000, seed=i))
        rg = ga_lower_bound(X, mu=8, C=8, M=8, t=20, seed=i)
        sound &= rb.lower <= exact + 1e-12 and rg.lower <= exact + 1e-12
        if best >= exact - 1e-3:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = sound and hits >= 0.8 * len(suite)
    verdict(6, ok, f"all heuristic bounds sound; improved TA within 1e-3 on "
                   f"{hits}/{len(suite)} instances, {elapsed:.1f}s")


def test_criterion_7_hardness_instances():
    rng = np.random.default_rng(20240907)
    graphs = []
    for n in range(2, 9):
        graphs.append(Graph.path(n))
        graphs.append(Graph.star(n))
    for n in range(3, 9):
        graphs.append(Graph.cycle(n))
    for seed in range(15):
        n = int(rng.integers(1, 9))
        graphs.append(Graph.random(n, float(rng.uniform(0.2, 0.8)), rng))
    exact_all = True
    for G in graphs:
        X = dominating_set_instance(G, 0.5, 0.0)
        vol = oracles.largest_empty_box_volume(X.points)
        gamma = oracles.domination_number(G.n, G.edges)
        exact_all &= vol == 0.5 ** gamma
    verdict(7, exact_all, f"empty-box volume == (1/2)^domination number on "
                          f"{len(graphs)} graphs, exact dyadic equality")


def test_criterion_8_inner_lp_and_recompute():
    rng = np.random.default_rng(20240908)
    ok_full = True
    for _ in range(10):
        N = int(rng.integers(1, 8))
        d = int(rng.integers(1, 3))
        atoms = rng.random((N, d))
        p = rng.random(N)
        p /= p.sum()
        P = DiscreteMeasure(atoms, p)
        _, t = optimal_inner_weights(P, range(N))
        ok_full &= abs(t) <= 1e-9
    ok_recompute = True
    for _ in range(10):
        N = int(rng.integers(2, 9))
        P = DiscreteMeasure.uniform(rng.random((N, 2)))
        n = int(rng.integers(1, N + 1))
        res = forward_selection(P, n, exact_inner=True)
        ok_recompute &= abs(res.distance -
                            two_measure_star_disc(P, res.measure)) <= 1e-9
    ok = ok_full and ok_recompute
    verdict(8, ok, "inner LP exact at full support (t=0) and reported "
                   "distances recompute through the public metric")


def _greedy_replay(lp, N, trace, tol=1e-9):
    """Replay forward selection from the empty support.

    Every prefix that ties a step's minimum within ``tol`` survives, so any
    tie-break the program makes is allowed.  Returns whether each trace entry
    is the best single-atom extension of some surviving prefix, and the
    surviving final supports.
    """
    prefixes = {frozenset()}
    for size, dist in trace:
        ext = {S: {S | {c}: lp(S | {c}) for c in range(N) if c not in S}
               for S in prefixes}
        step_min = {S: min(e.values()) for S, e in ext.items()}
        live = [S for S in prefixes
                if len(S) + 1 == size and abs(step_min[S] - dist) <= tol]
        if not live:
            return False, set()
        prefixes = {T for S in live for T, t in ext[S].items()
                    if t <= step_min[S] + tol}
    return True, prefixes


def test_criterion_8_forward_matches_exhaustive():
    # Greedy forward selection is a heuristic: the best singleton need not
    # lie in any best pair, so for 1 < n < N it may stop above the exhaustive
    # optimum.  What it does promise is checked against exhaustive
    # enumeration: it never beats the optimum, it equals it for n in {1, N}
    # (the greedy scan is exhaustive there), and each step is a best
    # single-atom extension of a tie-equivalent greedy prefix.
    rng = np.random.default_rng(20240918)
    worst_gap = 0.0
    bounded = exact_ends = steps_best = True
    for _ in range(10):
        N = int(rng.integers(2, 7))
        P = DiscreteMeasure.uniform(np.sort(rng.random(N)).reshape(-1, 1))
        n = int(rng.integers(1, N + 1))
        res = forward_selection(P, n, exact_inner=True)
        lp = functools.cache(lambda S: optimal_inner_weights(P, sorted(S))[1])
        best = min(lp(frozenset(sel))
                   for sel in itertools.combinations(range(N), n))
        bounded &= best <= res.distance + 1e-9
        if n in (1, N):
            exact_ends &= abs(res.distance - best) <= 1e-9
        replayed, finals = _greedy_replay(lp, N, res.trace)
        steps_best &= (replayed and frozenset(res.support_idx) in finals
                       and abs(res.distance - res.trace[-1][1]) <= 1e-9)
        worst_gap = max(worst_gap, res.distance - best)
    # README counterexample: the best singleton 1/2 lies in no best pair
    P = DiscreteMeasure.uniform([[1 / 6], [1 / 2], [5 / 6]])
    greedy = forward_selection(P, 2, exact_inner=True).distance
    best_pair = min(optimal_inner_weights(P, sel)[1]
                    for sel in itertools.combinations(range(3), 2))
    counterexample = (abs(greedy - 1 / 3) <= 1e-12
                      and abs(best_pair - 1 / 6) <= 1e-12)
    ok = bounded and exact_ends and steps_best and counterexample
    verdict(8, ok, f"forward selection on d=1, N<=6: never below exhaustive "
                   f"best ({bounded}), equal at n in {{1,N}} ({exact_ends}), "
                   f"every step a best extension ({steps_best}); "
                   f"{{1/6,1/2,5/6}} n=2 greedy 1/3 vs best 1/6 "
                   f"({counterexample}); worst gap {worst_gap:.3f}")


def test_criterion_9_permutation_optimizer():
    t0 = time.perf_counter()
    elitism_ok = True
    strict_wins = 0
    for seed in range(10):
        cfg = optimize_halton_permutations(4, 64, mu=6, lam=10,
                                           generations=8, seed=seed)
        fit = modified_l2_sq(halton(64, 4, cfg))
        fit_id = modified_l2_sq(halton(64, 4))
        elitism_ok &= fit <= fit_id + 1e-15
        if fit < fit_id:
            strict_wins += 1
    elapsed = time.perf_counter() - t0
    ok = elitism_ok and strict_wins >= 9
    verdict(9, ok, f"never worse than identity; strictly better on "
                   f"{strict_wins}/10 seeds (d=4, n=64), {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    rng = np.random.default_rng(20240910)
    pts_file = tmp_path / "pts.txt"
    from discrepkit.cli import write_pointset
    write_pointset(str(pts_file), PointSet(rng.random((24, 4))))
    man = tmp_path / "man.txt"
    man.write_text(f"a {pts_file}\n")

    commands = [
        ["disc", "--input", str(pts_file), "--measure", "ta-lower",
         "--variant", "improved", "--iterations", "2000", "--seed", "7",
         "--restarts", "3"],
        ["disc", "--input", str(pts_file), "--measure", "ta-lower",
         "--variant", "basic", "--iterations", "2000", "--seed", "8"],
        ["disc", "--input", str(pts_file), "--measure", "ga-lower",
         "--mu", "6", "--lambda-c", "6", "--lambda-m", "6",
         "--stagnation", "15", "--seed", "9"],
        ["optimize-perms", "--d", "3", "--points", "32", "--mu", "4",
         "--lambda", "6", "--generations", "4", "--seed", "10"],
        ["report", "--manifest", str(man), "--measures", "star-linf,star-l2",
         "--seed", "11", "--budget", "10", "--iterations", "500"],
        ["gen", "--type", "ghalton", "--n", "16", "--d", "3",
         "--perms", "random", "--seed", "12"],
    ]
    identical = True
    for argv in commands:
        _, a = run_command(list(argv))
        _, b = run_command(list(argv))
        strip = lambda recs: [{k: v for k, v in r.items() if k != "wall_time"}
                              for r in recs]
        identical &= strip(a.records) == strip(b.records)
    verdict(10, identical, "bitwise-identical reports for identical seeds "
                           "across all randomized commands")
