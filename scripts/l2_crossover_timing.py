#!/usr/bin/env python3
"""Measure where the divide-and-conquer L2 path overtakes direct evaluation.

The direct Warnock evaluation costs O(d n^2) while the recursive path runs in
O(n log^(d-1) n) for fixed d; the guidance is that the recursion wins once n
exceeds roughly 2^(2d).  This script times both on random sets, best of
three runs each, and reports per dimension the observed crossover:
the smallest n from which the recursion stays faster at every n up to
2^``--max-log-n`` ("never" if it is slower at the largest n).

    python3 scripts/l2_crossover_timing.py --dims 2,3,4 --max-log-n 13
"""

import argparse
import time

import numpy as np

from discrepkit import PointSet, WeightedPointSet, star_l2_sq_fast, warnock_star_l2_sq


def time_best(fn, arg) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dims", default="1,2,3,4")
    ap.add_argument("--max-log-n", type=int, default=13)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'d':>3} {'n':>7} {'direct[s]':>10} {'fast[s]':>10} {'ratio':>7}")
    for d in [int(t) for t in args.dims.split(",")]:
        crossover = None  # smallest n of the current run of recursion wins
        for log_n in range(6, args.max_log_n + 1):
            n = 2 ** log_n
            X = PointSet(rng.random((n, d)))
            Q = WeightedPointSet.equal_weights(X)
            t_direct = time_best(warnock_star_l2_sq, X)
            t_fast = time_best(star_l2_sq_fast, Q)
            ratio = t_direct / max(t_fast, 1e-9)
            print(f"{d:>3} {n:>7} {t_direct:>10.4f} {t_fast:>10.4f} {ratio:>7.2f}")
            if t_fast >= t_direct:
                crossover = None
            elif crossover is None:
                crossover = n
        guide = 2 ** (2 * d)
        print(f"  d={d}: observed crossover n={crossover or 'never'}, "
              f"2^(2d) guidance n={guide}\n")


if __name__ == "__main__":
    main()
