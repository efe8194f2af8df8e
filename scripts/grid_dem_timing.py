#!/usr/bin/env python3
"""Time the exact grid search against the DEM decomposition from d = 4 on.

For d = 4..8, three sizes per dimension and nine kinds of set (uniform,
Halton, a rank-1 lattice, 4 and 16 levels, the diagonal, duplicated points,
clustered near 0 and near 1), every set admitted to the grid search at the
default budget is run through ``star_exact`` (which dispatches it to the
grid) and through ``star_dem``.  Each row checks that the two values are
equal and that the witness recomputes to the value, and gives the best of
three rounds of each method's best time (2 runs per round, 1 for DEM from
n = 30), then the ratio DEM / grid.

    python3 scripts/grid_dem_timing.py --seed 77
"""

import argparse
import time

import numpy as np

from discrepkit import PointSet, halton, local_discrepancy, rank1_lattice, star_dem, star_exact

SIZES = {4: (16, 32, 64), 5: (8, 16, 30), 6: (6, 10, 16), 7: (5, 8, 10), 8: (4, 6, 8)}


def kinds(rng, n: int, d: int) -> dict:
    u = rng.random((n, d))
    return {"uniform": u, "halton": halton(n, d).points,
            "lattice": rank1_lattice(n, [1, *rng.integers(2, max(3, n), d - 1)]).points,
            "levels4": np.floor(rng.random((n, d)) * 4) / 4,
            "levels16": np.floor(rng.random((n, d)) * 16) / 16,
            "diagonal": np.repeat(np.sort(rng.random((n, 1)), axis=0), d, axis=1),
            "duplicates": np.concatenate([u[: (n + 1) // 2]] * 2)[:n],
            "near0": rng.random((n, d)) * 0.15,
            "near1": 1 - rng.random((n, d)) * 0.15}


def time_best(fn, runs: int) -> float:
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=77)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    ratios = []
    print(f"{'d':>2} {'n':>3} {'set':<10} {'equal':>5} {'witness':>7} "
          f"{'grid[ms]':>9} {'dem[ms]':>9} {'dem/grid':>8}")
    for d, sizes in SIZES.items():
        for n in sizes:
            for name, pts in kinds(rng, n, d).items():
                X = PointSet(pts)
                got = star_exact(X)
                if got.method != "grid":
                    print(f"{d:>2} {n:>3} {name:<10} not admitted")
                    continue
                ref = star_dem(X)
                ld = local_discrepancy(got.witness, X)
                recomputed = (ld.delta if got.kind == "open" else ld.delta_bar) == got.value
                grid = dem = float("inf")
                for _ in range(3):
                    grid = min(grid, time_best(lambda: star_exact(X), 2))
                    dem = min(dem, time_best(lambda: star_dem(X), 1 if n >= 30 else 2))
                ratios.append(dem / grid)
                print(f"{d:>2} {n:>3} {name:<10} {str(got.value == ref.value):>5} "
                      f"{str(recomputed):>7} {grid * 1e3:9.2f} {dem * 1e3:9.2f} "
                      f"{dem / grid:8.2f}", flush=True)
    print(f"{len(ratios)} rows: dem/grid median {np.median(ratios):.2f}, "
          f"min {min(ratios):.2f}, max {max(ratios):.2f}")


if __name__ == "__main__":
    main()
