#!/usr/bin/env python3
"""Measure the per-move cost of threshold accepting against the block size
of the rank-bitset workspace.

The workspace splits the points into blocks of ``pointset._BLOCK`` points;
its memory grows with the block size (about d * block / 7.5 bytes per
point), while each count and snap costs one pass of Python work per block.
For every candidate block size this script times ``ta_improved`` and
``ta_basic`` on random sets with n = 64 ... 2^max-log-n (best of three, the
workspace build subtracted) and reports the traced peak memory of building
the workspace of 20,000 points in d = 3.

    PYTHONPATH=src python scripts/block_size_timing.py --blocks 512,1024,2048,4096
"""

import argparse
import time
import tracemalloc

import numpy as np

import discrepkit.pointset as pointset
from discrepkit import PointSet, TAConfig, ta_basic, ta_improved


def best_time(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--blocks", default="256,512,1024,2048,4096,8192")
    ap.add_argument("--d", type=int, default=5)
    ap.add_argument("--max-log-n", type=int, default=13)
    ap.add_argument("--iterations", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    sets = [PointSet(rng.random((2 ** k, args.d))) for k in range(6, args.max_log_n + 1)]
    big = np.random.default_rng(args.seed).random((20_000, 3))
    it = args.iterations
    default = pointset._BLOCK
    print(f"{'block':>6} {'n':>6} {'build[ms]':>10} {'improved[us/move]':>18} "
          f"{'basic[us/move]':>15}")
    try:
        for block in [int(t) for t in args.blocks.split(",")]:
            pointset._BLOCK = block
            for X in sets:
                t_ws = best_time(lambda: pointset._Workspace(X.points))
                t_imp = best_time(lambda: ta_improved(X, TAConfig(it, seed=1))) - t_ws
                t_bas = best_time(lambda: ta_basic(X, TAConfig(it, seed=1))) - t_ws
                print(f"{block:>6} {X.n:>6} {t_ws * 1e3:>10.1f} {t_imp / it * 1e6:>18.1f} "
                      f"{t_bas / it * 1e6:>15.1f}", flush=True)
            tracemalloc.start()
            pointset._Workspace(big)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            print(f"{block:>6} workspace of 20,000 points in d = 3: "
                  f"traced peak {peak / 2 ** 20:.1f} MB", flush=True)
    finally:
        pointset._BLOCK = default


if __name__ == "__main__":
    main()
