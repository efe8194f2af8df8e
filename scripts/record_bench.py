#!/usr/bin/env python3
"""Record the benchmark of one commit as a BENCH_<k>.json file.

    python3 scripts/record_bench.py --out BENCH_13.json

Runs ``perfbench/run.py --trace 0`` for every workload of ``BENCHMARK.json``
over a fixed seed list, for its ``run_seconds``, one run at a time, in the
checkout given by ``--root`` (by default the one this script is in).  The
file holds the result line (the last line of standard output) of each run,
keyed by workload and seed, together with the checkout's git sha, the
Python and numpy versions, ``nproc`` and ``MemTotal``; ``git_dirty`` says
whether tracked files differed from that sha during the runs.  Two such
files, one per commit, are a before/after pair; ``perfbench/compare.py``
compares the result lines of one workload once they are written out one
per line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

SEEDS = (1, 2, 3, 4, 5)


def _mem_total_mb() -> int | None:
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) // 1024
    except OSError:
        pass
    return None


def _run(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    rec = {"seed": seed, "exit": proc.returncode,
           "wall_s": round(time.perf_counter() - t0, 3)}
    lines = proc.stdout.strip().splitlines()
    try:
        rec["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        rec["stderr"] = proc.stderr[-2000:]
    return rec


def main() -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="file to write, e.g. BENCH_13.json")
    ap.add_argument("--root", default=here, help="checkout to benchmark")
    args = ap.parse_args()
    root = os.path.abspath(args.root)

    import numpy

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, check=False).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=root, capture_output=True, text=True, check=False).stdout
    bench = {"git_sha": sha, "git_dirty": bool(dirty.strip()),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "nproc": len(os.sched_getaffinity(0)), "mem_total_mb": _mem_total_mb(),
             "seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in workloads:
        runs = bench["workloads"][workload] = []
        for seed in SEEDS:
            rec = _run(root, workload, seed, seconds)
            runs.append(rec)
            run_s = rec.get("result", {}).get("metrics", {}).get("run_s", {})
            print(f"{workload} seed={seed} exit={rec['exit']} run_s={run_s.get('value')}",
                  flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
