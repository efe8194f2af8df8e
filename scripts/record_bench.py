#!/usr/bin/env python3
"""Record the benchmark of one commit, or of a commit and its parent, as a
BENCH_<k>.json file.

    python3 scripts/record_bench.py --out BENCH_17.json [--parent HEAD~1]

Runs ``perfbench/run.py --trace 0`` for every workload of ``BENCHMARK.json``
over a fixed seed list, for its ``run_seconds``, one run at a time, in the
checkout given by ``--root`` (by default the one this script is in).  The
file holds the result line (the last line of standard output) of each run,
keyed by workload and seed, together with the checkout's git sha, the
Python and numpy versions, ``nproc`` and ``MemTotal``; ``git_dirty`` says
whether tracked files differed from that sha during the runs.

With ``--parent REV`` the script also makes a local ``git clone`` of REV in
a temporary directory and runs it seed by seed with the checkout, the first
side alternating from seed to seed, so both sides of each pair see the same
machine conditions.  The file then also holds the parent's sha and result
lines under ``parent``, and under ``summary`` for each workload and metric:
both sides' medians and quartiles, the change ratio (the checkout's median
over the parent's) and the pairs the checkout won (read better, ties
counting for neither).  ``perfbench/compare.py`` compares the result lines of
one workload once they are written out one per line.

The file is rewritten after every run, so a record cut short keeps the runs
it made.  Run again with the same ``--out`` (and ``--parent``), the script
resumes: it keeps the runs of that file and makes only the missing ones,
provided the file was recorded for the same commits, seeds and run length;
otherwise it stops without touching the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

SEEDS = tuple(range(1, 11))


def _mem_total_mb() -> int | None:
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) // 1024
    except OSError:
        pass
    return None


def _git(root: str, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


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


def _quartiles(vals: list) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
    return {"median": med, "q1": q1, "q3": q3}


def _summary(parent: list, change: list, better: dict) -> dict:
    """Per metric: both sides' quartiles, the ratio of the medians and the
    pairs (runs of one seed) in which the checkout reads better."""
    pairs = [(p["result"]["metrics"], c["result"]["metrics"])
             for p, c in zip(parent, change) if "result" in p and "result" in c]
    out = {}
    for name, lower in better.items():
        both = [(p[name]["value"], c[name]["value"]) for p, c in pairs
                if name in p and name in c]
        if not both:
            continue
        ps, cs = _quartiles([p for p, _ in both]), _quartiles([c for _, c in both])
        won = sum((c < p) if lower else (c > p) for p, c in both)
        out[name] = {"parent": ps, "change": cs, "pairs": len(both), "pairs_won": won,
                     "ratio": cs["median"] / ps["median"] if ps["median"] else None}
    return out


def main() -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="file to write, e.g. BENCH_13.json")
    ap.add_argument("--root", default=here, help="checkout to benchmark")
    ap.add_argument("--parent", help="commit to run seed by seed against the checkout")
    args = ap.parse_args()
    root = os.path.abspath(args.root)

    import numpy

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    dirty = _git(root, "status", "--porcelain", "--untracked-files=no")
    bench = {"git_sha": _git(root, "rev-parse", "HEAD"), "git_dirty": bool(dirty),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "nproc": len(os.sched_getaffinity(0)), "mem_total_mb": _mem_total_mb(),
             "seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    if args.parent:
        sha = _git(root, "rev-parse", "--verify", args.parent + "^{commit}")
        bench["parent"] = {"git_sha": sha, "workloads": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            old = json.load(fh)
        same = [(old.get(k), bench[k]) for k in ("git_sha", "seconds", "seeds")]
        same.append((old.get("parent", {}).get("git_sha"), bench.get("parent", {}).get("git_sha")))
        if any(a != b for a, b in same):
            print(f"{args.out} was recorded for other commits, seeds or run length; "
                  "not resuming", file=sys.stderr)
            return 1
        bench["git_dirty"] = bench["git_dirty"] or old["git_dirty"]
        bench["workloads"] = old["workloads"]
        if args.parent:
            bench["parent"]["workloads"] = old["parent"]["workloads"]

    def write() -> None:
        tmp_out = args.out + ".tmp"
        with open(tmp_out, "w", encoding="utf-8") as fh:
            json.dump(bench, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp_out, args.out)

    with tempfile.TemporaryDirectory(prefix="record_bench_") as tmp:
        sides = [("change", root, bench["workloads"])]
        if args.parent:
            clone = os.path.join(tmp, "parent")
            _git(root, "clone", "--quiet", "--no-checkout", root, clone)
            _git(clone, "checkout", "--quiet", "--detach", bench["parent"]["git_sha"])
            sides.append(("parent", clone, bench["parent"]["workloads"]))
        for workload in workloads:
            for _, _, runs in sides:
                runs.setdefault(workload, [])
            for i, seed in enumerate(SEEDS):
                for side, path, runs in sides if i % 2 else sides[::-1]:
                    if any(r["seed"] == seed for r in runs[workload]):
                        continue
                    rec = _run(path, workload, seed, seconds)
                    runs[workload].append(rec)
                    runs[workload].sort(key=lambda r: r["seed"])
                    write()
                    run_s = rec.get("result", {}).get("metrics", {}).get("run_s", {})
                    print(f"{workload} seed={seed} {side} exit={rec['exit']} "
                          f"run_s={run_s.get('value')}", flush=True)
    if args.parent:
        bench["summary"] = {w: _summary(bench["parent"]["workloads"][w],
                                        bench["workloads"][w], better) for w in workloads}
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
