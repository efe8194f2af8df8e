"""discrepkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run times the set-up five times
(four set-up-only processes and the workload process itself), runs whole
passes over the workload's commands in a fresh process for ``--seconds``
(with ``--trace 1`` alternately untraced and traced),
checks every command's output against references the benchmark computes
itself, and prints each metric by name with its unit.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics
(the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``).
"""

from __future__ import annotations

import os

# one thread for numpy's BLAS/OpenMP pools, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

DEADLINE_S = 170.0   # the whole run, checks included, ends before this
CHECK_RESERVE_S = 40.0
SETUP_PROBES = 4


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _worker(args: list, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          capture_output=True, text=True, timeout=timeout, check=False)


def _median_of(passes: list, fn) -> float:
    return statistics.median(fn(p) for p in passes)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "discrepkit", "__init__.py")):
        return _fail("no src/discrepkit here; run from the root of a discrepkit checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return _fail(f"unknown workload {args.workload!r}")
    if not 0 < args.seconds <= 60:
        return _fail("--seconds must lie in (0, 60]")

    import inputs
    from check import Checker

    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            cp = _worker(common + ["--setup-only"], timeout=60)
            if cp.returncode != 0:
                return _fail(f"set-up failed:\n{cp.stderr}")
            setups.append(json.loads(cp.stdout.splitlines()[-1]))
        result_path = os.path.join(work, "result.json")
        trace_path = os.path.join(base, f"trace-{args.workload}-seed{args.seed}.json")
        budget = DEADLINE_S - CHECK_RESERVE_S - (time.perf_counter() - t_start)
        try:
            cp = _worker(common + ["--seconds", repr(args.seconds), "--trace", str(args.trace),
                                   "--out", result_path, "--trace-file", trace_path],
                         timeout=budget)
        except subprocess.TimeoutExpired:
            return _fail(f"workload process did not finish within {budget:.0f} s")
        if cp.returncode != 0:
            return _fail(f"workload process failed:\n{cp.stderr}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup"])

    # checks: every command of every pass
    w = inputs.build(args.workload, args.seed, work)
    checker = Checker(w)
    attempted = failed = 0
    correct = True
    reasons = set()
    for p in result["passes"]:
        outs = [result["outputs"][i][k] for i, k in enumerate(p["outputs"])]
        for op, (ok, why) in zip(w.ops, checker.check_pass(outs)):
            attempted += 1
            if not ok:
                failed += 1
                correct = correct and op.fault is not None
                reasons.add(why + (f" (known fault: {op.fault})" if op.fault else ""))
    for why in sorted(reasons):
        print(f"FAILED {why}", file=sys.stderr)

    plain = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    if args.trace:
        wanted = spec["per_layer"]
        layers = {m["name"]: _median_of(traced, lambda p, n=m["name"]: p["layers"].get(n, 0.0))
                  for m in wanted}
        layers["trace.overhead_s"] = (_median_of(traced, lambda p: p["run_s"])
                                      - _median_of(plain, lambda p: p["run_s"]))
        ratios = checker.ta_over_ref
        layers["linf_approx.ta_lower_over_ref"] = statistics.fmean(ratios) if ratios else 0.0
        values = {m["name"]: layers[m["name"]] for m in wanted}
        passes_note = f"{len(plain)} untraced and {len(traced)} traced passes"
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in setups),
            "run_s": _median_of(plain, lambda p: p["run_s"]),
            "op_p50_s": _median_of(plain, lambda p: statistics.median(p["op_s"])),
            "op_max_s": _median_of(plain, lambda p: max(p["op_s"])),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        values = {m["name"]: values[m["name"]] for m in wanted}
        passes_note = f"{len(plain)} passes"

    print(f"workload {args.workload} seed {args.seed}: {passes_note} of "
          f"{len(w.ops)} commands, {time.perf_counter() - t_start:.1f} s in all")
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
