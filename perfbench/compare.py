"""Summarize one set of benchmark runs, or compare two.

    python3 perfbench/compare.py parent.jsonl [change.jsonl]

Each file holds the result lines of runs of one workload (the last line that
``run.py`` prints, one per run; other lines are skipped).  For every metric
it prints the median, the quartiles and the spread (the distance between the
quartiles as a share of the median).  With two files it also prints the
change of the median and, for end-to-end metrics, whether it stays within
the bound that BENCHMARK.json fixes.  Run from the root of a checkout.
"""

from __future__ import annotations

import json
import statistics
import sys


def _load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.startswith("{")]


def _stats(vals: list) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [_load(p) for p in argv]
    for path, runs in zip(argv, sets):
        att = sum(r["attempted"] for r in runs)
        fail = sum(r["failed"] for r in runs)
        ok = all(r["correct"] for r in runs)
        print(f"{path}: {len(runs)} runs, {fail} of {att} commands failed, "
              f"correct={ok}")
    names = [n for n in metrics if all(n in r["metrics"] for s in sets for r in s)]
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
          + (f" {'change':>8} {'bound':>6}" if len(sets) == 2 else ""))
    for name in names:
        m = metrics[name]
        rows = [_stats([r["metrics"][name]["value"] for r in runs]) for runs in sets]
        for k, (q1, med, q3) in enumerate(rows):
            spread = (q3 - q1) / med if med else 0.0
            line = (f"{name if k == 0 else '':44} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{spread:7.3f}")
            if k == 1:
                base = rows[0][1]
                change = (med - base) / base if base else 0.0
                worse = change if m["better"] == "lower" else -change
                line += f" {change:+8.3f}"
                if "bound" in m:
                    verdict = "WORSE" if worse > m["bound"] else "ok"
                    line += f" {m['bound']:6.2f} {verdict}"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
