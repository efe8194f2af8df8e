"""One workload process: set up, then run whole passes over the commands.

Run by ``run.py`` from the root of a checkout; not meant to be run by hand.
With ``--setup-only`` it times the set-up and exits.  Otherwise it runs
passes until ``--seconds`` have gone (at least one); with ``--trace 1`` every
second pass runs with the traced functions wrapped.  The
result goes to ``--out`` as JSON: set-up times, per-command wall times per
pass, every distinct output per command, per-layer totals of traced passes
and the process's own peak resident memory.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import resource
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import discrepkit  # noqa: E402  (timed as part of set-up)
from discrepkit import cli, l2  # noqa: E402

_T_IMPORT = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402
import spans as tracing  # noqa: E402


def _run_op(op) -> tuple[str, float]:
    """Run one command; return its canonical output and its wall time."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        if op.argv is None:
            X = cli.read_pointset(op.lib_input)
            value = l2.star_l2_sq_fast(discrepkit.WeightedPointSet.equal_weights(X))
            code = 0
            buf.write(json.dumps({"records": [{"value": value}]}))
        else:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(op.argv))
    except Exception as exc:  # a crash counts as a failed command
        dt = time.perf_counter() - t0
        return json.dumps({"exit": None, "error": f"{type(exc).__name__}: {exc}"}), dt
    dt = time.perf_counter() - t0
    try:
        records = json.loads(buf.getvalue())["records"]
    except (ValueError, KeyError):
        records = buf.getvalue()
    if isinstance(records, list):
        for rec in records:
            rec.pop("wall_time", None)  # the only field that differs between passes
    out = {"exit": code, "records": records}
    if op.out_file and os.path.exists(op.out_file):
        with open(op.out_file, encoding="utf-8") as fh:
            out["written"] = fh.read()
        os.remove(op.out_file)
    return json.dumps(out, sort_keys=True), dt


def _passes(w, seconds: float, result: dict, tracer=None) -> None:
    """Whole passes until ``seconds`` have gone; with a tracer, passes
    alternate untraced and traced, starting untraced and ending traced, so
    that both kinds see the same drift in machine speed."""
    distinct = result["outputs"]
    t_end = time.perf_counter() + seconds
    traced = False
    while True:
        if traced:
            tracer.install()
        lo = len(tracer.spans) if traced else 0
        op_s, keys = [], []
        t0 = time.perf_counter()
        try:
            for i, op in enumerate(w.ops):
                if traced:
                    tracer.op = len(result["passes"]) * len(w.ops) + i
                out, dt = _run_op(op)
                op_s.append(dt)
                keys.append(distinct[i].setdefault(out, len(distinct[i])))
            run_s = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        p = {"traced": traced, "run_s": run_s, "op_s": op_s, "outputs": keys}
        if traced:
            p["layers"] = tracing.layer_totals(tracer.spans, lo)
        result["passes"].append(p)
        if time.perf_counter() >= t_end and not (tracer and not traced):
            return
        traced = tracer is not None and not traced


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    w = inputs.build(args.workload, args.seed, args.dir)
    inputs.write(w)
    t_inputs = time.perf_counter()
    setup = {"import_s": _T_IMPORT - _T0, "inputs_s": t_inputs - _T_IMPORT}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    result = {"setup": setup, "passes": [], "outputs": [{} for _ in w.ops]}
    if args.trace:
        tracer = tracing.Tracer()
        _passes(w, args.seconds, result, tracer)
        tracer.dump(args.trace_file)
    else:
        _passes(w, args.seconds, result)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # outputs as lists indexed by the keys stored per pass
    result["outputs"] = [sorted(d, key=d.get) for d in result["outputs"]]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
