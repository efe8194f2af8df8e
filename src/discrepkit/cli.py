"""Command-line surface and file formats.

Point-set files: optional '#' comment lines; each data line holds d
whitespace-separated decimals in [0,1).  Measure files: each data line holds
a probability followed by d coordinates.  Marginal-table files (for the
G-star discrepancy): one line per coordinate with alternating knot/value
pairs.  Floats are written with shortest round-trip repr, so write/read is
value-preserving.

Reports are line-oriented ``key=value`` records with a stable schema
(``--format json`` gives the same content as one JSON object).  Exit codes:
0 success, 2 usage or parse error, 3 infeasible under the budget, 4 numeric
failure.  Randomized subcommands require an explicit --seed in json mode; in
text mode a time-derived seed is drawn and logged.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import l2, lp
from ._simplex import LPError
from .applications import (DiscreteMeasure, backward_selection, forward_selection,
                           optimize_halton_permutations, quality_report,
                           two_measure_star_disc)
from .generators import (Graph, PermutationConfig, dominating_set_instance, halton,
                         midpoint_set, rank1_lattice)
from .linf_approx import TAConfig, _best_ta, cover_bounds, ga_lower_bound
from .linf_exact import (MarginalCDF, exact_method, star_1d, star_by_method,
                         star_dem, star_grid_enum)
from .pointset import (BudgetExceededError, PointSet, WeightedPointSet,
                       local_discrepancy, snap_down, snap_up)

__all__ = [
    "ParseError",
    "read_pointset",
    "write_pointset",
    "read_measure",
    "write_measure",
    "read_marginals",
    "RunReport",
    "run_command",
    "main",
]

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NUMERIC = 4


class ParseError(ValueError):
    """Malformed input file; the message names the offending line."""


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def read_pointset(path: str) -> PointSet:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    rows = []
    d = None
    for lineno, line in _data_lines(text):
        try:
            vals = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if d is None:
            d = len(vals)
        elif len(vals) != d:
            raise ParseError(f"{path}:{lineno}: expected {d} coordinates, got {len(vals)}")
        for c in vals:
            if not (0.0 <= c < 1.0):
                raise ParseError(f"{path}:{lineno}: coordinate {c!r} outside [0, 1)")
        rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data lines")
    return PointSet(np.array(rows))


def _pointset_text(X: PointSet) -> str:
    return f"# d={X.d} n={X.n}\n" + "".join(
        " ".join(repr(float(c)) for c in row) + "\n" for row in X.points)


def write_pointset(path: str, X: PointSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_pointset_text(X))


def read_measure(path: str) -> DiscreteMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    probs, rows = [], []
    d = None
    for lineno, line in _data_lines(text):
        try:
            vals = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if len(vals) < 2:
            raise ParseError(f"{path}:{lineno}: need a probability and coordinates")
        if d is None:
            d = len(vals) - 1
        elif len(vals) - 1 != d:
            raise ParseError(f"{path}:{lineno}: expected {d} coordinates")
        if vals[0] < 0.0:
            raise ParseError(f"{path}:{lineno}: negative probability")
        for c in vals[1:]:
            if not (0.0 <= c <= 1.0):
                raise ParseError(f"{path}:{lineno}: coordinate {c!r} outside [0, 1]")
        probs.append(vals[0])
        rows.append(vals[1:])
    if not rows:
        raise ParseError(f"{path}: no data lines")
    total = sum(probs)
    if abs(total - 1.0) > 1e-9:
        raise ParseError(f"{path}: probabilities sum to {total!r}, not 1")
    p = np.array(probs)
    if abs(total - 1.0) > 1e-12:
        p = p / total
    return DiscreteMeasure(np.array(rows), p)


def write_measure(path: str, P: DiscreteMeasure) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# d={P.d} atoms={P.n}\n")
        for p, row in zip(P.probabilities, P.atoms):
            fh.write(repr(float(p)) + " " + " ".join(repr(float(c)) for c in row) + "\n")


def read_marginals(path: str) -> MarginalCDF:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    tables = []
    for lineno, line in _data_lines(text):
        try:
            vals = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if len(vals) < 4 or len(vals) % 2 != 0:
            raise ParseError(f"{path}:{lineno}: need knot/value pairs")
        tables.append((vals[0::2], vals[1::2]))
    if not tables:
        raise ParseError(f"{path}: no data lines")
    try:
        return MarginalCDF(tables)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


@dataclass
class RunReport:
    """Line-oriented record of one command invocation."""

    command: str
    records: list = field(default_factory=list)
    raw_payload: str | None = None  # verbatim stdout payload (gen to stdout)

    def add(self, **kv) -> None:
        clean = {}
        for k, v in kv.items():
            if isinstance(v, np.ndarray):
                v = [float(c) for c in v]
            elif isinstance(v, (np.floating, np.integer)):
                v = v.item()
            if isinstance(v, float) and not np.isfinite(v):
                raise ValueError(f"non-finite value for report field {k!r}")
            clean[k] = v
        if "lower" in clean and "upper" in clean:
            if clean["lower"] > clean["upper"]:
                raise ValueError("report interval has lower > upper")
        self.records.append(clean)

    def render_text(self) -> str:
        lines = [f"format_version={FORMAT_VERSION}", f"command={self.command}"]
        for rec in self.records:
            lines.append(" ".join(f"{k}={_fmt(v)}" for k, v in rec.items()))
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        return json.dumps({"format_version": FORMAT_VERSION,
                           "command": self.command,
                           "records": self.records},
                          default=_json_default, indent=None, sort_keys=True) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, np.ndarray):
        return ",".join(repr(float(c)) for c in v)
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(c) for c in v)
    return str(v)


def _json_default(v):
    if isinstance(v, np.ndarray):
        return [float(c) for c in v]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return str(v)


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_edges(text: str) -> list[tuple[int, int]]:
    edges = []
    if not text:
        return edges
    for tok in text.split(","):
        u, v = tok.split("-")
        edges.append((int(u), int(v)))
    return edges


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="discrepkit",
                                 description="discrepancy measures of point sets")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a point set")
    g.add_argument("--type", required=True,
                   choices=("halton", "ghalton", "lattice", "midpoint", "domset"))
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--perms", choices=("reverse", "random"), default="reverse",
                   help="permutation family for ghalton")
    g.add_argument("--z", help="lattice generating vector, comma separated")
    g.add_argument("--vertices", type=int, help="vertex count for domset")
    g.add_argument("--edges", default="", help="edge list u-v,u-v for domset")
    g.add_argument("--alpha", type=float, default=0.5)
    g.add_argument("--beta", type=float, default=0.0)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", help="output file (default stdout)")

    di = sub.add_parser("disc", help="compute a discrepancy measure")
    di.add_argument("--input", required=True)
    di.add_argument("--measure", required=True,
                    choices=("star-linf", "star-l2", "extreme-l2", "modified-l2",
                             "weighted-l2", "lp-even", "cover-upper", "ta-lower",
                             "ga-lower"))
    di.add_argument("--method", default="auto",
                    choices=("auto", "1d", "2d", "3d", "grid", "dem"))
    di.add_argument("--stable", action="store_true",
                    help="accepted for older scripts: star-l2 runs the same "
                         "formula with or without it")
    di.add_argument("--gstar", help="marginal table file for the G-star variant "
                                    "(grid enumeration; --method auto or grid)")
    di.add_argument("--gamma", help="product weights, comma separated")
    di.add_argument("--p", type=int, default=2)
    di.add_argument("--delta", type=float, default=0.1)
    di.add_argument("--variant", choices=("basic", "improved"), default="improved")
    di.add_argument("--iterations", type=int, default=10000)
    di.add_argument("--restarts", type=int, default=1)
    di.add_argument("--mc", type=int, default=2)
    di.add_argument("--k", type=int, default=8,
                    help="grid radius of --variant basic; improved ignores it")
    di.add_argument("--mu", type=int, default=8)
    di.add_argument("--lambda-c", type=int, default=8, dest="lambda_c")
    di.add_argument("--lambda-m", type=int, default=8, dest="lambda_m")
    di.add_argument("--stagnation", type=int, default=50)
    di.add_argument("--seed", type=int)
    di.add_argument("--budget", type=int, default=50_000_000)

    r = sub.add_parser("reduce", help="scenario reduction of a discrete measure")
    r.add_argument("--input", required=True)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--method", choices=("forward", "backward"), default="forward")
    r.add_argument("--exact-inner", action="store_true")
    r.add_argument("--budget", type=int, default=2_000_000)
    r.add_argument("--out", help="write the reduced measure here")

    o = sub.add_parser("optimize-perms", help="evolve generalized-Halton permutations")
    o.add_argument("--d", type=int, required=True)
    o.add_argument("--points", type=int, required=True)
    o.add_argument("--mu", type=int, default=8)
    o.add_argument("--lambda", type=int, default=16, dest="lam")
    o.add_argument("--generations", type=int, default=20)
    o.add_argument("--seed", type=int)

    q = sub.add_parser("report", help="quality report over a manifest of point sets")
    q.add_argument("--manifest", required=True,
                   help="lines of: <name> <pointset file>")
    q.add_argument("--measures", default="star-linf,star-l2")
    q.add_argument("--seed", type=int)
    q.add_argument("--budget", type=int, default=50_000_000)
    q.add_argument("--delta", type=float, default=0.1)
    q.add_argument("--iterations", type=int, default=2000)
    q.add_argument("--restarts", type=int, default=3)

    s = sub.add_parser("selftest", help="run the cross-algorithm oracle checks")
    s.add_argument("--seed", type=int, default=2024)
    s.add_argument("--instances", type=int, default=40)

    return ap


def _need_seed(args, report: RunReport) -> int:
    if args.seed is not None:
        return args.seed
    if args.format == "json":
        raise SystemExit2("--seed is required in json mode for randomized commands")
    seed = int(time.time_ns() % (2 ** 31))
    report.add(note="seed drawn from clock", seed=seed)
    return seed


class SystemExit2(Exception):
    """Usage error discovered after argparse."""


def _cmd_gen(args, report: RunReport) -> PointSet:
    t = args.type
    if t == "midpoint":
        if args.n is None:
            raise SystemExit2("gen --type midpoint needs --n")
        X = midpoint_set(args.n)
    elif t == "halton":
        if args.n is None or args.d is None:
            raise SystemExit2("gen --type halton needs --n and --d")
        X = halton(args.n, args.d)
    elif t == "ghalton":
        if args.n is None or args.d is None:
            raise SystemExit2("gen --type ghalton needs --n and --d")
        if args.perms == "reverse":
            cfg = PermutationConfig.reverse(args.d)
        else:
            cfg = PermutationConfig.random(args.d, _need_seed(args, report))
        X = halton(args.n, args.d, cfg)
    elif t == "lattice":
        if args.n is None or not args.z:
            raise SystemExit2("gen --type lattice needs --n and --z")
        X = rank1_lattice(args.n, _parse_int_list(args.z))
    else:  # domset
        if args.vertices is None:
            raise SystemExit2("gen --type domset needs --vertices")
        G = Graph(args.vertices, _parse_edges(args.edges))
        X = dominating_set_instance(G, args.alpha, args.beta)
    report.add(task="gen", type=t, n=X.n, d=X.d)
    return X


def _cmd_disc(args, report: RunReport) -> None:
    X = read_pointset(args.input)
    m = args.measure
    t0 = time.perf_counter()
    if m == "star-linf":
        if args.gstar and args.method not in ("auto", "grid"):
            raise SystemExit2(f"--gstar runs grid enumeration; --method {args.method} "
                              "cannot be combined with it")
        G = read_marginals(args.gstar) if args.gstar else None
        if G is not None or args.method == "grid":
            res = star_grid_enum(X, G, budget=args.budget)
            method = "grid"
        else:
            method = exact_method(X.d) if args.method == "auto" else args.method
            res = star_by_method(X, method, args.budget)
        report.add(task="disc", measure=m, method=method, value=res.value,
                   witness=res.witness, witness_kind=res.kind,
                   wall_time=time.perf_counter() - t0)
    elif m in ("star-l2", "extreme-l2", "modified-l2", "weighted-l2"):
        if m == "star-l2":
            v = l2.warnock_star_l2_sq(X)
        elif m == "extreme-l2":
            v = l2.extreme_l2_sq(X)
        elif m == "modified-l2":
            v = l2.modified_l2_sq(X)
        else:
            if not args.gamma:
                raise SystemExit2("weighted-l2 needs --gamma")
            v = l2.weighted_star_l2_sq(X, _parse_float_list(args.gamma))
        report.add(task="disc", measure=m, value=v, squared=True,
                   wall_time=time.perf_counter() - t0)
    elif m == "lp-even":
        gamma = _parse_float_list(args.gamma) if args.gamma else np.ones(X.d)
        v = lp.weighted_star_lp_pow(X, gamma, args.p, budget=args.budget)
        report.add(task="disc", measure=m, p=args.p, value=v, squared=False,
                   power=args.p, wall_time=time.perf_counter() - t0)
    elif m == "cover-upper":
        res = cover_bounds(X, args.delta, cap=args.budget)
        report.add(task="disc", measure=m, lower=res.lower, upper=res.upper,
                   delta=args.delta, witness=res.witness,
                   wall_time=time.perf_counter() - t0)
    elif m == "ta-lower":
        seed = _need_seed(args, report)
        best = _best_ta(X, TAConfig(args.iterations, mc=args.mc, k=args.k, seed=seed),
                        args.restarts, args.variant)
        report.add(task="disc", measure=m, variant=args.variant, lower=best.lower,
                   upper=best.upper, iterations=args.iterations, seed=seed,
                   restarts=args.restarts, witness=best.witness,
                   wall_time=time.perf_counter() - t0)
    else:  # ga-lower
        seed = _need_seed(args, report)
        res = ga_lower_bound(X, args.mu, args.lambda_c, args.lambda_m,
                             args.stagnation, seed)
        report.add(task="disc", measure=m, lower=res.lower, upper=res.upper,
                   mu=args.mu, lambda_c=args.lambda_c, lambda_m=args.lambda_m,
                   stagnation=args.stagnation, seed=seed, witness=res.witness,
                   wall_time=time.perf_counter() - t0)


def _cmd_reduce(args, report: RunReport) -> None:
    P = read_measure(args.input)
    fn = forward_selection if args.method == "forward" else backward_selection
    res = fn(P, args.n, exact_inner=args.exact_inner, budget=args.budget)
    check = two_measure_star_disc(P, res.measure, args.budget)
    report.add(task="reduce", method=args.method, n=args.n,
               exact_inner=args.exact_inner, distance=res.distance,
               recomputed_distance=check,
               support=",".join(str(i) for i in res.support_idx))
    for size, dist in res.trace:
        report.add(trace_size=size, trace_distance=dist)
    if args.out:
        write_measure(args.out, res.measure)
        report.add(written=args.out)


def _cmd_optimize_perms(args, report: RunReport) -> None:
    seed = _need_seed(args, report)
    cfg = optimize_halton_permutations(args.d, args.points, args.mu, args.lam,
                                       args.generations, seed)
    fit = l2.modified_l2_sq(halton(args.points, args.d, cfg))
    fit_id = l2.modified_l2_sq(halton(args.points, args.d))
    report.add(task="optimize-perms", d=args.d, points=args.points, seed=seed,
               fitness=fit, identity_fitness=fit_id)
    for j, pi in enumerate(cfg.permutations):
        report.add(base_index=j, permutation=",".join(str(v) for v in pi))


def _cmd_report(args, report: RunReport) -> None:
    seed = _need_seed(args, report)
    sets = {}
    with open(args.manifest, "r", encoding="utf-8") as fh:
        for lineno, line in _data_lines(fh.read()):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{args.manifest}:{lineno}: expected '<name> <path>'")
            sets[parts[0]] = read_pointset(parts[1])
    measures = [m.strip() for m in args.measures.split(",") if m.strip()]
    cells = quality_report(sets, measures, exact_budget=args.budget,
                           delta=args.delta, ta_iterations=args.iterations,
                           restarts=args.restarts, seed=seed)
    for cell in cells:
        rec = {"set": cell.set_name, "measure": cell.measure, "method": cell.method}
        if cell.value is not None:
            rec["value"] = cell.value
        if cell.lower is not None:
            rec["lower"] = cell.lower
        if cell.upper is not None:
            rec["upper"] = cell.upper
        if cell.seed is not None:
            rec["seed"] = cell.seed
        if cell.error is not None:
            rec["error"] = cell.error
        rec["wall_time"] = cell.wall_time
        report.add(**rec)


def _cmd_selftest(args, report: RunReport) -> int:
    """Small cross-algorithm oracle web; exits nonzero on any violation."""
    rng = np.random.default_rng(args.seed)
    failures = 0
    for t in range(args.instances):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 16))
        X = PointSet(rng.random((n, d)))
        ref = star_grid_enum(X)
        vals = {"grid": ref.value, "dem": star_dem(X).value}
        if d == 1:
            vals["1d"] = star_1d(X).value
        spread = max(vals.values()) - min(vals.values())
        ok = spread <= 1e-12
        if not ok:
            failures += 1
            report.add(instance=t, status="FAIL", spread=spread, **vals)
        cb = cover_bounds(X, 0.25)
        if not (cb.lower <= ref.value + 1e-12 and ref.value <= cb.upper + 1e-12):
            failures += 1
            report.add(instance=t, status="FAIL", reason="cover sandwich",
                       lower=cb.lower, exact=ref.value, upper=cb.upper)
        fast = l2.star_l2_sq_fast(WeightedPointSet.equal_weights(X))
        direct = l2.warnock_star_l2_sq(X)
        if abs(fast - direct) > 1e-10 * max(abs(direct), 1e-30):
            failures += 1
            report.add(instance=t, status="FAIL", reason="l2 fast vs direct",
                       fast=fast, direct=direct)
        p2 = lp.weighted_star_lp_pow(X, np.ones(d), 2)
        w2 = l2.weighted_star_l2_sq(X, np.ones(d))
        if abs(p2 - w2) > 1e-10:
            failures += 1
            report.add(instance=t, status="FAIL", reason="lp p=2 vs weighted l2",
                       lp=p2, l2=w2)
        y = rng.random(d)
        before = local_discrepancy(y, X)
        dn = local_discrepancy(snap_down(y, X), X)
        up = local_discrepancy(snap_up(y, X, int(rng.integers(0, 2**31))), X)
        if (dn.closed_count != before.closed_count or dn.delta_bar < before.delta_bar
                or up.open_count != before.open_count or up.delta < before.delta):
            failures += 1
            report.add(instance=t, status="FAIL", reason="snapping contract")
    report.add(task="selftest", instances=args.instances, failures=failures)
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def run_command(argv) -> tuple[int, RunReport]:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        code = int(exc.code) if exc.code else 0
        rep = RunReport(command=" ".join(argv))
        if code != 0:
            rep.add(error="usage", exit_code=EXIT_USAGE)
            return EXIT_USAGE, rep
        return EXIT_OK, rep
    report = RunReport(command=" ".join(argv))
    try:
        if args.cmd == "gen":
            X = _cmd_gen(args, report)
            if args.out:
                write_pointset(args.out, X)
                report.add(written=args.out)
            else:
                # raw point-set format on stdout so the output can be piped
                report.raw_payload = _pointset_text(X)
            return EXIT_OK, report
        if args.cmd == "disc":
            _cmd_disc(args, report)
        elif args.cmd == "reduce":
            _cmd_reduce(args, report)
        elif args.cmd == "optimize-perms":
            _cmd_optimize_perms(args, report)
        elif args.cmd == "report":
            _cmd_report(args, report)
        elif args.cmd == "selftest":
            return _cmd_selftest(args, report), report
        return EXIT_OK, report
    except (ParseError, SystemExit2, ValueError) as exc:
        report.add(error=str(exc), exit_code=EXIT_USAGE)
        return EXIT_USAGE, report
    except BudgetExceededError as exc:
        report.add(error=str(exc), exit_code=EXIT_BUDGET)
        return EXIT_BUDGET, report
    except (LPError, FloatingPointError, np.linalg.LinAlgError) as exc:
        report.add(error=str(exc), exit_code=EXIT_NUMERIC)
        return EXIT_NUMERIC, report


def _wants_json(argv) -> bool:
    for i, tok in enumerate(argv):
        if tok == "--format" and i + 1 < len(argv) and argv[i + 1] == "json":
            return True
        if tok == "--format=json":
            return True
    return False


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    code, report = run_command(argv)
    if report.raw_payload is not None and code == EXIT_OK:
        sys.stdout.write(report.raw_payload)
        return code
    out = report.render_json() if _wants_json(argv) else report.render_text()
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
