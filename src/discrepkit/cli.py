"""Command-line surface and file formats.

Every input file is read by one tokenizer: blank lines and lines starting
with '#' are skipped, and tokens parse as float() parses them.  Point sets:
each data line holds d decimals in [0,1).  Measures: a probability, then d
coordinates in [0,1].  Marginal tables (for the G-star discrepancy): one
line per coordinate of alternating knot/value pairs.  Report manifests: a
unique set name and a point-set path per line.  Floats are written as
shortest round-trip reprs, so write/read is value-preserving.

Reports are line-oriented ``key=value`` records with a stable schema
(``--format json`` gives the same content as one JSON object).  Exit codes:
0 success, 2 usage or parse error or a file that cannot be opened, 3
infeasible under the budget, 4 numeric failure.  Randomized subcommands
require an explicit --seed in json mode; in text mode a time-derived seed is
drawn and logged.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from . import l2, lp
from ._simplex import LPError
from .applications import (MEASURES, OPTIONS, REPORT_MEASURES, DiscreteMeasure,
                           backward_selection, forward_selection,
                           optimize_halton_permutations, quality_report, two_measure_star_disc)
from .generators import (Graph, PermutationConfig, dominating_set_instance, halton,
                         midpoint_set, rank1_lattice)
from .linf_approx import cover_bounds
from .linf_exact import MarginalCDF, star_1d, star_dem, star_grid_enum
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


def _data_rows(path: str):
    """``(line number, tokens)`` of each data line of the file at ``path``,
    one line at a time; blank lines and lines starting with '#' are skipped.
    The file is read when this is called."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return ((lineno, line.split()) for lineno, raw in enumerate(lines, start=1)
            if (line := raw.strip()) and not line.startswith("#"))


def _matrix(path: str, rows) -> tuple[np.ndarray, list]:
    """Equal-width data rows as one float array, each token read by float(),
    row by row, and their line numbers; otherwise a ParseError naming the
    first line that does not parse."""
    linenos, first, last = [], 0, 0

    def checked():  # stops after a row of another width, once its tokens are read
        nonlocal first, last
        for lineno, row in rows:
            if last != first:
                break
            linenos.append(lineno)
            first, last = first or len(row), len(row)
            yield row
    try:
        flat = np.fromiter(map(float, chain.from_iterable(checked())), np.float64)
    except ValueError as exc:
        raise ParseError(f"{path}:{linenos[-1]}: {exc}") from None
    if not linenos:
        raise ParseError(f"{path}: no data lines")
    if last != first:
        raise ParseError(f"{path}:{linenos[-1]}: expected {first} values, got {last}")
    return flat.reshape(len(linenos), -1), linenos


def _check(path: str, linenos: list, values: np.ndarray, bad: np.ndarray, reason: str) -> None:
    """ParseError at the first of the rows' ``linenos`` with a ``bad`` value;
    ``reason`` formats that value."""
    at = np.argwhere(bad)
    if at.size:
        raise ParseError(f"{path}:{linenos[at[0][0]]}: "
                         + reason.format(float(values[tuple(at[0])])))


def read_pointset(path: str) -> PointSet:
    X, linenos = _matrix(path, _data_rows(path))
    _check(path, linenos, X, ~((X >= 0.0) & (X < 1.0)), "coordinate {!r} outside [0, 1)")
    return PointSet(X)


def _table_text(header: str, table: np.ndarray) -> str:
    """A '#' header, then one line per row in shortest round-trip reprs."""
    return f"# {header}\n" + "".join(" ".join(map(repr, row)) + "\n"
                                    for row in table.tolist())


def _pointset_text(X: PointSet) -> str:
    return _table_text(f"d={X.d} n={X.n}", X.points)


def write_pointset(path: str, X: PointSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_pointset_text(X))


def read_measure(path: str) -> DiscreteMeasure:
    table, linenos = _matrix(path, _data_rows(path))
    if table.shape[1] < 2:
        raise ParseError(f"{path}:{linenos[0]}: need a probability and coordinates")
    p, atoms = table[:, 0], table[:, 1:]
    _check(path, linenos, p, p < 0.0, "negative probability {!r}")
    _check(path, linenos, atoms, ~((atoms >= 0.0) & (atoms <= 1.0)),
           "coordinate {!r} outside [0, 1]")
    total = sum(p.tolist())  # left to right; np.sum's pairwise order changes p / total
    if abs(total - 1.0) > 1e-9:
        raise ParseError(f"{path}: probabilities sum to {total!r}, not 1")
    if abs(total - 1.0) > 1e-12:
        p = p / total
    return DiscreteMeasure(atoms, p)


def write_measure(path: str, P: DiscreteMeasure) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_table_text(f"d={P.d} atoms={P.n}",
                             np.column_stack([P.probabilities, P.atoms])))


def read_marginals(path: str) -> MarginalCDF:
    rows = list(_data_rows(path))
    if not rows:
        raise ParseError(f"{path}: no data lines")
    tables = []
    for lineno, tokens in rows:
        if len(tokens) < 4 or len(tokens) % 2 != 0:
            raise ParseError(f"{path}:{lineno}: need knot/value pairs")
        pairs = _matrix(path, [(lineno, tokens)])[0].reshape(-1, 2)
        tables.append((pairs[:, 0], pairs[:, 1]))
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
        return json.dumps({"format_version": FORMAT_VERSION, "command": self.command,
                           "records": self.records}, sort_keys=True) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(c) for c in v)
    return str(v)


def _parse_list(text: str, kind=float) -> list:
    return [kind(tok) for tok in text.replace(",", " ").split()]


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
    di.add_argument("--measure", required=True, choices=tuple(MEASURES))
    di.add_argument("--method", choices=("auto", "1d", "2d", "3d", "grid", "dem"))
    di.add_argument("--stable", action="store_true", help="accepted for older scripts; no effect")
    di.add_argument("--gstar", help="marginal table file for the G-star variant "
                                    "(grid enumeration; --method auto or grid)")
    di.add_argument("--gamma", help="product weights, comma separated")
    di.add_argument("--p", type=int)
    di.add_argument("--delta", type=float)
    di.add_argument("--variant", choices=("basic", "improved"))
    di.add_argument("--iterations", type=int)
    di.add_argument("--restarts", type=int)
    di.add_argument("--mc", type=int)
    di.add_argument("--k", type=int, help="grid radius of --variant basic; improved ignores it")
    di.add_argument("--mu", type=int)
    di.add_argument("--lambda-c", type=int, dest="lambda_c")
    di.add_argument("--lambda-m", type=int, dest="lambda_m")
    di.add_argument("--stagnation", type=int)
    di.add_argument("--seed", type=int)
    di.add_argument("--budget", type=int)
    di.set_defaults(**OPTIONS)

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
    q.add_argument("--manifest", required=True, help="lines of: <name> <pointset file>")
    q.add_argument("--measures", default=REPORT_MEASURES)
    q.add_argument("--seed", type=int)
    q.add_argument("--budget", type=int, default=OPTIONS["budget"])
    q.add_argument("--delta", type=float, default=OPTIONS["delta"])
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


# the options each generator needs
_GEN_NEEDS = {"midpoint": ("n",), "halton": ("n", "d"), "ghalton": ("n", "d"),
              "lattice": ("n", "z"), "domset": ("vertices",)}


def _cmd_gen(args, report: RunReport) -> PointSet:
    t, needs = args.type, _GEN_NEEDS[args.type]
    if any(getattr(args, k) in (None, "") for k in needs):
        raise SystemExit2(f"gen --type {t} needs " + " and ".join("--" + k for k in needs))
    if t == "midpoint":
        X = midpoint_set(args.n)
    elif t == "lattice":
        X = rank1_lattice(args.n, _parse_list(args.z, int))
    elif t == "domset":
        X = dominating_set_instance(Graph(args.vertices, _parse_edges(args.edges)),
                                    args.alpha, args.beta)
    else:
        X = halton(args.n, args.d, None if t == "halton"
                   else PermutationConfig.reverse(args.d) if args.perms == "reverse"
                   else PermutationConfig.random(args.d, _need_seed(args, report)))
    report.add(task="gen", type=t, n=X.n, d=X.d)
    return X


def _cmd_disc(args, report: RunReport) -> None:
    X = read_pointset(args.input)
    measure = MEASURES[args.measure]
    t0 = time.perf_counter()
    if "seed" in measure.needs:
        args.seed = _need_seed(args, report)
    if "gstar" in measure.needs:
        if args.gstar and args.method not in ("auto", "grid"):
            raise SystemExit2(f"--gstar runs grid enumeration; --method {args.method} "
                              "cannot be combined with it")
        args.gstar = read_marginals(args.gstar) if args.gstar else None
    if "gamma" in measure.needs:
        args.gamma = _parse_list(args.gamma) if args.gamma else None
    report.add(task="disc", measure=args.measure, **measure.run(X, args),
               wall_time=time.perf_counter() - t0)


def _cmd_reduce(args, report: RunReport) -> None:
    P = read_measure(args.input)
    fn = forward_selection if args.method == "forward" else backward_selection
    res = fn(P, args.n, exact_inner=args.exact_inner, budget=args.budget)
    check = two_measure_star_disc(P, res.measure, args.budget)
    report.add(task="reduce", method=args.method, n=args.n, exact_inner=args.exact_inner,
               distance=res.distance, recomputed_distance=check,
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
    for lineno, tokens in _data_rows(args.manifest):
        if len(tokens) != 2:
            raise ParseError(f"{args.manifest}:{lineno}: expected '<name> <path>'")
        if tokens[0] in sets:
            raise ParseError(f"{args.manifest}:{lineno}: set name {tokens[0]!r} "
                             "given twice")
        sets[tokens[0]] = read_pointset(tokens[1])
    measures = [m.strip() for m in args.measures.split(",") if m.strip()]
    for c in quality_report(sets, measures, exact_budget=args.budget, delta=args.delta,
                            ta_iterations=args.iterations, restarts=args.restarts, seed=seed):
        given = {k: v for k in ("value", "lower", "upper", "seed", "error")
                 if (v := getattr(c, k)) is not None}
        report.add(set=c.set_name, measure=c.measure, method=c.method, **given,
                   wall_time=c.wall_time)


def _cmd_selftest(args, report: RunReport) -> int:
    """Small cross-algorithm oracle web; exits nonzero on any violation."""
    rng = np.random.default_rng(args.seed)
    for t in range(args.instances):
        fail = partial(report.add, instance=t, status="FAIL")
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 16))
        X = PointSet(rng.random((n, d)))
        ref = star_grid_enum(X)
        vals = {"grid": ref.value, "dem": star_dem(X).value}
        if d == 1:
            vals["1d"] = star_1d(X).value
        spread = max(vals.values()) - min(vals.values())
        if not spread <= 1e-12:
            fail(spread=spread, **vals)
        cb = cover_bounds(X, 0.25)
        if not (cb.lower <= ref.value + 1e-12 and ref.value <= cb.upper + 1e-12):
            fail(reason="cover sandwich", lower=cb.lower, exact=ref.value, upper=cb.upper)
        fast = l2.star_l2_sq_fast(WeightedPointSet.equal_weights(X))
        direct = l2.warnock_star_l2_sq(X)
        if abs(fast - direct) > 1e-10 * max(abs(direct), 1e-30):
            fail(reason="l2 fast vs direct", fast=fast, direct=direct)
        p2 = lp.weighted_star_lp_pow(X, np.ones(d), 2)
        w2 = l2.weighted_star_l2_sq(X, np.ones(d))
        if abs(p2 - w2) > 1e-10:
            fail(reason="lp p=2 vs weighted l2", lp=p2, l2=w2)
        y = rng.random(d)
        before = local_discrepancy(y, X)
        dn = local_discrepancy(snap_down(y, X), X)
        up = local_discrepancy(snap_up(y, X, int(rng.integers(0, 2**31))), X)
        if (dn.closed_count != before.closed_count or dn.delta_bar < before.delta_bar
                or up.open_count != before.open_count or up.delta < before.delta):
            fail(reason="snapping contract")
    failures = sum(rec.get("status") == "FAIL" for rec in report.records)
    report.add(task="selftest", instances=args.instances, failures=failures)
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def run_command(argv) -> tuple[int, RunReport]:
    report = RunReport(command=" ".join(argv))
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if not exc.code:
            return EXIT_OK, report
        report.add(error="usage", exit_code=EXIT_USAGE)
        return EXIT_USAGE, report
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
    except (ParseError, SystemExit2, ValueError, OSError) as exc:
        report.add(error=str(exc), exit_code=EXIT_USAGE)
        return EXIT_USAGE, report
    except BudgetExceededError as exc:
        report.add(error=str(exc), exit_code=EXIT_BUDGET)
        return EXIT_BUDGET, report
    except (LPError, FloatingPointError, np.linalg.LinAlgError) as exc:
        report.add(error=str(exc), exit_code=EXIT_NUMERIC)
        return EXIT_NUMERIC, report


def _wants_json(argv) -> bool:
    return "--format=json" in argv or any(
        a == "--format" and b == "json" for a, b in zip(argv, argv[1:]))


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
