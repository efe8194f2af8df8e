"""The benchmark's tracer (``perfbench/spans.py``) still fits the package.

Every function it wraps must exist under its module and name, installing
then uninstalling the tracer must leave every ``discrepkit`` namespace as it
was, and every measure of ``disc`` and ``report`` must open the span of the
library function it runs.  The tracer file is only read, never written.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ next to the tracer
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = saved
    return mod


def _namespaces():
    """Every name bound in every loaded discrepkit module, with its object."""
    return {(name, attr): val
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "discrepkit" or name.startswith("discrepkit."))
            for attr, val in vars(mod).items()}


def test_traced_functions_resolve():
    spans = _load_spans()
    for mod, name in spans.TRACED:
        fn = getattr(importlib.import_module("discrepkit." + mod), name, None)
        assert callable(fn), f"discrepkit.{mod}.{name}"


def test_traced_functions_are_distinct():
    # the tracer wraps by identity: an alias under two traced names would be
    # wrapped twice, and one call would open two spans
    spans = _load_spans()
    fns = [getattr(importlib.import_module("discrepkit." + mod), name)
           for mod, name in spans.TRACED]
    assert len({id(f) for f in fns}) == len(fns)


def test_install_uninstall_leaves_nothing_wrapped():
    spans = _load_spans()
    for mod, _ in spans.TRACED:
        importlib.import_module("discrepkit." + mod)
    before = _namespaces()
    tracer = spans.Tracer()
    tracer.install()
    try:
        import discrepkit
        discrepkit.halton(4, 2)
        assert [s[0] for s in tracer.spans] == ["generators.halton"]
        assert any(v is not before[k] for k, v in _namespaces().items() if k in before)
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced(run):
    """The names of the spans ``run()`` opens, with the tracer installed."""
    spans = _load_spans()
    for mod, _ in spans.TRACED:
        importlib.import_module("discrepkit." + mod)
    tracer = spans.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return {s[0] for s in tracer.spans}


# (measure and options, the span it must open)
MEASURE_SPANS = [
    (["star-linf"], "linf_exact.star_grid_enum"),
    (["star-l2"], "l2.warnock_star_l2_sq"),
    (["extreme-l2"], "l2.extreme_l2_sq"),
    (["modified-l2"], "l2.weighted_star_l2_sq"),
    (["weighted-l2", "--gamma", "1,0.5"], "l2.weighted_star_l2_sq"),
    (["lp-even", "--p", "4"], "lp.weighted_star_lp_pow"),
    (["cover-upper", "--delta", "0.25"], "linf_approx.cover_bounds"),
    (["ta-lower", "--iterations", "50"], "linf_approx.ta_improved"),
    (["ta-lower", "--iterations", "50", "--variant", "basic"], "linf_approx.ta_basic"),
    (["ga-lower", "--stagnation", "3"], "linf_approx.ga_lower_bound"),
]


@pytest.mark.parametrize("argv, span", MEASURE_SPANS, ids=[" ".join(c[0]) for c in MEASURE_SPANS])
def test_each_disc_measure_opens_its_span(tmp_path, argv, span):
    from discrepkit import cli, halton
    pts = tmp_path / "pts.txt"
    cli.write_pointset(str(pts), halton(8, 2))
    codes = []
    names = _traced(lambda: codes.append(cli.run_command(
        ["disc", "--input", str(pts), "--seed", "1", "--measure", *argv])[0]))
    assert codes == [0]
    assert span in names


def test_each_report_measure_opens_its_span():
    from discrepkit import applications, halton
    measures = [m for m in applications.MEASURES if m != "weighted-l2"]  # needs --gamma
    cells = []
    names = _traced(lambda: cells.extend(applications.quality_report(
        {"h": halton(8, 2)}, measures, ta_iterations=50, restarts=1)))
    assert [c.error for c in cells] == [None] * len(measures)
    assert {span for argv, span in MEASURE_SPANS if argv[0] != "weighted-l2"
            and "basic" not in argv} <= names
