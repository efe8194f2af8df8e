"""The benchmark's tracer (``perfbench/spans.py``) still fits the package.

Every function it wraps must exist under its module and name, and installing
then uninstalling the tracer must leave every ``discrepkit`` namespace as it
was.  The tracer file is only read, never written.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
