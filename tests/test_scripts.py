"""Every script under ``scripts/`` still imports against the package.

A script is loaded by path, which runs its imports and top-level
definitions but not its ``main``, so a renamed or deleted library name fails
here instead of in the next hand-run of the script.  The quality-report demo
is small enough to run whole.  The scripts are only read, never written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


def _load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ next to the scripts
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = saved
    return mod


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    assert callable(_load(path).main)


def test_quality_report_demo_runs(monkeypatch, capsys):
    [path] = [p for p in SCRIPTS if p.name == "quality_report_demo.py"]
    monkeypatch.setattr(sys, "argv", [path.name, "--n", "8", "--d", "2"])
    _load(path).main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 4 * 3  # header, rule, then 4 sets by 3 measures
    assert not any("error:" in line for line in lines)
