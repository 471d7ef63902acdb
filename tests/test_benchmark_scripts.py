"""Every benchmark script imports, so a removed public name fails tier-1.

The ``benchmarks/bench_*.py`` modules run only in the benchmark job: a
deleted or renamed public name they import would otherwise break them
without any tier-1 signal.  Each module is imported (not run) with
``benchmarks/`` on the path and its sibling ``conftest`` standing in for
the test suite's own.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
SCRIPTS = sorted(BENCH_DIR.glob("bench_*.py"))


def load(path, name):
    """Execute the module at ``path`` under ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_conftest():
    return load(BENCH_DIR / "conftest.py", "benchmarks_conftest")


def test_every_script_is_collected():
    assert len(SCRIPTS) >= 18


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_script_imports(path, bench_conftest, monkeypatch):
    monkeypatch.setitem(sys.modules, "conftest", bench_conftest)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    load(path, f"benchmarks_{path.stem}")
