"""The names the benchmark in perfbench/ patches and imports still resolve.

perfbench/tracing.py wraps catbell functions by (module, attribute) and
perfbench/workloads.py checks every call against catbell's closed form.  A
refactor that renames one of them would only surface when the benchmark runs;
these tests load both files by path, unchanged, and fail first.
"""

import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from catbell import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _ in tracing.SPANS + tracing.COUNTS}))
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_fock_cache_counts_resolve():
    counts = tracing.cache_counts()
    assert set(counts) == {f"fock.{c}_cache_{k}" for c in ("displacement", "bs")
                           for k in ("hits", "misses")}


@pytest.mark.parametrize("which", ["usd2", "usd4"])
def test_gate_accepts_rates_output(which):
    call = workloads.Call("rates", {"protocol": which, "alpha": 100.0, "phi_rad": 0.0028,
                                    "distance_km_total": 140.0})
    out = io.StringIO()
    assert cli.main(call.argv, out) == 0
    workloads.check(call, out.getvalue())
