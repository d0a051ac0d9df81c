"""Self-tests of the benchmark; slow (about a minute):

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import MissingLayerError, Tracer  # noqa: E402


def run_bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_injected_fault_is_counted():
    code, result = run_bench("--workload", "catalog", "--seed", "0", "--seconds", "1",
                             "--trace", "0", "--selftest-inject-fault")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_traced_run_passes_and_counts_repeat():
    code, result = run_bench("--workload", "binary64-order", "--seed", "3",
                             "--seconds", "1", "--trace", "1")
    assert code == 0 and result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == list(layers.metric_units())
    assert metrics["problem.reference_eval.calls"]["value"] > 0
    assert metrics["scheme.solve.binary64.1600x3200.s"]["value"] > 0
    assert metrics["trace.coverage"]["value"] >= 0.9


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    pkg.outer = outer  # a re-export must be wrapped too
    sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod})
    yield pkg, mod
    del sys.modules["fakepkg"], sys.modules["fakepkg.mod"]


def test_missing_function_fails_loudly(fake_package):
    with pytest.raises(MissingLayerError):
        Tracer("fakepkg").patch_function("mod", "gone", "mod.gone")


def test_spans_nest_and_uninstall_restores(fake_package):
    pkg, mod = fake_package
    original = mod.outer
    tracer = Tracer("fakepkg")
    tracer.patch_function("mod", "inner", "mod.inner", hot=True)
    tracer.patch_function("mod", "outer", "mod.outer")
    assert pkg.outer(1) == 4 and mod.outer(2) == 6
    assert tracer.stats["mod.inner"][0] == 2 and tracer.stats["mod.outer"][0] == 2
    assert [s[2] for s in tracer.spans] == ["mod.outer", "mod.outer"]  # hot: no spans
    assert tracer.stats["mod.outer"][2] > 0  # child time of inner
    tracer.uninstall()
    assert mod.outer is original and pkg.outer is original


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w[0] for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
