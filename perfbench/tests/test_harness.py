"""Self-check of the benchmark harness.

    python3 -m pytest perfbench/tests -q

A tiny run of every workload, untraced and traced: the result line has the
contract's schema and every declared metric with its unit, the correctness
gates pass, and the recorded spans nest (children inside their parent,
self time >= 0).  Also checks ``BENCHMARK.json`` against ``layers.json``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

sys.path.insert(0, str(ROOT))
from perfbench import tracing  # noqa: E402


def run_bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-4000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    res = run_bench(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert res["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = res["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, m["name"]
    if trace:
        spans = ROOT / ".bench_out" / f"spans-{workload}-seed{SEED}.json"
        files = [spans]
        if workload == "serve-water":
            files.append(Path(str(spans) + ".daemon"))
        for path in files:
            records = json.loads(path.read_text())
            assert records, path
            assert tracing.nesting_errors(records) == []


def test_spec_matches_layer_map():
    names = [m["name"] for m in SPEC["per_layer"] + SPEC["end_to_end"]]
    assert len(names) == len(set(names))
    assert sorted(LAYERS) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for name, entry in LAYERS.items():
        assert set(entry) == {"measures", "moves"}, name
        assert any(metric in entry["moves"] for metric in e2e) or \
            "nothing" in entry["moves"], name
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}


def test_self_time_and_nesting():
    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: mod.inner() + mod.inner()
    tracer = tracing.Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    tracer.enabled = True
    threads = [threading.Thread(target=mod.outer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
        assert not t.is_alive()
    tracer.enabled = False
    tracer.restore()
    assert not hasattr(mod.inner, "__wrapped__")
    records = tracer.records()
    assert tracing.nesting_errors(records) == []
    summary = tracing.summarize(records)
    assert summary["outer"]["calls"] == 4
    assert summary["inner"]["calls"] == 8
    outer = summary["outer"]
    assert outer["self"] == pytest.approx(
        outer["total"] - summary["inner"]["total"], abs=1e-9
    )
    for r in records:
        if r["name"] == "inner":
            assert records[r["parent"]]["name"] == "outer"
