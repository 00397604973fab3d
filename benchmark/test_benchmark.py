"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q benchmark/test_benchmark.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
with no failed operation, and that the build gate rejects a corrupted graph.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _declared(key: str) -> set:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[key]}


def test_declared_workloads_and_metrics_match_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert _declared("end_to_end") == set(run.END_TO_END)
    assert _declared("per_layer") == set(run.PER_LAYER)


@pytest.mark.parametrize("name", run.WORKLOADS + run.EXTRA_WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace, tmp_path):
    res = run.run_workload(name, seed=3, seconds=0.0, trace=trace, workdir=tmp_path, tiny=True)
    assert res["failures"] == []
    assert res["attempted"] == (2 if trace else 1)
    metrics = run.per_layer(res) if trace else run.end_to_end(res, import_s=0.0)
    assert set(metrics) == _declared("per_layer" if trace else "end_to_end")
    for name_, m in metrics.items():
        assert isinstance(m["value"], (int, float)), name_
    if not trace:
        assert all(m["value"] > 0.0 for m in metrics.values())


def test_build_gate_rejects_an_asymmetric_weight(tmp_path):
    full, tiny, metric_kw, knn = workloads.BUILD_CASES["se2"]
    path = str(tmp_path / "g.clgr")
    g, lap = workloads._build_pipeline(Tracer(), tiny, metric_kw, knn, 0, path)
    rows = [0, 17, 100]
    assert workloads.build_gate(g, lap, path, None, rows) == []

    g.weights = g.weights.copy()
    g.weights[5] = float(g.weights[5]) * (1.0 + 1e-12)     # one direction only
    problems = workloads.build_gate(g, lap, path, None, rows)
    assert "adjacency weights are not bit-symmetric" in problems
