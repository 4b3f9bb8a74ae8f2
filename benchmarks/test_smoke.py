"""Smoke test of the benchmark at a tiny run length; not part of tier-1.

    python3 -m pytest benchmarks/test_smoke.py -q

Each workload runs once untraced and once traced with --seconds 1 (the
workloads' min_cycles still apply, so this takes a few minutes).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import WORKLOAD_NAMES  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_printed(proc: subprocess.CompletedProcess, specs: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in specs]
    text = {line.split()[0]: line.split()[1:] for line in lines[1:-2]}
    for m in specs:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert text[m["name"]][1] == m["unit"]
        assert float(text[m["name"]][0]) == value["value"]
    assert float(text["fail_ratio"][0]) == 0.0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics(workload):
    metrics = check_printed(bench(workload, 0), SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_layer_metrics(workload):
    metrics = check_printed(bench(workload, 1), SPEC["per_layer"])
    assert metrics["trace.overhead_ratio"]["value"] > 0
    if workload == "bounds_audit":
        again = check_printed(bench(workload, 1), SPEC["per_layer"])
        assert (again["bounds.oracle.evaluations"] == metrics["bounds.oracle.evaluations"]
                and metrics["bounds.oracle.evaluations"]["value"] > 0)


def test_chart_metric_counts_repeat_exactly():
    from weylbench.chart import GridSpec, curvature_field, preset_metric

    for _ in range(2):
        tracer = Tracer()
        metric = tracer.counting_metric(preset_metric("sphere-stereo:4"))
        tracer.begin_op(0)
        curvature_field(metric, GridSpec(center=np.array([0.025, 0.05, 0.075, 0.1]), h=1e-3))
        tracer.end_op()
        assert (tracer.metric_calls, tracer.metric_distinct) == (6865, 313)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("identity_suite", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
