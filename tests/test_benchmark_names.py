"""Every function the traced benchmark run patches still exists under its name, and
every call the benchmark's workloads make still runs and passes its check.

The traced run (benchmarks/tracing.py) wraps functions by (module, name) and
times suite._run_dimension; a rename or deletion would silently drop a layer.
These tests only read the benchmark's files.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
TRACING, WORKLOADS = BENCHMARKS / "tracing.py", BENCHMARKS / "workloads.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("weylbench_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = load_tracing()
    assert tracing.TRACED_FUNCTIONS
    for module, name in tracing.TRACED_FUNCTIONS:
        mod = importlib.import_module(f"weylbench.{module}")
        fn = getattr(mod, name, None)
        assert callable(fn), f"weylbench.{module}.{name} is missing"
        assert fn.__module__ == f"weylbench.{module}", f"{module}.{name} is an alias"


def test_dimension_worker_resolves():
    tracing = load_tracing()
    module, name = tracing.DIMENSION_SPAN.split(".")
    fn = getattr(importlib.import_module(f"weylbench.{module}"), name)
    assert list(inspect.signature(fn).parameters) == ["args"]


def test_patched_class_resolves():
    tensors = importlib.import_module("weylbench.tensors")
    assert "__init__" in vars(tensors.Operator2Form)


def test_traced_assembly_records_every_chart_layer():
    """A traced perturbed:5 order-4 assembly with the Ricci identity enters every
    traced chart function and evaluates each distinct stencil point once."""
    import numpy as np

    tracing = load_tracing()
    chart = importlib.import_module("weylbench.chart")
    with tracing.installed(tracing.Tracer()) as tracer:
        tracer.begin_op(0)
        grid = chart.GridSpec(center=0.1 * (1.0 + np.arange(5)) / 5, h=1e-3, order=4)
        field = chart.curvature_field(chart.preset_metric("perturbed:5"), grid,
                                      with_ricci_identity=True)
        chart.identity_residual_report(field)
        tracer.end_op()
    calls, _ = tracer.self_times()
    silent = [f"chart.{name}" for module, name in tracing.TRACED_FUNCTIONS
              if module == "chart" and not calls.get(f"chart.{name}")]
    assert not silent, silent
    assert tracer.metric_calls == tracer.metric_distinct == 4881


def test_each_workload_runs_a_cycle_through_its_checks(tmp_path, monkeypatch):
    """One whole cycle of every workload's op mix, each op through its own check, so a
    change to a call the benchmark makes fails here and not only as failed benchmark ops.
    bounds_audit runs its first six ops (four audits, the eigen audit and one oracle):
    the oracle entries repeat one call at other sizes and caps."""
    monkeypatch.setitem(sys.modules, "tracing", load_tracing())  # workloads imports it
    spec = importlib.util.spec_from_file_location("weylbench_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert set(workloads.WORKLOADS) == {"identity_suite", "bounds_audit", "chart_assembly",
                                        "cli_reports"}
    for name, cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = cls(seed=0, workdir=str(workdir))
        for k in range(6 if name == "bounds_audit" else workload.cycle):
            call, check = workload.prepare(k)
            assert check(call()), (name, k)
