"""Every function the traced benchmark run patches still exists under its name.

The traced run (benchmarks/tracing.py) wraps functions by (module, name) and
times suite._run_dimension; a rename or deletion would silently drop a layer.
This test only reads the benchmark's list.
"""

import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


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
