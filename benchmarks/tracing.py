"""In-memory span tracer for the traced benchmark run.

The tracer wraps functions of the ``weylbench`` modules from the outside: every
module namespace that binds a listed function gets a wrapper in its place, and
``Operator2Form.__init__`` (plus each subclass ``__init__``) is patched on the
class.  Each wrapped call records one span ``(id, name, start, end, parent,
op)``.  A layer's self time is its span duration minus the time covered by
its direct child spans.  Nothing is written while the run measures; spans are
dumped once at the end.

Chart metric evaluations are counted by a counting ``ChartMetric`` built
around the preset's (or grid file's) ``fn``: calls, and distinct points per op
rounded to 12 digits, the key ``dump_grid_file`` uses.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from time import perf_counter

#: (module, function); the span name is "<module>.<function>"
TRACED_FUNCTIONS = [
    ("basis", "pair_matrix_to_four_tensor"),
    ("basis", "four_tensor_to_pair_matrix"),
    ("tensors", "bianchi_residual"),
    ("tensors", "check_symmetric"),
    ("algebra", "sharp_four"),
    ("algebra", "kn_four"),
    ("algebra", "decompose"),
    ("algebra", "ricci_contraction"),
    ("algebra", "bianchi_project"),
    ("algebra", "second_bianchi_full"),
    ("algebra", "circ_prime_full"),
    ("algebra", "u_tensor_contractions"),
    ("algebra", "pure_cubics"),
    ("sampling", "random_curvature"),
    ("sampling", "random_weyl"),
    ("sampling", "random_weyl_batch"),
    ("sampling", "random_curvature_derivative_full"),
    ("suite", "_sharp_cubic_trial"),
    ("suite", "_u_tensor_trial"),
    ("bounds", "audit_cubic_bounds"),
    ("bounds", "audit_eigen_bound"),
    ("bounds", "wcubic_oracle"),
    ("bounds", "_project_feasible"),
    ("bounds", "cubic_bound_eval"),
    ("bounds", "berger_component_bound"),
    ("chart", "curvature_field"),
    ("chart", "christoffel"),
    ("chart", "curvature_tensor_at"),
    ("chart", "_decomp_coords"),
    ("chart", "_w_norm_sq_at"),
    ("chart", "_ricci_identity_residual"),
    ("chart", "identity_residual_report"),
    ("dim4", "split_self_dual"),
    ("dim4", "berger_normal_form"),
    ("dim4", "det_identities"),
    ("models", "model_curvature"),
    ("models", "symmetric_space_identity_report"),
    ("serialization", "operator_from_dict"),
    ("report", "render"),
    ("cli", "main"),
]

#: span name of every Operator2Form construction, subclasses included
INIT_SPAN = "tensors.Operator2Form.init"

#: the suite's per-dimension worker; its spans give the per-trial time
DIMENSION_SPAN = "suite._run_dimension"

MODULES = ("basis", "tensors", "algebra", "sampling", "suite", "bounds", "chart",
           "dim4", "models", "serialization", "report", "cli")

SUITE_DIMENSIONS = (4, 5, 6, 7, 8)


#: every span name whose calls and self time are reported
REPORTED_SPANS = [f"{module}.{attr}" for module, attr in TRACED_FUNCTIONS] + [INIT_SPAN]


def per_layer_metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in a fixed order."""
    out: dict[str, tuple[str, str]] = {}
    for name in REPORTED_SPANS:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    for n in SUITE_DIMENSIONS:
        out[f"suite.trial_s.n{n}"] = ("s", "lower")
    out["bounds.oracle.evaluations"] = ("count", "lower")
    out["bounds.oracle.converged_ratio"] = ("ratio", "higher")
    out["chart.metric.calls"] = ("count", "lower")
    out["chart.metric.distinct_points"] = ("count", "lower")
    out["chart.metric.points_per_call"] = ("ratio", "higher")
    for module in MODULES:
        out[f"{module}.self_s"] = ("s", "lower")
    out["trace.overhead_ratio"] = ("ratio", "higher")
    return out


class Tracer:
    """Span recorder plus the counters read off return values."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.stack: list[tuple[int, str]] = []
        self.next_id = 0
        self.op_id = -1
        self.trial_time = {n: 0.0 for n in SUITE_DIMENSIONS}
        self.trial_count = {n: 0 for n in SUITE_DIMENSIONS}
        self.oracle_evaluations = 0
        self.oracle_calls = 0
        self.oracle_converged = 0
        self.metric_calls = 0
        self.metric_distinct = 0
        self._points: set[tuple] = set()

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """Wrapper recording a span per call; a call made from inside a span of
        the same name (a subclass __init__ calling super) joins that span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append((span_id, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.op_id))
            if hook is not None:
                hook(args, result, end - start)
            return result

        return traced

    def begin_op(self, op_id: int) -> None:
        self.end_op()
        self.op_id = op_id

    def end_op(self) -> None:
        self.metric_distinct += len(self._points)
        self._points.clear()

    # -- hooks ---------------------------------------------------------------

    def _dimension_hook(self, args, result, seconds) -> None:
        n, trials = args[0][0], args[0][1]
        if n in self.trial_time:
            self.trial_time[n] += seconds
            self.trial_count[n] += trials

    def _oracle_hook(self, args, result, seconds) -> None:
        self.oracle_calls += 1
        self.oracle_evaluations += int(result.evaluations)
        self.oracle_converged += bool(result.converged)

    def counting_metric(self, metric):
        """The same chart metric, with every evaluation counted."""
        from weylbench.chart import ChartMetric

        fn, points, tracer = metric.fn, self._points, self

        def counted(x):
            tracer.metric_calls += 1
            points.add(tuple(round(float(c), 12) for c in x))
            return fn(x)

        return ChartMetric(metric.name, metric.n, counted, metric.harmonic_weyl,
                           metric.default_grid)

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        child = {}
        for span_id, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for span_id, name, start, end, _, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child.get(span_id, 0.0)
        return calls, self_s

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        self.end_op()
        calls, self_s = self.self_times()
        out: dict[str, float] = {}
        for name in REPORTED_SPANS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for n in SUITE_DIMENSIONS:
            count = self.trial_count[n]
            out[f"suite.trial_s.n{n}"] = self.trial_time[n] / count if count else 0.0
        out["bounds.oracle.evaluations"] = self.oracle_evaluations
        out["bounds.oracle.converged_ratio"] = (self.oracle_converged / self.oracle_calls
                                                if self.oracle_calls else 0.0)
        out["chart.metric.calls"] = self.metric_calls
        out["chart.metric.distinct_points"] = self.metric_distinct
        out["chart.metric.points_per_call"] = (self.metric_distinct / self.metric_calls
                                               if self.metric_calls else 0.0)
        for module in MODULES:
            out[f"{module}.self_s"] = sum((v for k, v in self_s.items()
                                           if k.startswith(module + ".")), 0.0)
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out[name] for name in per_layer_metric_units()}

    def dump(self, path) -> None:
        """Write the spans as gzip'd JSON lines (times relative to the first span)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "op": op}) + "\n")


class installed:
    """Context manager: patch every traced function while the block runs."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.undo: list[tuple[object, str, object]] = []

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "weylbench" and not modname.startswith("weylbench."):
                continue
            names = [k for k, v in vars(module).items() if v is original]
            for key in names:
                self.undo.append((module, key, original))
                setattr(module, key, replacement)

    def __enter__(self) -> Tracer:
        tr = self.tracer
        for module, attr in TRACED_FUNCTIONS:
            original = getattr(importlib.import_module(f"weylbench.{module}"), attr)
            hook = tr._oracle_hook if (module, attr) == ("bounds", "wcubic_oracle") else None
            self._replace_everywhere(original, tr.wrap(f"{module}.{attr}", original, hook))
        suite = importlib.import_module("weylbench.suite")
        run_dimension = suite._run_dimension
        self._replace_everywhere(run_dimension,
                                 tr.wrap(DIMENSION_SPAN, run_dimension, tr._dimension_hook))
        tensors = importlib.import_module("weylbench.tensors")
        classes = [tensors.Operator2Form]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            if "__init__" in vars(cls):
                self.undo.append((cls, "__init__", cls.__init__))
                cls.__init__ = tr.wrap(INIT_SPAN, cls.__init__)
        chart = importlib.import_module("weylbench.chart")
        for factory in (chart.preset_metric, chart.grid_file_metric):
            def counted_factory(*args, _factory=factory, **kwargs):
                return tr.counting_metric(_factory(*args, **kwargs))
            self._replace_everywhere(factory, counted_factory)
        return tr

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self.undo):
            setattr(owner, key, original)
        self.undo.clear()
