"""weylbench benchmark: closed-loop workloads measured end to end, plus a traced
run for per-layer counts and self times.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): identity_suite, bounds_audit, chart_assembly,
cli_reports.  Each is one client in one process, workers=1: op k+1 starts
when op k has returned and its output has been checked.

--trace 0 runs a fixed number of whole cycles of the workload's op mix, those
that fill S seconds on the reference host (at least the workload's
min_cycles), with tracing off, and reports the
end-to-end metrics: setup_s, ops_per_s, op_p50_ms, op_tail_ms, peak_rss_mb.
setup_s is the median over several fresh processes of the time from process
start to the first timed op (import, input generation, one warm-up op).
Every time is scaled to a reference host speed by calibration probes run
next to it (calibrate.py); the DETAIL line keeps the unscaled medians.
fail_ratio is printed with the rest; it is also the last line's failed /
attempted.

--trace 1 runs a fixed prefix of ops (whole cycles sized from S) twice, first
untraced and then with every listed weylbench function wrapped, and reports
the per-layer metrics of tracing.py plus trace.overhead_ratio.  Spans are
written to .bench_out/spans-<workload>.jsonl.gz when the run ends.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the line before it, starting with "DETAIL ", carries the
quartiles, sample counts and provenance of every metric.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("identity_suite", "bounds_audit", "chart_assembly", "cli_reports")

#: fresh processes whose set-up times give setup_s
SETUP_PROBES = 5

#: a measured run stops at the next cycle boundary past this, however few cycles it ran
MAX_MEASURE_S = 120.0

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: samples beyond the op_tail_ms value
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def quartiles(values) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "commit": git_commit(),
        "seed": seed,
        "clients": 1,
        "workers": 1,
    }


class OpRunner:
    """Runs ops one at a time and tallies failed checks."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run(self, k: int) -> float:
        """Prepare, call and check op k; returns the latency of the call alone."""
        call, check = self.workload.prepare(k)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an op that raises is a failed op
            elapsed = time.perf_counter() - t0
            self._fail(k, f"raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            ok = bool(check(out))
        except Exception as exc:
            ok = False
            self._fail(k, f"check raised {type(exc).__name__}: {exc}")
            return elapsed
        if not ok:
            self._fail(k, "output check failed")
        return elapsed

    def _fail(self, k: int, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            sys.stderr.write(f"{self.workload.name} op {k}: {why}\n")


def measure(runner: OpRunner, seconds: float) -> dict:
    """The whole cycles of the op mix that fill `seconds` on the reference host.

    The cycle count, max(min_cycles, ceil(seconds / nominal_cycle_s)), does
    not depend on the speed of the host, so every run does the same work and
    the op_tail_ms sample sits at the same place in the mix.

    A calibration probe runs before the first op and after every op, for at
    least PROBE_SHARE of the op's wall time, and each op's times are scaled
    by the probes on either side of it (calibrate.py).
    Returns the scaled latency of every call, the scaled wall time of every
    op from prepare to the end of its check, the raw latencies and the raw
    wall time of the section, probes included.
    """
    wl = runner.workload
    count = wl.cycle * max(wl.min_cycles, math.ceil(seconds / wl.nominal_cycle_s))
    raw: list[float] = []
    latencies: list[float] = []
    walls: list[float] = []
    before = calibrate.probe()
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        latency = runner.run(k)
        wall = time.perf_counter() - t0
        after = calibrate.probe(calibrate.PROBE_SHARE * wall)
        factor = calibrate.scale(before, after)
        raw.append(latency)
        latencies.append(factor * latency)
        walls.append(factor * wall)
        before = after
        k += 1
        if k % wl.cycle:
            continue
        elapsed = time.perf_counter() - start
        if k >= count or elapsed >= MAX_MEASURE_S:
            return {"latencies": latencies, "walls": walls, "raw": raw, "section_s": elapsed}


def run_prefix(runner: OpRunner, count: int, tracer=None) -> float:
    """Ops 0..count-1; returns the wall time."""
    start = time.perf_counter()
    for k in range(count):
        if tracer is not None:
            tracer.begin_op(k)
        runner.run(k)
    return time.perf_counter() - start


def probe_setups(args) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes: spawn to the line printed after the warm-up op.

    A fresh process may run on the other vCPU, whose speed this process's
    probes do not follow, so each one runs its own calibration probes, after
    numpy is imported and before the warm-up op, and reports their time and
    mean kernel time.  Returns the scaled and the unscaled set-up times, both
    without the probes.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line.startswith("{"):
            raise RuntimeError(f"set-up probe failed (exit {code})")
        report = json.loads(line)
        raw.append(elapsed - report["probe_s"])
        scaled.append(raw[-1] * calibrate.REF_UNIT_S / report["unit_s"])
    return scaled, raw


def end_to_end(args, runner: OpRunner, own_setup_s: float) -> tuple[dict, dict]:
    m = measure(runner, args.seconds)
    latencies, walls = m["latencies"], m["walls"]
    ops = len(latencies)
    setups, setups_raw = probe_setups(args)
    tail_index = max(0, ops - 1 - TAIL_BEYOND)
    cycle = runner.workload.cycle
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / sum(walls),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * sorted(latencies)[tail_index],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lat_ms = quartiles(1e3 * v for v in latencies)
    lat_ms["by_mix_entry_ms"] = [1e3 * statistics.median(latencies[i::cycle])
                                 for i in range(cycle)]
    lat_ms["unscaled_ms"] = 1e3 * statistics.median(m["raw"])
    detail = {
        "setup_s": {**quartiles(setups), "unscaled_s": statistics.median(setups_raw),
                    "in_process_setup_s": own_setup_s},
        "ops_per_s": {**quartiles(cycle / sum(walls[i:i + cycle])
                                  for i in range(0, ops, cycle)),
                      "note": "quartiles over whole cycles", "ops": ops,
                      "cycles": ops // cycle, "scaled_wall_s": sum(walls),
                      "section_s": m["section_s"]},
        "op_p50_ms": lat_ms,
        "op_tail_ms": {"percentile": 100.0 * (tail_index + 1) / ops, "n": ops,
                       "samples_beyond": ops - 1 - tail_index,
                       "unscaled_ms": 1e3 * sorted(m["raw"])[tail_index]},
        "peak_rss_mb": {"n": 1},
    }
    return values, detail


def traced(args, runner: OpRunner) -> tuple[dict, dict]:
    from tracing import Tracer, installed

    wl = runner.workload
    count = wl.cycle * max(1, round(args.seconds / 2.0 / wl.nominal_cycle_s))
    wall_untraced = run_prefix(runner, count)
    tracer = Tracer()
    with installed(tracer):
        wall_traced = run_prefix(runner, count, tracer)
    values = tracer.metrics(overhead_ratio=wall_untraced / wall_traced)
    spans = OUT_DIR / f"spans-{wl.name}.jsonl.gz"
    tracer.dump(spans)
    detail = {"ops": count, "wall_untraced_s": wall_untraced, "wall_traced_s": wall_traced,
              "spans": len(tracer.spans), "spans_file": str(spans.relative_to(ROOT))}
    return values, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    probes = [calibrate.probe()] if args.setup_probe else []
    if not (SRC / "weylbench" / "__init__.py").is_file():
        sys.stderr.write(f"error: no weylbench sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import weylbench

    if Path(weylbench.__file__).resolve().parent != SRC / "weylbench":
        sys.stderr.write(f"error: imported weylbench from {weylbench.__file__}\n")
        return 2
    from tracing import per_layer_metric_units
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        runner = OpRunner(workload)
        if args.setup_probe:
            probes.append(calibrate.probe())
        runner.run(0)  # warm-up, untimed
        if args.setup_probe:
            times = [t for p in probes for t in p]
            print(json.dumps({"probe_s": sum(times), "unit_s": statistics.fmean(times)}),
                  flush=True)
            return 0
        own_setup_s = time.perf_counter() - T_START
        if args.trace:
            values, detail = traced(args, runner)
            units = per_layer_metric_units()
        else:
            values, detail = end_to_end(args, runner, own_setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_ratio = runner.failed / runner.attempted
    print(f"weylbench benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} attempted={runner.attempted} failed={runner.failed}")
    for name, (unit, better) in units.items():
        print(f"  {name:<48} {values[name]!r:>24} {unit:<6} ({better} is better)")
    print(f"  {'fail_ratio':<48} {fail_ratio!r:>24} {'ratio':<6} (lower is better)")
    print("DETAIL " + json.dumps({"workload": args.workload, "trace": args.trace,
                                  "fail_ratio": fail_ratio, "metrics": detail,
                                  "provenance": provenance(args.seed)}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
