"""Repeat the benchmark over several seeds and summarise each metric.

    python3 benchmarks/collect.py --workloads identity_suite,cli_reports \
        --seeds 11-20 --seconds 20 [--trace 1] [--update benchmarks/baseline.json]

Runs are sequential, one process at a time.  For every workload and metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json, and the
same for the unscaled medians of the DETAIL line (name.unscaled).  With
--update the summary is stored under the key "baseline" (or "baseline_trace"
for --trace 1) of the given JSON file, with the provenance of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: per-layer metrics shown for --trace 1 (all of them go into --update)
TRACE_SHOWN = ("chart.metric.calls", "chart.metric.distinct_points",
               "bounds.oracle.evaluations", "trace.overhead_ratio")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("DETAIL "):])
    return json.loads(lines[-1]), detail


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="identity_suite,bounds_audit,chart_assembly,cli_reports")
    p.add_argument("--seeds", default="11-20")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update", help="JSON file whose baseline key gets the summary")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary: dict = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        shown = lambda name: args.trace == 0 or name in TRACE_SHOWN
        attempted = failed = 0
        for seed in seeds:
            result, detail = run_once(workload, seed, args.seconds, args.trace)
            summary.setdefault("provenance", detail["provenance"])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            for name, m in detail["metrics"].items():
                for key in ("unscaled_s", "unscaled_ms"):
                    if isinstance(m, dict) and key in m:
                        per_metric.setdefault(f"{name}.unscaled", []).append(m[key])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in per_metric.items() if shown(k)),
                  flush=True)
        stats = {name: summarise(vals) for name, vals in per_metric.items()}
        summary["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                          "metrics": stats}
        for name, s in stats.items():
            if not shown(name):
                continue
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound} ({'ok' if s['spread'] < bound / 3 else 'WIDE'})"
            print(f"  {workload:<15} {name:<12} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{flag}")
    if args.update:
        path = Path(args.update)
        data = json.loads(path.read_text()) if path.exists() else {}
        data["baseline_trace" if args.trace else "baseline"] = summary
        path.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
