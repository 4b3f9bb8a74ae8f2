"""The four benchmark workloads.

Each workload is a closed loop with one client: op ``k`` is built by
``prepare(k)`` from the workload seed, run, and checked before op ``k + 1``
starts.  Ops cycle through a fixed mix of ``cycle`` entries.  Every call goes
through the public ``weylbench`` module attributes at call time, so the traced
run sees the wrapped functions.

A measured run covers max(min_cycles, ceil(seconds / nominal_cycle_s)) whole
cycles, a count fixed by the run length alone.  ``nominal_cycle_s`` is about
the time of one cycle on the reference host; it also sizes the fixed op prefix
of the traced run.  ``min_cycles`` keeps enough cycles that the op_tail_ms
sample (the value with ten samples beyond it) falls among the mix's slowest
entries.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from weylbench import bounds, chart, cli, suite
from weylbench.sampling import random_traceless_symmetric, random_weyl
from weylbench.serialization import operator_to_dict

from tracing import SUITE_DIMENSIONS

#: residual families the suite records for every dimension
SUITE_FAMILIES = (
    "selfadjoint", "weyl_ricci_free", "weyl_bianchi_free", "pythagoras",
    "rc_quadratic_weyl", "rc_quadratic_contraction", "tri_symmetry",
    "productw_orth", "productw_diag", "productw_sharp", "productw_reindex",
    "circ_prime_norm", "bianchi_rc_part", "bianchi_s_part", "bianchi_weyl_part",
    "sectional_split", "ricci_cubed", "ricci_curvature_form",
    "pure_cubic_identity", "u_norm", "u_cubic",
)


def op_seed(seed: int, k: int) -> int:
    """Seed of op k, derived from the workload seed alone."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _finite_le(values, bound: float) -> bool:
    return all(math.isfinite(v) and v <= bound for v in values)


class IdentitySuite:
    """One op: the randomized identity suite at n = 4..8 with a few trials."""

    name = "identity_suite"
    trials = 2
    cycle = 1
    min_cycles = 20
    nominal_cycle_s = 0.18

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.expected = {f"{fam}_n{n}" for fam in SUITE_FAMILIES for n in SUITE_DIMENSIONS}
        self.expected |= {"sharp_cubic_n4", "sharp_cubic_n5"}

    def prepare(self, k: int):
        s = op_seed(self.seed, k)
        call = lambda: suite.run_identity_suite(dimensions=SUITE_DIMENSIONS,
                                                trials=self.trials, seed=s, workers=1)
        return call, self.check

    def check(self, rep) -> bool:
        # every residual is checked, not rep.passed: a NaN never replaces a
        # recorded maximum, so passed can stay True past a NaN
        return (self.expected <= rep.residuals.keys()
                and _finite_le(rep.residuals.values(), rep.tolerance)
                and all(math.isfinite(v) for v in rep.stats.values()))


class BoundsAudit:
    """One op: the next entry of audits n = 5..8, the eigen audit, and the
    oracle for n = 2..10 and s in {0.5, 1, 2}."""

    name = "bounds_audit"
    samples = 512
    min_cycles = 2
    nominal_cycle_s = 5.0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.mix = ([("audit", n, None) for n in (5, 6, 7, 8)] + [("eigen", None, None)]
                    + [("oracle", n, s) for n in range(2, 11) for s in (0.5, 1.0, 2.0)])
        self.cycle = len(self.mix)

    def prepare(self, k: int):
        kind, n, cap = self.mix[k % self.cycle]
        s = op_seed(self.seed, k)
        if kind == "audit":
            return (lambda: bounds.audit_cubic_bounds(n, self.samples, seed=s),
                    lambda worst: _finite_le(worst.values(), 1e-10))
        if kind == "eigen":
            return (lambda: bounds.audit_eigen_bound(self.samples, seed=s),
                    lambda worst: _finite_le([worst], 1e-10))
        closed = bounds.wcubic_closed_form(cap, n)
        return (lambda: bounds.wcubic_oracle(cap, n, seed=s),
                lambda res: closed - 1e-4 <= res.value <= closed + 1e-9)


class ChartAssembly:
    """One op: curvature_field then identity_residual_report on the next chart
    of the mix, centred at a seeded point with |x| <= 0.2."""

    name = "chart_assembly"
    h = 1e-3
    min_cycles = 4
    nominal_cycle_s = 9.0
    # (preset, order, with_ricci_identity).  The weights put as many ops
    # below the perturbed:4 order-2 entries as above them, so the median op is
    # the middle of their latencies, and keep the op_tail_ms sample inside the
    # perturbed:4 order-4 latencies for 4 to 10 cycles.
    mix = (("sphere-stereo:4", 2, False),
           ("sphere-stereo:4", 2, False),
           ("product-spheres:2:2:1.0:1.0", 2, False),
           ("product-spheres:2:2:1.0:1.0", 2, False),
           ("perturbed:4", 2, False),
           ("perturbed:4", 2, False),
           ("perturbed:5", 2, False),
           ("perturbed:4", 4, False),
           ("perturbed:4", 4, False),
           ("perturbed:5", 2, True))
    cycle = len(mix)

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def prepare(self, k: int):
        name, order, ricci = self.mix[k % self.cycle]
        rng = np.random.default_rng(op_seed(self.seed, k))
        n = int(name.split(":")[1]) + (int(name.split(":")[2])
                                       if name.startswith("product") else 0)
        direction = rng.normal(size=n)
        center = 0.2 * rng.uniform() ** (1.0 / n) * direction / np.linalg.norm(direction)

        def call():
            grid = chart.GridSpec(center=center, h=self.h, order=order)
            field = chart.curvature_field(chart.preset_metric(name), grid,
                                          with_ricci_identity=ricci)
            return chart.identity_residual_report(field)

        return call, self.check

    @staticmethod
    def check(residuals: dict) -> bool:
        return (all(math.isfinite(v) for v in residuals.values())
                and residuals["kato_classical_margin"] >= -1e-10)


class CliReports:
    """One op: one in-process ``weylbench.cli.main(argv + ["--out", file])``
    from a fixed argv mix over every subcommand."""

    name = "cli_reports"
    min_cycles = 6
    nominal_cycle_s = 2.0

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        path = lambda name: os.path.join(workdir, name)
        W = random_weyl(rng, 4)
        with open(path("weyl.json"), "w", encoding="utf-8") as fh:
            json.dump(operator_to_dict(W), fh)
        corrupted = operator_to_dict(W)
        corrupted["matrix"][0][0] += 1e-3
        with open(path("weyl_bad.json"), "w", encoding="utf-8") as fh:
            json.dump(corrupted, fh)
        pinch = {"W": operator_to_dict(random_weyl(rng, 5)),
                 "E": (0.1 * random_traceless_symmetric(rng, 5)).tolist(),
                 "S": float(rng.uniform(5.0, 50.0))}
        with open(path("pinch.json"), "w", encoding="utf-8") as fh:
            json.dump(pinch, fh)
        direction = rng.normal(size=4)
        center = 0.2 * rng.uniform() ** 0.25 * direction / np.linalg.norm(direction)
        chart.dump_grid_file(chart.preset_metric("product-spheres:2:2:1.0:1.0"),
                             chart.GridSpec(center=center, h=1e-3), path("grid.json"))
        seeds = [str(int(s)) for s in rng.integers(0, 2 ** 31, size=2)]
        omega = f"{rng.uniform(0.1, 1.0):.6f}"
        # (argv, expected exit code).  The nine light commands run twice per
        # cycle, so op_p50_ms is the middle of the sixth fastest one's 2c
        # samples over c cycles; with one bounds entry, the op_tail_ms sample
        # of 6 to 10 cycles lies among the chart --halving latencies.
        light = [
            (["model", "product:sphere:2:1.0,sphere:2:1.0"], 0),
            (["model", "fubini-study:3"], 0),
            (["dim4", path("weyl.json"), "--S", "4.0"], 0),
            (["dim4", path("weyl_bad.json")], 1),
            (["constants", "6"], 0),
            (["constants", "8"], 0),
            (["gap", "0.1", "0.1", "16.0", "5"], 0),
            (["pinch", "dim4", "--omega", omega, "--S", "4.0"], 0),
            (["pinch", "pointwise", "--input", path("pinch.json")], 0),
        ]
        heavy = [
            (["identities", "--n", "4", "--n", "6", "--trials", "10", "--seed", seeds[0],
              "--format", "json"], 0),
            (["bounds", "--trials", "2", "--budget", "2000", "--seed", seeds[1]], 0),
            (["chart", "sphere-stereo:4", "--halving"], 0),
            (["chart", path("grid.json")], 0),
        ]
        self.mix = light + light + heavy
        self.cycle = len(self.mix)
        self.first_bytes: dict[int, bytes] = {}

    def prepare(self, k: int):
        i = k % self.cycle
        argv, expected = self.mix[i]
        out = os.path.join(self.workdir, f"out{i}.txt")
        if os.path.exists(out):
            os.remove(out)
        call = lambda: cli.main(argv + ["--out", out])

        def check(code: int) -> bool:
            with open(out, "rb") as fh:
                data = fh.read()
            first = self.first_bytes.setdefault(i, data)
            return code == expected and data == first

        return call, check


WORKLOADS = {cls.name: cls for cls in (IdentitySuite, BoundsAudit, ChartAssembly, CliReports)}

