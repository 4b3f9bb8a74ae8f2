"""Command-line front end for reproducible verification runs.

Exit codes: 0 all asserted checks pass, 1 at least one tolerance assertion
failed, 2 usage or input error.  Identical invocations produce byte-identical
reports (seeded randomness, no timestamps).  Each ``cmd_*`` fills in the report
that ``main`` creates, and ``main`` writes every report.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

import numpy as np

from . import __version__
from .algebra import ricci_contraction
from .bounds import (
    audit_cubic_bounds,
    audit_eigen_bound,
    audit_eigen_equality,
    constants,
    gap_verdict_integral,
    pinch_verdict_dim4,
    pinch_verdict_norm,
    pinch_verdict_pointwise,
    wcubic_ascents,
    wcubic_closed_form,
)
from .chart import GridSpec, curvature_field, grid_file_metric, identity_residual_report, preset_metric
from .dim4 import berger_normal_form, det_identities, split_self_dual
from .models import model_curvature, package_consistency, parse_model_spec, symmetric_space_identity_report
from .report import render
from .serialization import (json_array, json_fields, json_number, operator_dimension,
                            operator_from_dict, read_json_object)
from .suite import run_identity_suite
from .tensors import EPS_ALG, EPS_NF, CurvatureTensor, bianchi_residual, frobenius, inner

DEFAULT_TOLERANCES = {
    "eps_alg": EPS_ALG,
    "eps_nf": EPS_NF,
    "chart_zero": 1e-12,
    "oracle_low": 1e-4,
    "oracle_high": 1e-9,
}


def _base_report(args: argparse.Namespace, tols: dict) -> dict:
    return {
        "command": args.command,
        "config": {
            "seed": getattr(args, "seed", None),
            "trials": getattr(args, "trials", None),
            "format": args.format,
            "tolerances": dict(sorted(tols.items())),
            "versions": {"weylbench": __version__, "numpy": np.__version__},
        },
        "results": {},
        "failures": [],
    }


def _finish(report: dict, args: argparse.Namespace) -> int:
    report["passed"] = not report["failures"]
    text = render(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else 1


def _parse_tols(names: tuple, pairs: list[str] | None) -> dict:
    tols = {name: DEFAULT_TOLERANCES[name] for name in names}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"bad tolerance override {pair!r}, expected name=value")
        name, value = pair.split("=", 1)
        if name not in tols:
            raise ValueError(f"unknown tolerance {name!r}, expected one of {', '.join(tols)}")
        tols[name] = float(value)
        if not 0.0 <= tols[name] < np.inf:  # NaN fails too
            raise ValueError(f"tolerance {name} must be finite and >= 0, got {value}")
    return tols


def _check(report: dict, name: str, value: float, bound: float) -> None:
    report["results"][name] = value
    if not (abs(value) <= bound):
        report["failures"].append(name)


def cmd_identities(args, tols, report) -> None:
    suite = run_identity_suite(dimensions=tuple(args.n or (4, 5, 6, 7, 8)), trials=args.trials,
                               seed=args.seed, tolerance=tols["eps_alg"], workers=args.workers)
    report["results"]["residuals"] = dict(sorted(suite.residuals.items()))
    report["results"]["reported_stats"] = dict(sorted(suite.stats.items()))
    report["failures"] = sorted(suite.failures())


def cmd_model(args, tols, report) -> None:
    spec = parse_model_spec(args.spec)
    pkg = model_curvature(spec)
    report["results"]["n"] = pkg.R.n
    report["results"]["scalar"] = pkg.S
    tol = tols["eps_alg"]
    # the trace norm of Rc: |S| if its eigenvalues share a sign, nonzero where S cancels
    scale = max(1.0, float(np.abs(np.linalg.eigvalsh(pkg.Rc)).sum()))
    for name, value in package_consistency(pkg).items():  # pythagoras is quadratic in R
        _check(report, f"consistency.{name}", value,
               tol * scale ** (2 if name == "pythagoras" else 1))
    if pkg.R.n >= 4:
        for name, value in symmetric_space_identity_report(pkg).items():
            if name in ("r1", "r2"):
                _check(report, name, value, tol * scale ** 3)
            else:
                report["results"][name] = value


@contextlib.contextmanager
def _labelled(what: str):
    """Prefix the ValueErrors raised inside with ``what``, the input's label."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def cmd_dim4(args, tols, report) -> None:
    what, tol = f"dim4 input {args.input}", tols["eps_alg"]
    data = read_json_object(args.input, what)
    with _labelled(what):
        n = operator_dimension(data)
    if n != 4:  # refused before an operator of that n is built
        raise ValueError(f"dim4 subcommand needs an n=4 operator, got n={n}")
    with _labelled(what):
        op = operator_from_dict(data, tol=tol)
    scale = max(1.0, float(np.abs(op.mat).max()))
    _check(report, "trace_free_residual", float(np.abs(ricci_contraction(op)).max()),
           tol * scale * 100)
    _check(report, "bianchi_residual", bianchi_residual(op), tol * scale * 100)
    if report["failures"]:
        return
    try:  # the guards' bound is tol itself, tighter than the rows' 100 tol
        W = CurvatureTensor(4, op.mat, tol=100 * tol)
        split, nf = split_self_dual(W, tol), berger_normal_form(W, tol)
        det = det_identities(split.wplus, tol)
    except ValueError as exc:
        report["results"]["guard_refusal"] = str(exc)
        report["failures"].append("guard_refusal")
        return
    report["results"]["wplus_eigenvalues"] = sorted(np.linalg.eigvalsh(split.wplus).tolist())
    report["results"]["wminus_eigenvalues"] = sorted(np.linalg.eigvalsh(split.wminus).tolist())
    report["results"]["normal_form"] = {"a": nf.a.tolist(), "b": nf.b.tolist(),
                                        "residual": nf.residual}
    _check(report, "normal_form_residual", nf.residual, tols["eps_nf"] * scale)
    _check(report, "cube_dot_vs_3det", det.cube_dot - 3 * det.det, 100 * tol * scale ** 3)
    _check(report, "cube_sharp_vs_6det", det.cube_sharp - 6 * det.det, 100 * tol * scale ** 3)
    wp_norm = float(np.sqrt(frobenius(split.wplus, split.wplus)))
    _check(report, "det_sharp_bound", max(0.0, 18 * det.det - np.sqrt(6) * wp_norm ** 3),
           tol * scale ** 3)
    if args.scalar is not None:
        omega = float(np.linalg.eigvalsh(split.wplus).max())
        report["results"]["pinch"] = pinch_verdict_dim4(omega, args.scalar).as_dict()


def cmd_bounds(args, tols, report) -> None:
    audits = [audit_cubic_bounds(n, args.trials, seed=args.seed) for n in (5, 6, 7, 8)]
    keys = {"berger": "component", "cubic_eig": "eig", "cubic_norm": "norm"}
    worst = {name: float(np.max([a[key] for a in audits]))  # np.max keeps a NaN
             for name, key in keys.items()}
    worst["eigen"] = audit_eigen_bound(args.trials, seed=args.seed)
    for name, value in worst.items():
        _check(report, f"audit.{name}_excess", max(value, 0.0), tols["eps_alg"] * 100)
    _check(report, "audit.eigen_equality_deviation",  # m = 2, where the bound is attained
           audit_eigen_equality(args.trials, args.seed), tols["eps_alg"] * 100)
    oracle_results = {}
    # one lockstep of the cap-1 ascents; a value at cap s is s times the cap-1 value, bit for bit
    for n, unit in zip(range(2, 9), wcubic_ascents(range(2, 9), args.budget, args.seed)):
        for s in (0.5, 1.0, 2.0):
            closed, value = wcubic_closed_form(s, n), s * unit.value
            key = f"oracle.n{n}_s{s}"
            oracle_results[key] = {"closed": closed, "oracle": value,
                                   "converged": unit.converged}
            _check(report, f"{key}.excess", max(value - closed, 0.0), tols["oracle_high"])
            _check(report, f"{key}.defect", max(closed - value, 0.0), tols["oracle_low"])
    report["results"]["oracle"] = oracle_results


def cmd_constants(args, tols, report) -> None:
    tab = constants(args.n)
    report["results"]["constants"] = {k: v for k, v in tab.as_dict().items() if v is not None}
    if tab.alpha is not None and args.n >= 6:
        from .bounds import quadratic_coefficients
        A, B, C = quadratic_coefficients(args.n)
        a2, a1 = A * tab.alpha ** 2, B * tab.alpha  # relative to the largest term of the sum
        resid = (a2 + a1 + C) / max(1.0, abs(a2), abs(a1), abs(C))
        _check(report, "quadratic_residual", resid, tols["eps_alg"])
        lower = (args.n - 3) / (2.0 * (args.n - 1))
        _check(report, "alpha_above_lower_bound", max(0.0, lower - tab.alpha), tols["eps_alg"])


def cmd_pinch(args, tols, report) -> None:
    if args.kind == "dim4":
        if args.omega is None or args.scalar is None:
            raise ValueError("dim4 pinch needs --omega and --S")
        verdict = pinch_verdict_dim4(args.omega, args.scalar)
    else:
        if not args.input:
            raise ValueError("pointwise/norm pinch needs --input JSON with W, E, S")
        what = f"pinch input {args.input}"
        w, E, S = json_fields(read_json_object(args.input, what), ("W", "E", "S"), what)
        with _labelled(what):  # E and S read, W's n against E's size before W is built,
            E, S = json_array(E, float, "pinch E"), json_number(S, float, "pinch S")
            if E.shape[-1:] != (operator_dimension(w),):  # W's checks, the verdict's on E
                raise ValueError("dimension mismatch")
            W = CurvatureTensor.from_operator(operator_from_dict(w, tol=EPS_ALG))
            verdict = (pinch_verdict_pointwise if args.kind == "pointwise"
                       else pinch_verdict_norm)(W, E, S)
    report["results"]["verdict"] = verdict.as_dict()


def cmd_gap(args, tols, report) -> None:
    verdict = gap_verdict_integral(args.norm_w, args.norm_e, args.yamabe, args.n)
    report["results"]["verdict"] = verdict.as_dict()


def cmd_chart(args, tols, report) -> None:
    if args.target.endswith(".json"):
        metric = grid_file_metric(args.target)
    else:
        metric = preset_metric(args.target)
    base = metric.default_grid or GridSpec(center=0.1 * (1.0 + np.arange(metric.n)) / metric.n)
    center = np.array([float(c) for c in args.center.split(",")]) if args.center else base.center
    grid = GridSpec(center=center, h=base.h if args.step is None else args.step,
                    order=base.order if args.order is None else args.order)
    field = curvature_field(metric, grid, with_ricci_identity=args.ricci_identity)
    residuals = identity_residual_report(field)
    report["results"]["n"] = metric.n
    report["results"]["harmonic_weyl"] = metric.harmonic_weyl
    report["results"]["scalar"] = field.S
    report["results"]["weyl_norm_sq"] = inner(field.decomposition.weyl, field.decomposition.weyl)
    report["results"]["residuals"] = {k: float(v) for k, v in sorted(residuals.items())}
    if metric.name.startswith("euclidean"):
        for key, value in residuals.items():
            if "margin" not in key:
                _check(report, f"zero.{key}", value, tols["chart_zero"])
    if residuals.get("kato_classical_margin", 0.0) < -100 * tols["eps_alg"]:
        report["failures"].append("kato_classical_margin")
    if args.halving:
        grid2 = GridSpec(center=center, h=grid.h / 2.0, order=grid.order)
        field2 = curvature_field(metric, grid2, with_ricci_identity=False)
        residuals2 = identity_residual_report(field2)
        ratios, expect = {}, 2.0 ** grid.order  # an O(h^order) residual halves by 2^order
        floor = 1e-10  # round-off floor of the nested stencils; no truncation signal below
        for key in ("second_bianchi_r", "bianchi_map_w", "delta_w_pq"):
            hi, lo = residuals.get(key, 0.0), residuals2.get(key, 0.0)
            if hi <= floor and lo <= floor:
                continue  # converged past discretization on this preset
            ratios[key] = hi / lo if lo > 0 else float("inf")
            if not (7 / 8 * expect <= ratios[key] <= 9 / 8 * expect):
                report["failures"].append(f"halving.{key}")
        report["results"]["halving_ratios"] = {k: float(v) for k, v in sorted(ratios.items())}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The weylbench parser, built on the first call and shared by every later one.

    Parsing reads the parser and never changes it (each call gets a fresh
    namespace, and ``append`` options copy their default), so repeated
    ``main`` calls in one process behave as separate runs.
    """
    parser = argparse.ArgumentParser(
        prog="weylbench",
        description="Verification workbench for curvature-operator algebra and "
                    "harmonic-Weyl rigidity machinery.")
    parser.add_argument("--version", action="version", version=f"weylbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, tols, summary):  # tols: the names its func reads
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, tol_names=tols)
        return p

    p = command("identities", cmd_identities, ("eps_alg",),
                "randomized curvature-algebra identity suite")
    p.add_argument("--n", action="append", type=int, help="dimension (repeatable), default 4..8")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = command("model", cmd_model, ("eps_alg",), "homogeneous model-space package and residuals")
    p.add_argument("spec", help='e.g. "sphere:4:1.0" or "product:sphere:2:1.0,sphere:2:1.0"')

    p = command("dim4", cmd_dim4, ("eps_alg", "eps_nf"),
                "self-dual split, normal form, determinant identities")
    p.add_argument("input", help="operator JSON file (n = 4)")
    p.add_argument("--S", dest="scalar", type=float, default=None,
                   help="scalar curvature for the pinch verdict")

    p = command("bounds", cmd_bounds, ("eps_alg", "oracle_low", "oracle_high"),
                "sampling audit of the cubic bounds plus the oracle")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = command("constants", cmd_constants, ("eps_alg",), "dimensional constants table")
    p.add_argument("n", type=int)

    p = command("pinch", cmd_pinch, (), "pointwise pinch verdicts")
    p.add_argument("kind", choices=("pointwise", "norm", "dim4"))
    p.add_argument("--input", help="JSON file with W (operator), E (matrix), S (number)")
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--S", dest="scalar", type=float, default=None)

    p = command("gap", cmd_gap, (), "integral gap verdict from norms and the Yamabe invariant")
    p.add_argument("norm_w", type=float)
    p.add_argument("norm_e", type=float)
    p.add_argument("yamabe", type=float)
    p.add_argument("n", type=int)

    p = command("chart", cmd_chart, ("eps_alg", "chart_zero"),
                "finite-difference chart field and identity residuals")
    p.add_argument("target", help="preset name or grid-file path (*.json)")
    p.add_argument("--h", dest="step", type=float, default=None,
                   help="stencil step (default 1e-3, or the grid file's step)")
    p.add_argument("--order", type=int, choices=(2, 4), default=None)
    p.add_argument("--center", help="comma-separated chart coordinates")
    p.add_argument("--halving", action="store_true",
                   help="recompute at h/2 and check that residuals halve by 2^order")
    p.add_argument("--ricci-identity", action="store_true")

    for p in sub.choices.values():  # after each command's own arguments, as --help lists them
        if p.get_default("tol_names"):
            p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                           help="override a named tolerance")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", help="write the report to a file instead of stdout")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        tols = _parse_tols(args.tol_names, getattr(args, "tol", None))
        report = _base_report(args, tols)
        args.func(args, tols, report)
        return _finish(report, args)
    except (ValueError, KeyError, OSError) as exc:  # str() of a KeyError quotes its message
        sys.stderr.write(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}\n")
        return 2
    except AssertionError as exc:
        sys.stderr.write(f"assertion failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
