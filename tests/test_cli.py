"""CLI behavior: subcommands, exit codes, determinism, report formats."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from weylbench import basis, bounds, cli, suite
from weylbench.cli import main
from weylbench.sampling import random_curvature, random_operator, random_weyl
from weylbench.serialization import operator_to_dict


def run_cli(*argv):
    return main(list(argv))


#: the environment of a ``python -m weylbench.cli`` child, with the checkout's src first
#: on PYTHONPATH so that the child also runs from an uninstalled checkout
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))


def test_constants_text(capsys):
    assert run_cli("constants", "6") == 0
    out = capsys.readouterr().out
    assert "results.constants.alpha" in out
    assert "0.6" in out


def test_constants_json(capsys):
    assert run_cli("constants", "5", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["constants"]["c_n"] == pytest.approx(8 / np.sqrt(10))
    assert data["passed"] is True
    assert data["config"]["versions"]["numpy"]


@pytest.mark.parametrize("n", [6, 8, 100, 5000000, 10 ** 8])
def test_constants_quadratic_residual_is_relative_to_its_largest_term(capsys, n):
    """alpha solves A alpha^2 + B alpha + C = 0; the residual is read against the largest of
    the three terms, not against |C| alone, whose terms cancel to about 1e-9 of it at large n."""
    assert run_cli("constants", str(n), "--format", "json") == 0
    resid = json.loads(capsys.readouterr().out)["results"]["quadratic_residual"]
    assert abs(resid) <= 1e-15
    if n in (6, 8):
        assert resid == 0.0


def test_constants_usage_error(capsys):
    assert run_cli("constants", "3") == 2


def test_unknown_subcommand():
    assert run_cli("frobnicate") == 2


def test_unknown_tolerance():
    assert run_cli("constants", "6", "--tol", "nope=1") == 2


@pytest.mark.parametrize("argv, refused", [
    (("gap", "0.1", "0.1", "16.0", "5", "--seed", "3"), "unrecognized arguments: --seed 3"),
    (("chart", "euclidean:4", "--seed", "1"), "unrecognized arguments: --seed 1"),
    (("pinch", "dim4", "--omega", "1", "--S", "4", "--tol", "eps_alg=1e-9"),
     "unrecognized arguments: --tol eps_alg=1e-9"),
    (("identities", "--n", "4", "--trials", "1", "--tol", "eps_nf=1"),
     "unknown tolerance 'eps_nf', expected one of eps_alg"),
    (("bounds", "--trials", "0", "--tol", "chart_zero=1"),
     "unknown tolerance 'chart_zero', expected one of eps_alg, oracle_low, oracle_high"),
], ids=["gap-seed", "chart-seed", "pinch-tol", "identities-eps-nf", "bounds-chart-zero"])
def test_setting_the_command_does_not_read_is_usage_error(capsys, argv, refused):
    """--seed and --tol exist only where the command reads them, and --tol takes only
    the names it reads; anything else is refused, not silently ignored."""
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[-1].endswith(refused)


@pytest.mark.parametrize("argv, seed, tolerances", [
    (("identities", "--n", "4", "--trials", "1", "--seed", "4"), 4, ["eps_alg"]),
    (("model", "sphere:4"), None, ["eps_alg"]),
    (("bounds", "--trials", "0", "--budget", "500"), 0, ["eps_alg", "oracle_high", "oracle_low"]),
    (("constants", "6"), None, ["eps_alg"]),
    (("pinch", "dim4", "--omega", "1", "--S", "4"), None, []),
    (("gap", "0.1", "0.1", "16.0", "5"), None, []),
    (("chart", "euclidean:4"), None, ["chart_zero", "eps_alg"]),
], ids=["identities", "model", "bounds", "constants", "pinch", "gap", "chart"])
def test_config_records_only_the_settings_the_command_reads(capsys, argv, seed, tolerances):
    assert run_cli(*argv, "--format", "json") == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["seed"] == seed and list(config["tolerances"]) == tolerances


def test_zero_tolerance_is_accepted(capsys):
    assert run_cli("constants", "6", "--tol", "eps_alg=0") == 0
    assert capsys.readouterr().err == ""


def test_model_subcommand(capsys):
    assert run_cli("model", "product:sphere:2:1.0,sphere:2:1.0", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["r1"] == pytest.approx(0.0, abs=1e-10)
    assert data["results"]["r2"] == pytest.approx(0.0, abs=1e-10)


def test_model_bad_spec():
    assert run_cli("model", "banana:4") == 2


@pytest.mark.parametrize("radius", [f"1e{k}" for k in range(-45, 46, 5)])
def test_model_verdict_does_not_depend_on_radius_when_scalar_cancels(capsys, radius):
    """S = 0 on this product at every radius; the bounds scale with the trace norm of Rc."""
    spec = f"product:hyperbolic:3:{radius},sphere:3:{radius},euclidean:4"
    assert run_cli("model", spec, "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["scalar"] == 0.0 and data["failures"] == []


def test_identities_empty_suite(capsys):
    assert run_cli("identities", "--n", "4", "--trials", "0", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["results"]["residuals"] == {}


def test_identities_small_run(capsys):
    assert run_cli("identities", "--n", "4", "--trials", "3", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["results"]["residuals"]


def test_gap_subcommand(capsys):
    assert run_cli("gap", "0.1", "0.1", "16.0", "5", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    v = data["results"]["verdict"]
    assert v["which"] == "integral" and v["satisfied"] is True
    assert v["condition_value"] == pytest.approx(0.8 / math.sqrt(10) + 0.2 / math.sqrt(5),
                                                 rel=1e-12)
    assert v["threshold"] == 3.0
    assert run_cli("gap", "0.1", "0.1", "-1.0", "5") == 2


def test_pinch_dim4(capsys):
    assert run_cli("pinch", "dim4", "--omega", "0.6666666666666666", "--S", "4.0",
                   "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["verdict"]["satisfied"] is True
    assert run_cli("pinch", "dim4") == 2  # missing scalars


def test_pinch_pointwise_from_file(tmp_path, capsys):
    rng = np.random.default_rng(3)
    W = random_weyl(rng, 5)
    payload = {"W": operator_to_dict(W), "E": np.zeros((5, 5)).tolist(), "S": 100.0}
    path = tmp_path / "pinch.json"
    path.write_text(json.dumps(payload))
    assert run_cli("pinch", "pointwise", "--input", str(path), "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["verdict"]["which"] == "pointwise"


def test_dim4_subcommand_pass_and_injected_failure(tmp_path, capsys):
    rng = np.random.default_rng(5)
    W = random_weyl(rng, 4)
    good = tmp_path / "weyl.json"
    good.write_text(json.dumps(operator_to_dict(W)))
    assert run_cli("dim4", str(good), "--S", "4.0", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["normal_form"]["residual"] <= 1e-8

    # a single perturbed entry (kept symmetric, so the file still loads)
    corrupted = operator_to_dict(W)
    corrupted["matrix"][0][0] += 1e-3
    bad = tmp_path / "weyl_bad.json"
    bad.write_text(json.dumps(corrupted))
    capsys.readouterr()
    assert run_cli("dim4", str(bad)) == 1


def test_dim4_rejects_wrong_dimension(tmp_path):
    rng = np.random.default_rng(6)
    W = random_weyl(rng, 5)
    path = tmp_path / "w5.json"
    path.write_text(json.dumps(operator_to_dict(W)))
    assert run_cli("dim4", str(path)) == 2


def test_chart_subcommand(capsys):
    assert run_cli("chart", "euclidean:4", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["residuals"]["second_bianchi_r"] == 0.0


def test_chart_halving(capsys):
    assert run_cli("chart", "perturbed:4", "--h", "2e-3", "--halving",
                   "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["halving_ratios"]
    for ratio in data["results"]["halving_ratios"].values():
        assert 3.5 <= ratio <= 4.5
    # floor-dominated residuals on the conformally flat chart are skipped
    capsys.readouterr()
    assert run_cli("chart", "sphere-stereo:4", "--h", "2e-3", "--halving",
                   "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True


def test_chart_halving_fails_below_the_round_off_step(capsys):
    """At h = 1e-5 round-off swamps the O(h^2) error, and every ratio leaves [3.5, 4.5]."""
    assert run_cli("chart", "perturbed:4", "--h", "1e-5", "--halving", "--format", "json") == 1
    data = json.loads(capsys.readouterr().out)
    keys = ("second_bianchi_r", "bianchi_map_w", "delta_w_pq")
    assert data["failures"] == [f"halving.{key}" for key in keys]
    for key in keys:
        assert not 3.5 <= data["results"]["halving_ratios"][key] <= 4.5


@pytest.mark.parametrize("argv", [("perturbed:4", "--h", "4e-2"), ("perturbed:6", "--h", "2e-2"),
                                  ("product-spheres:2:2:1.0:1.0", "--h", "2e-2")],
                         ids=["perturbed4", "perturbed6", "product-spheres"])
def test_chart_order_4_halving_expects_a_ratio_of_16(argv, capsys):
    """Order-4 residuals halve by about 16, inside 2^4 x [7/8, 9/8]; the O(h^2) window
    [3.5, 4.5] refused every one of these."""
    assert run_cli("chart", *argv, "--order", "4", "--halving", "--format", "json") == 0
    ratios = json.loads(capsys.readouterr().out)["results"]["halving_ratios"]
    assert ratios and all(14.0 <= r <= 18.0 for r in ratios.values())


def test_chart_order_4_halving_fails_at_the_round_off_step(capsys):
    """At the default step order-4 residuals sit at round-off (ratios near 0.2): no pass."""
    assert run_cli("chart", "perturbed:4", "--order", "4", "--halving", "--format", "json") == 1
    data = json.loads(capsys.readouterr().out)
    assert data["failures"] and all(key.startswith("halving.") for key in data["failures"])
    assert all(r < 1.0 for r in data["results"]["halving_ratios"].values())


def test_chart_defaults_are_the_grid_spec_defaults(tmp_path):
    outs = [tmp_path / "default.txt", tmp_path / "explicit.txt"]
    assert run_cli("chart", "sphere-stereo:4", "--out", str(outs[0])) == 0
    assert run_cli("chart", "sphere-stereo:4", "--h", "0.001", "--order", "2",
                   "--out", str(outs[1])) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_chart_grid_file_defaults(tmp_path, capsys):
    from weylbench.chart import GridSpec, dump_grid_file, preset_metric
    center = np.array([0.07, -0.12, 0.1, 0.06])
    path = str(tmp_path / "grid.json")
    dump_grid_file(preset_metric("product-spheres:2:2:1.0:1.0"),
                   GridSpec(center=center, h=1e-3), path)
    assert run_cli("chart", path, "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["scalar"] == pytest.approx(4.0, abs=1e-3)


def test_bounds_subcommand(capsys):
    assert run_cli("bounds", "--trials", "5", "--budget", "20000",
                   "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True


def test_bounds_oracle_defect_fails_without_ascent(capsys):
    """The oracle starts only from random points: with no budget its defect rows fail."""
    assert run_cli("bounds", "--trials", "2", "--budget", "0", "--format", "json") == 1
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert failures and all(f.startswith("oracle.") and f.endswith(".defect") for f in failures)
    assert {f"oracle.n{n}_s1.0.defect" for n in range(4, 9)} <= set(failures)


@pytest.mark.parametrize("seed", ["0", "1", "7", "123", "99999"])
def test_bounds_oracle_finds_the_maximiser(capsys, seed):
    assert run_cli("bounds", "--trials", "2", "--budget", "2000", "--seed", seed) == 0


@pytest.mark.parametrize("seed,budget", [(0, 0), (0, 2000), (7, 0), (7, 2000)])
def test_bounds_runs_one_ascent_per_dimension(capsys, monkeypatch, seed, budget):
    """One lockstep call of the cap-1 ascents for n = 2..8 serves the three caps, with the
    rows and failures of a single-dimension ``wcubic_oracle`` per cap."""
    ascents, calls = cli.wcubic_ascents, []

    def counted(dims, budget, seed):
        calls.append(tuple(dims))
        return ascents(dims, budget, seed)

    monkeypatch.setattr(cli, "wcubic_ascents", counted)
    code = run_cli("bounds", "--trials", "0", "--budget", str(budget), "--seed", str(seed),
                   "--format", "json")
    assert calls == [tuple(range(2, 9))]
    oracle = bounds.wcubic_oracle
    data = json.loads(capsys.readouterr().out)
    rows, failures = {}, []
    for n in range(2, 9):
        for s in (0.5, 1.0, 2.0):
            res, closed = oracle(s, n, budget=budget, seed=seed), cli.wcubic_closed_form(s, n)
            key = f"oracle.n{n}_s{s}"
            rows[key] = {"oracle": res.value, "converged": res.converged}
            failures += [f"{key}.{name}" for name, gap, tol in (
                ("excess", res.value - closed, cli.DEFAULT_TOLERANCES["oracle_high"]),
                ("defect", closed - res.value, cli.DEFAULT_TOLERANCES["oracle_low"])) if gap > tol]
    assert {key: {k: row[k] for k in ("oracle", "converged")}
            for key, row in data["results"]["oracle"].items()} == rows
    assert data["failures"] == failures and code == (1 if failures else 0)
    assert bool(failures) == (budget == 0)  # no ascent falls short of the closed form


def test_report_formats(tmp_path):
    out_csv = tmp_path / "r.csv"
    assert run_cli("constants", "6", "--format", "csv", "--out", str(out_csv)) == 0
    text = out_csv.read_text()
    assert text.startswith("name,value")
    assert "results.constants.alpha,0.6" in text


def test_determinism_bit_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["identities", "--n", "4", "--trials", "5", "--seed", "7",
            "--format", "json"]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_identities_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    """So do a chart whose stages take several passes at the default budget (perturbed:5 at
    order 4 with the Ricci identity: 1,181 Christoffel and 201 curvature rows) and the
    bounds audits."""
    budgets = (basis.CHUNK_ENTRIES, 1, 2 ** 40)
    for args in (["identities", "--n", "4", "--n", "6", "--trials", "10"],
                 ["chart", "perturbed:5", "--order", "4", "--ricci-identity"],
                 ["bounds", "--trials", "30", "--budget", "2000"]):
        outputs = []
        for entries in budgets:
            monkeypatch.setattr(basis, "CHUNK_ENTRIES", entries)
            out = tmp_path / f"{entries}.json"
            assert run_cli(*args, "--format", "json", "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0], args


def test_identities_repeated_dimension_runs_once(tmp_path, monkeypatch):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    args = ["identities", "--trials", "3", "--seed", "5", "--format", "json"]
    assert run_cli(*args, "--n", "4", "--out", str(once)) == 0
    run_dimension, calls = suite._run_dimension, []

    def counted(job):
        calls.append(job[0])
        return run_dimension(job)

    monkeypatch.setattr(suite, "_run_dimension", counted)
    assert run_cli(*args, "--n", "4", "--n", "4", "--workers", "2", "--out", str(twice)) == 0
    assert calls == [4]
    assert twice.read_bytes() == once.read_bytes()


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "weylbench.cli", "constants", "6"],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert "alpha" in proc.stdout


def test_gap_non_finite_is_usage_error(capsys):
    assert run_cli("gap", "0.1", "0.1", "nan", "5") == 2
    assert "finite" in capsys.readouterr().err
    assert run_cli("gap", "inf", "0.1", "16.0", "6") == 2


@pytest.mark.parametrize("argv, message", [
    (("constants", str(10 ** 310)), "overflow the float range"),
    (("gap", "0.1", "0.1", "16.0", str(10 ** 310)), "overflow the float range"),
    (("constants", str(10 ** 60)), "overflow the float range"),
    (("pinch", "dim4", "--omega", "1e308", "--S", "1e308"), "dim4_selfdual verdict overflows"),
    (("gap", "1e308", "1e308", "1e-308", "5"), "integral verdict overflows"),
])
def test_overflowing_dimension_or_verdict_is_usage_error(capsys, argv, message):
    """A dimension whose constants, or a verdict whose condition, leave the float range is
    refused with one error line, not a traceback or an infinite (non-JSON) report value."""
    assert run_cli(*argv, "--format", "json") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


def test_bounds_zero_trials_passes(capsys):
    assert run_cli("bounds", "--trials", "0", "--budget", "500", "--format", "json") == 0
    results = json.loads(capsys.readouterr().out)["results"]
    for name in ("berger", "cubic_eig", "cubic_norm", "eigen"):
        assert results[f"audit.{name}_excess"] == 0.0
    assert results["audit.eigen_equality_deviation"] == 0.0


def test_bounds_reports_the_eigen_equality_case_apart(capsys):
    """At m = 2 max|eig| = |T|/sqrt(2) exactly, so round-off alone decides the sign of
    its excess; that case has its own two-sided row and eigen_excess reads m = 3..10."""
    for seed in range(30):
        argv = ["bounds", "--trials", "2", "--budget", "0", "--seed", str(seed)]
        run_cli(*argv, "--format", "json")
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["audit.eigen_excess"] == 0.0, seed
        assert report["results"]["audit.eigen_equality_deviation"] <= 1e-15, seed
        assert not [f for f in report["failures"] if f.startswith("audit.")], seed


@pytest.mark.parametrize("argv, message", [
    (("--trials", "1", "--budget", "-1"), "budget must be >= 0"),
    (("--trials", "-1"), "samples must be >= 0"),
], ids=["negative-budget", "negative-trials"])
def test_bounds_negative_count_is_usage_error(capsys, argv, message):
    assert run_cli("bounds", *argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bounds_nan_sample_fails(monkeypatch, capsys):
    from weylbench import sampling

    original = sampling.random_weyl_batch

    def nan_batch(rng, n, count):
        mats = original(rng, n, count)
        mats[0, 0, 1] = mats[0, 1, 0] = np.nan
        return mats

    monkeypatch.setattr(sampling, "random_weyl_batch", nan_batch)
    assert run_cli("bounds", "--trials", "1", "--budget", "500", "--format", "json") == 1
    data = json.loads(capsys.readouterr().out)
    assert "audit.cubic_eig_excess" in data["failures"]


def _weyl_dict(n, nan_entry=False):
    op = operator_to_dict(random_weyl(np.random.default_rng(11), n))
    if nan_entry:
        op["matrix"][0][-1] = op["matrix"][-1][0] = float("nan")
    return op


def _pinch_payload(n=5, nan_w=False, nan_e=False, S=100.0, e_trace=0.0, traced_w=False,
                   e_size=None):
    E = np.eye(e_size or n) * e_trace / n
    if nan_e:
        E[0, 0] = np.nan
    W = (operator_to_dict(random_curvature(np.random.default_rng(1), n)) if traced_w
         else _weyl_dict(n, nan_entry=nan_w))
    return {"W": W, "E": E.tolist(), "S": S}


_NO_OFFSETS = {"n": 4, "grid": {"center": [0.0] * 4, "h": 1e-3, "order": 2}, "matrices": []}
_ONE_OFFSET = dict(_NO_OFFSETS, offsets=[[0] * 4], matrices=[np.eye(4).tolist()])


@pytest.mark.parametrize("argv, payload, message", [(argv, payload, None) for argv, payload in [
    (("dim4", "{file}"), lambda: _weyl_dict(4, nan_entry=True)),
    (("dim4", "{file}"), lambda: {"n": 4, "components": {"0,1,2,3": float("nan")}}),
    (("pinch", "norm", "--input", "{file}"), lambda: _pinch_payload(nan_w=True)),
    (("pinch", "norm", "--input", "{file}"), lambda: _pinch_payload(nan_e=True)),
    (("pinch", "pointwise", "--input", "{file}"), lambda: _pinch_payload(S=float("nan"))),
    (("pinch", "norm", "--input", "{file}"), lambda: _pinch_payload(e_trace=0.5)),
    (("pinch", "pointwise", "--input", "{file}"), lambda: _pinch_payload(e_trace=0.5)),
    (("pinch", "norm", "--input", "{file}"), lambda: _pinch_payload(traced_w=True)),
    (("pinch", "norm", "--input", "{file}"), lambda: _pinch_payload(e_size=3)),
    (("model", "sphere:4:0"), None),
    (("model", "sphere:4:-1"), None),
    (("chart", "euclidean:4", "--h", "nan"), None),
    (("chart", "perturbed:4", "--h", "1e-300"), None),
    (("model", "euclidean"), None),
    (("model", "fubini-study"), None),
    (("model", "euclidean:4:abc"), None),
    (("model", "fubini-study:3:xyz"), None),
    (("dim4", "{file}"), lambda: ["matrix"]),
    (("dim4", "{file}"), lambda: {"n": 4, "components": [1, 2]}),
    (("pinch", "pointwise", "--input", "{file}"), lambda: [1, 2]),
    (("pinch", "pointwise", "--input", "{file}"), lambda: "str"),
    (("pinch", "norm", "--input", "{file}"), lambda: {"W": ["components"], "E": [[0]], "S": 1}),
] + [(("model", "sphere:4", "--tol", f"eps_alg={v}"), None)
     for v in ("nan", "inf", "-inf", "-1", "1e400")]] + [
    (("pinch", "norm", "--input", "{file}"), lambda: {"E": [[0]], "S": 1},
     "pinch input {file} is missing the field 'W'"),
    (("pinch", "pointwise", "--input", "{file}"), lambda: {"W": _weyl_dict(5), "E": [[0]]},
     "pinch input {file} is missing the field 'S'"),
    (("dim4", "{file}"), lambda: {"matrix": [[0]]},
     "dim4 input {file}: operator is missing the field 'n'"),
    (("dim4", "{file}"), lambda: {"components": {}},
     "dim4 input {file}: operator is missing the field 'n'"),
    (("pinch", "norm", "--input", "{file}"), lambda: {"W": {"matrix": [[0]]}, "E": [[0]], "S": 1},
     "pinch input {file}: operator is missing the field 'n'"),
    (("pinch", "pointwise", "--input", "{file}"),
     lambda: dict(_pinch_payload(), W=operator_to_dict(random_operator(np.random.default_rng(0), 5))),
     "pinch input {file}: first Bianchi identity violated beyond tolerance"),
    (("pinch", "norm", "--input", "{file}"),
     lambda: dict(_pinch_payload(), E=np.diag([1.0, 0.0, 0.0, 0.0, 0.0]).tolist()),
     "pinch input {file}: E must be traceless"),
    (("pinch", "pointwise", "--input", "{file}"), lambda: _pinch_payload(e_size=4),
     "pinch input {file}: dimension mismatch"),
    (("pinch", "pointwise", "--input", "{file}"),
     lambda: dict(_pinch_payload(), E=np.zeros((2, 5, 5)).tolist()),
     "pinch input {file}: E must be square, got shape (2, 5, 5)"),
    (("chart", "{file}"), lambda: _NO_OFFSETS, "grid file {file} is missing the field 'offsets'"),
    (("chart", "{file}"), lambda: dict(_NO_OFFSETS, offsets=[], grid={"center": [0.0] * 4}),
     "grid file {file} grid is missing the field 'h'"),
    (("chart", "{file}"), lambda: dict(_NO_OFFSETS, offsets=[[0, 0, 0, 0]]),
     "grid file {file} has 1 offsets and 0 matrices"),
    # a declared n is refused before anything is sized by it (an n = 1000 operator is 1.8 TiB)
    (("dim4", "{file}"), lambda: {"n": 1000, "components": {}},
     "dim4 subcommand needs an n=4 operator, got n=1000"),
    (("pinch", "pointwise", "--input", "{file}"),
     lambda: dict(_pinch_payload(), W={"n": 1000, "components": {}}),
     "pinch input {file}: dimension mismatch"),
    # an n whose pair matrix passes basis.MAX_PAIR_MATRIX_BYTES is refused where it is read
    (("model", "sphere:2000"), None, "model 'sphere:2000': dimension n = 2000 needs 1999000 x "
     "1999000 pair matrices of 31968008000000 bytes, beyond the 131072-byte budget"),
    (("model", "fubini-study:9"), None, "model 'fubini-study:9': dimension n = 18 needs 153 x "
     "153 pair matrices of 187272 bytes, beyond the 131072-byte budget"),
    (("model", "product:sphere:9:1.0,sphere:8:1.0"), None, None),
    (("pinch", "pointwise", "--input", "{file}"),
     lambda: dict(_pinch_payload(), W={"n": 1000, "components": {}},
                  E=np.zeros((1000, 1000)).tolist()),
     "pinch input {file}: operator: dimension n = 1000 needs 499500 x 499500 pair matrices of "
     "1996002000000 bytes, beyond the 131072-byte budget"),
    (("identities", "--n", "4", "--n", "17", "--trials", "1"), None,
     "identity suite: dimension n = 17 needs 136 x 136 pair matrices of 147968 bytes, "
     "beyond the 131072-byte budget"),
    (("chart", "perturbed:17"), None, None),
    (("chart", "product-spheres:9:8"), None, None),
    (("chart", "{file}"), lambda: dict(_NO_OFFSETS, n=17), None),
] + [(("chart", "{file}"), lambda tag=tag: dict(_ONE_OFFSET, harmonic_weyl=tag),
      f"grid file {{file}} harmonic_weyl must be true or false, got {json.dumps(tag)}")
     for tag in ("false", 1, None)],
    ids=["dim4-dense-nan", "dim4-sparse-nan", "pinch-norm-nan-W", "pinch-norm-nan-E",
         "pinch-pointwise-nan-S", "pinch-norm-traced-E", "pinch-pointwise-traced-E",
         "pinch-norm-traced-W", "pinch-norm-mis-sized-E",
         "model-zero-radius", "model-negative-radius", "chart-nan-step",
         "chart-collapsed-step", "model-euclidean-no-dim", "model-fubini-study-no-dim",
         "model-euclidean-bad-radius", "model-fubini-study-extra-field", "dim4-list",
         "dim4-sparse-list-components", "pinch-pointwise-list", "pinch-pointwise-string",
         "pinch-norm-list-W", "tol-nan", "tol-inf", "tol-minus-inf", "tol-negative",
         "tol-overflow", "pinch-missing-W", "pinch-missing-S", "dim4-dense-missing-n",
         "dim4-sparse-missing-n", "pinch-operator-missing-n", "pinch-W-not-bianchi",
         "pinch-E-traced", "pinch-E-mis-sized", "pinch-E-stacked", "grid-missing-offsets",
         "grid-missing-h", "grid-length-mismatch", "dim4-huge-n", "pinch-huge-n-W",
         "model-huge-n", "model-fubini-study-past-budget", "model-product-past-budget",
         "pinch-huge-n-W-and-E", "identities-past-budget", "chart-preset-past-budget",
         "chart-product-past-budget", "grid-past-budget", "grid-tag-string", "grid-tag-number",
         "grid-tag-null"])
def test_invalid_or_non_finite_input_is_usage_error(tmp_path, capsys, argv, payload, message):
    path = tmp_path / "input.json"
    if payload is not None:
        path.write_text(json.dumps(payload()))
    assert run_cli(*(arg.format(file=path) for arg in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if message is not None:  # a missing field is named, with the file where it is known
        assert err == f"error: {message.format(file=path)}\n"


@pytest.mark.parametrize("argv, payload, message", [
    (("chart", "perturbed:4:x"), None, "chart preset 'perturbed:4:x' amplitude must be a "
     "number, got 'x'"),
    (("chart", "sphere-stereo:4:abc"), None, "chart preset 'sphere-stereo:4:abc' radius must be "
     "a number, got 'abc'"),
    (("model", "sphere:4:abc"), None, "sphere radius must be a number, got 'abc'"),
    (("model", "product:sphere:2:1.0,sphere:2:r"), None, "sphere radius must be a number, "
     "got 'r'"),
    (("dim4", "{file}"), {"n": 4, "components": {"0,1,x,3": 1.0}},
     "dim4 input {file}: component key '0,1,x,3' index must be an integer, got 'x'"),
    (("dim4", "{file}"), {"n": 4, "components": {"0,1,2.0,3": 1.0}},
     "dim4 input {file}: component key '0,1,2.0,3' index must be an integer, got '2.0'"),
    (("dim4", "{file}"), {"n": 4, "components": {"0,1,-1,3": 1.0}},
     "dim4 input {file}: component key '0,1,-1,3' index must be >= 0"),
], ids=["chart-amplitude", "chart-radius", "model-radius", "model-product-radius",
        "dim4-key-text", "dim4-key-float", "dim4-key-negative"])
def test_spec_and_key_fields_are_refused_by_name(tmp_path, capsys, argv, payload, message):
    """A spec-string number field or a sparse-key index field that does not parse is named
    in a usage error, not reported as a bare float() or int() failure."""
    path = tmp_path / "input.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    assert run_cli(*(arg.format(file=path) for arg in argv)) == 2
    assert capsys.readouterr().err == f"error: {message.format(file=path)}\n"


def test_infinite_symmetric_pair_prints_only_the_error(tmp_path):
    mat = np.eye(6)
    mat[0, 5] = mat[5, 0] = np.inf
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({"n": 4, "basis": "lex-pairs", "matrix": mat.tolist()}))
    proc = subprocess.run([sys.executable, "-m", "weylbench.cli", "dim4", str(path)],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def _grid_file(tmp_path, edit):
    """A product-spheres grid file, edited before it is written back."""
    from weylbench.chart import GridSpec, dump_grid_file, preset_metric
    path = tmp_path / "grid.json"
    dump_grid_file(preset_metric("product-spheres:2:2:1.0:1.0"),
                   GridSpec(center=np.array([0.07, -0.12, 0.1, 0.06]), h=1e-3), str(path))
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


def _nan_outer_point(data):
    # the last offset in sorted order is on the outer edge of the stencil
    data["matrices"][-1][1][2] = data["matrices"][-1][2][1] = float("nan")


def _asymmetric(data):
    data["matrices"][-1][0][1] += 0.5


def _repeated_offset(data):
    data["offsets"][1] = data["offsets"][0]


def _float_offset(data):
    data["offsets"][0] = [float(c) for c in data["offsets"][0]]


def _short_offset(data):
    data["offsets"][0] = data["offsets"][0][:3]


def _missing_matrix(data):
    data["matrices"].pop()


def _wrong_size_matrix(data):
    data["matrices"][0] = np.eye(3).tolist()


@pytest.mark.parametrize("edit", [_nan_outer_point, _asymmetric, _repeated_offset,
                                  _float_offset, _short_offset, _missing_matrix,
                                  _wrong_size_matrix],
                         ids=lambda f: f.__name__.strip("_"))
def test_bad_grid_file_is_usage_error(tmp_path, capsys, edit):
    assert run_cli("chart", str(_grid_file(tmp_path, edit)), "--format", "json") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def _set(*path_and_value):
    """An edit putting value at data[k1][k2]..., e.g. _set("grid", "h", None)."""
    *keys, value = path_and_value

    def edit(data):
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    kind = {type(None): "null", bool: "bool", str: "string", float: "float",
            dict: "object", list: "list"}[type(value)]
    edit.__name__ = ".".join(map(str, keys)) + "-" + kind
    return edit


@pytest.mark.parametrize("edit", [
    _set("n", None), _set("n", "4"), _set("n", True),
    _set("grid", "h", None), _set("grid", "h", "1e-3"),
    _set("grid", "order", None), _set("grid", "order", 2.5),
    _set("grid", "center", 0, None), _set("grid", "center", 0, {"x": 0.07}),
    _set("grid", "center", [0.07, -0.12, 0.1]),
    _set("offsets", None), _set("matrices", 0, {"g": 1.0}),
], ids=lambda f: f.__name__)
def test_non_number_grid_field_is_usage_error(tmp_path, capsys, edit):
    """A null or other non-number where the grid file needs a number exits 2 with one
    error line, not a traceback."""
    assert run_cli("chart", str(_grid_file(tmp_path, edit)), "--format", "json") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: grid file ")


@pytest.mark.parametrize("tag", [True, False, None], ids=["true", "false", "absent"])
def test_grid_file_harmonic_weyl_tag_is_read_as_given(tmp_path, capsys, tag):
    """A boolean tag is the metric's and an absent one reads false; only a tagged metric
    gets the harmonic-Weyl rows (a non-boolean tag is a usage error, tested above)."""
    def edit(data):
        if tag is None:
            del data["harmonic_weyl"]
        else:
            data["harmonic_weyl"] = tag
    assert run_cli("chart", str(_grid_file(tmp_path, edit)), "--format", "json") == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["harmonic_weyl"] is bool(tag)
    rows = {"bochner", "kato_improved_margin"}
    assert rows & results["residuals"].keys() == (rows if tag else set())


def _as_sparse(data):
    """The dense operator as sparse components, the first value given as a string."""
    pairs = [f"{i},{j}" for i in range(data["n"]) for j in range(i + 1, data["n"])]
    comps = {f"{p},{q}": v for p, row in zip(pairs, data.pop("matrix")) for q, v in zip(pairs, row)}
    first = next(iter(comps))
    comps[first] = str(comps[first])
    data["components"] = comps


def _e_as_strings(data):
    data["E"] = [[str(v) for v in row] for row in data["E"]]


def _first_entry_as_string(data):
    data["matrices"][0][0][0] = str(data["matrices"][0][0][0])


def _zero_entry_as_false(data):
    assert data["matrices"][0][0][1] == 0.0
    data["matrices"][0][0][1] = False


@pytest.mark.parametrize("kind, edit", [
    ("dim4", _set("n", 4.5)), ("dim4", _set("n", "4")), ("dim4", _as_sparse),
    ("pinch", _set("S", True)), ("pinch", _set("S", "20")), ("pinch", _e_as_strings),
    ("pinch", _set("W", "n", 5.0)), ("pinch", _set("W", "n", 5.9)),
    ("chart", _first_entry_as_string), ("chart", _zero_entry_as_false),
], ids=["dim4-n-4.5", "dim4-n-string", "dim4-sparse-value-string", "pinch-S-true",
        "pinch-S-string", "pinch-E-strings", "pinch-W.n-5.0", "pinch-W.n-5.9",
        "grid-matrix-string", "grid-matrix-false"])
def test_json_number_of_another_type_is_usage_error(tmp_path, capsys, kind, edit):
    """Strings, booleans and fractional dimensions are refused where the JSON inputs
    need numbers, though each edit keeps the value a conversion would give."""
    if kind == "chart":
        argv = ["chart", str(_grid_file(tmp_path, edit))]
    else:
        data = _weyl_dict(4) if kind == "dim4" else _pinch_payload()
        edit(data)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv = ["dim4", str(path)] if kind == "dim4" else ["pinch", "norm", "--input", str(path)]
    assert run_cli(*argv, "--format", "json") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


#: an integer JSON number beyond the float range
HUGE = 10 ** 400


def _huge_entry(data):
    data["matrix"][0][0] = HUGE


def _huge_component(data):
    data.pop("matrix")
    data["components"] = {"0,1,0,1": HUGE}


def _huge_s(data):
    data["S"] = HUGE


def _huge_e_entry(data):
    data["E"][0][0] = HUGE


def _huge_step(data):
    data["grid"]["h"] = HUGE


@pytest.mark.parametrize("kind, edit, field", [
    ("dim4", _huge_entry, "operator matrix"), ("dim4", _huge_component, "component '0,1,0,1'"),
    ("pinch", _huge_s, "pinch S"), ("pinch", _huge_e_entry, "pinch E"),
    ("chart", _huge_step, "grid file grid.h"),
], ids=lambda x: x.__name__.strip("_") if callable(x) else None)
def test_json_integer_beyond_the_float_range_is_usage_error(tmp_path, capsys, kind, edit, field):
    """An integer too large for a float is refused with one error line naming its field
    and its file, not an OverflowError traceback."""
    if kind == "chart":
        argv = ["chart", str(_grid_file(tmp_path, edit))]
        field = field.replace("grid file", f"grid file {argv[1]}")
    else:
        data = _weyl_dict(4) if kind == "dim4" else _pinch_payload()
        edit(data)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv = (["dim4", str(path)] if kind == "dim4"
                else ["pinch", "pointwise", "--input", str(path)])
        field = f"{kind} input {path}: {field}"  # an input's errors name its file
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {field} ") and "float range" in captured.err


@pytest.mark.parametrize("spec", ["sphere:4:1e-200", "hyperbolic:4:1e200", "sphere:4:inf",
                                  "hyperbolic:4:nan", "product:sphere:2:1.0,hyperbolic:2:1e200"])
def test_radius_without_a_finite_curvature_is_usage_error(capsys, spec):
    """A radius whose 1/radius^2 is zero, infinite or not a number exits 2 with one error line."""
    assert run_cli("model", spec) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: radius ")


@pytest.mark.parametrize("spec", ["sphere:4:1e-60", "sphere:4:1e-77", "sphere:4:1e-100",
                                  "sphere:4:1.1e-154"])
def test_curvature_too_large_to_cube_is_usage_error(capsys, spec):
    """A finite curvature whose cubic identities would overflow exits 2 with one error
    line, with no traceback and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("model", spec) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: curvature scale ")


@pytest.mark.parametrize("radius", ["1e-20", "1e-49"])
def test_small_round_sphere_passes_its_consistency_checks(capsys, radius):
    """The pythagoras residual is quadratic in the curvature and its bound scales so."""
    assert run_cli("model", f"sphere:4:{radius}", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] and data["failures"] == []
    assert data["results"]["consistency.pythagoras"] > 1e-10 * abs(data["results"]["scalar"])


@pytest.mark.parametrize("flags", [("--h", "2e-3"), ("--halving",), ("--order", "4"),
                                   ("--center", "0.07,-0.12,0.1,0.05"), ("--ricci-identity",)],
                         ids=["other-step", "halving", "other-order", "other-center",
                              "ricci-identity"])
def test_grid_file_read_on_a_grid_it_does_not_hold_is_usage_error(tmp_path, capsys, flags):
    """An assembly other than the file's needs points the file does not hold: exit 2, one
    error line that names the file's step and order, nothing on stdout."""
    assert run_cli("chart", str(_grid_file(tmp_path, lambda data: None)), *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: grid file has no metric sample")  # not quoted
    assert "step 0.001 and order 2" in captured.err
    assert "serves only the assembly it was written for" in captured.err


def test_grid_file_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    assert run_cli("chart", str(path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_old_format_grid_file_is_refused(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"n": 4, "points": [[0.0] * 4], "matrices": [np.eye(4).tolist()],
                                "grid": {"center": [0.0] * 4, "h": 1e-3, "order": 2}}))
    assert run_cli("chart", str(path)) == 2
    assert "write it again with dump_grid_file" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["sphere-stereo:4:-1", "sphere-stereo:4:inf",
                                    "euclidean:4:7", "product-spheres:2:2:1:0"])
def test_bad_chart_preset_is_usage_error(capsys, preset):
    assert run_cli("chart", preset) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("preset, center", [
    ("perturbed:4", "1e110,0,0,0"), ("perturbed:5", "0,0,0,0,1.7e308"),
    ("sphere-stereo:4", "1e200,0,0,0"), ("product-spheres:2:2", "0,0,0,1e200")])
def test_huge_chart_center_is_usage_error(capsys, preset, center):
    """A center where the preset's metric overflows exits 2 with one error line naming
    it, with no traceback and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("chart", preset, "--center", center) == 2
    captured = capsys.readouterr()
    point = [float(c) for c in center.split(",")]
    assert captured.out == ""
    assert captured.err == f"error: metric not positive definite at {point}\n"


def test_identities_negative_trials_is_usage_error(capsys):
    assert run_cli("identities", "--n", "4", "--trials", "-3") == 2
    assert capsys.readouterr().err == "error: trials must be >= 0\n"


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_identities_nonpositive_workers_is_usage_error(capsys, workers):
    assert run_cli("identities", "--n", "4", "--trials", "2", "--workers", workers) == 2
    assert capsys.readouterr().err == "error: workers must be >= 1\n"


@pytest.mark.parametrize("argv, message", [
    (("identities", "--seed", "-1"), "seed must be >= 0"),
    (("bounds", "--seed", "-1"), "seed must be >= 0"),
    (("model", "sphere:4.5"), "sphere dimension must be an integer, got '4.5'"),
    (("model", "fubini-study:x"), "complex dimension must be an integer, got 'x'"),
    (("chart", "perturbed:4.5"),
     "chart preset 'perturbed:4.5' dimension must be an integer, got '4.5'"),
    (("chart", "product-spheres:-1:5"), "chart preset 'product-spheres:-1:5' dimension must be >= 1"),
    (("chart", "product-spheres:0:4"), "chart preset 'product-spheres:0:4' dimension must be >= 1"),
    (("chart", "perturbed:3"), "chart preset 'perturbed:3': dimension n must be >= 4"),
    (("chart", "perturbed:4:nan"), "amplitude must be finite"),
    (("chart", "perturbed:4", "--h", "nan"), "h must be finite"),
    (("gap", "nan", "0.1", "16", "5"), "norm_w must be finite"),
    (("pinch", "dim4", "--omega", "nan", "--S", "1"), "omega must be finite"),
], ids=["identities-seed", "bounds-seed", "model-dimension", "model-complex-dimension",
        "chart-dimension", "chart-negative-factor", "chart-empty-factor", "chart-below-four",
        "chart-amplitude", "chart-step", "gap-norm", "pinch-omega"])
def test_refused_input_is_named(capsys, argv, message):
    """Each refused number is named on stderr, exit 2: a seed below 0 (once numpy's
    "expected non-negative integer"), a spec field that is no integer, below its floor or
    not finite, and a non-finite CLI number."""
    assert run_cli(*argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_one_dimensional_sphere_factor_runs():
    """S^1 x S^3 is a chart preset: a sphere factor's floor is 1."""
    assert run_cli("chart", "product-spheres:1:3", "--format", "json") == 0


def _dim4_sweep_inputs():
    """Weyl operators with a trace defect eps (g o g) or a Bianchi defect eps vol, at
    eps from 1e-12 to 1e-6: (name, pair matrix)."""
    vol = np.zeros((6, 6))
    vol[0, 5] = vol[5, 0] = vol[2, 3] = vol[3, 2] = 1.0
    vol[1, 4] = vol[4, 1] = -1.0
    for s in range(8):
        W = random_weyl(np.random.default_rng(s), 4)
        for name, defect in (("trace", 2.0 * np.eye(6)), ("bianchi", vol)):
            for k, eps in enumerate(np.geomspace(1e-12, 1e-6, 13)):
                yield f"s{s}-{name}-{k}", W.mat + eps * defect


@pytest.mark.parametrize("tol", [None, "eps_alg=1e-6"])
def test_dim4_guard_refusal_is_a_named_failure(tmp_path, capsys, tol):
    """An operator that parses never exits 2: where a guard of the split, the normal
    form or the determinant identities refuses what the rows passed (the guards' bound
    is eps_alg, the rows' 100 eps_alg), the report names the refusal and exits 1."""
    codes, refused = {}, []
    for name, mat in _dim4_sweep_inputs():
        path, out = tmp_path / "op.json", tmp_path / "out.json"
        path.write_text(json.dumps({"n": 4, "basis": "lex-pairs", "matrix": mat.tolist()}))
        argv = ["dim4", str(path), "--format", "json", "--out", str(out)]
        codes[name] = run_cli(*argv + (["--tol", tol] if tol else []))
        report = json.loads(out.read_text())
        assert report["passed"] == (codes[name] == 0)
        if "guard_refusal" in report["failures"]:
            assert report["failures"] == ["guard_refusal"]
            refused.append(report["results"]["guard_refusal"])
    assert capsys.readouterr().err == ""
    assert set(codes.values()) <= {0, 1}
    if tol is None:
        assert any("trace-free" in r for r in refused) and "block must be traceless" in refused
        assert any("first Bianchi" in r for r in refused)
        assert codes["s0-trace-0"] == 0 and codes["s0-trace-12"] == 1
    else:  # the guards take the looser tolerance too
        assert codes["s0-trace-6"] == 0 and codes["s0-bianchi-6"] == 0


# ------------------------------------------------------ one parser per process

SUBCOMMANDS = ("identities", "model", "dim4", "bounds", "constants", "pinch", "gap", "chart")


def test_parser_is_built_once_per_process(monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        for _ in range(3):
            assert run_cli("constants", "6") == 0
            assert run_cli("gap", "0.1", "0.1", "16.0", "5") == 0
            assert run_cli("frobnicate") == 2
            assert run_cli("--version") == 0
    finally:
        cli.build_parser.cache_clear()  # later tests build an ordinary parser
    assert built == ["weylbench"] + [f"weylbench {name}" for name in SUBCOMMANDS]


@pytest.mark.parametrize("command", [None, *SUBCOMMANDS])
def test_shared_parser_help_matches_a_fresh_parser(capsys, command):
    assert run_cli("frobnicate") == 2
    assert run_cli("constants") == 2
    shared_errors = capsys.readouterr().err
    argv = ([command] if command else []) + ["--help"]
    assert run_cli(*argv) == 0
    shared = capsys.readouterr()
    fresh_parser = cli.build_parser.__wrapped__()
    with pytest.raises(SystemExit) as exc:
        fresh_parser.parse_args(argv)
    assert exc.value.code == 0
    fresh = capsys.readouterr()
    assert shared.out == fresh.out and shared.out.startswith("usage: weylbench")
    assert shared.err == fresh.err == ""
    for bad in (["frobnicate"], ["constants"]):
        with pytest.raises(SystemExit):
            fresh_parser.parse_args(bad)
    assert capsys.readouterr().err == shared_errors


#: sha256 of each --help text at COLUMNS=80, for the root (None) and every subcommand
HELP_SHA256 = {
    None: "70f72437db978813e54ef568a2c17b3da9f74e440250e56508d9d7980b8442e6",
    "identities": "e2538469c8b83cbb868295495d6e5925aebcc80a5bd0fed2052592e37e8ac6d4",
    "model": "78768f16fb79cbff70e183b74fa831a9e9e89832a31c8dc17f59889930aa1b54",
    "dim4": "26d81fa171ffb9f8f10ae33d3f97438be4707a9ad1b124e86acfbce5faa571cc",
    "bounds": "29d719096436d12e121f4fb4907be834dc2d281611b10726f2906ed57d80fe41",
    "constants": "b9d7dc97226ac57beda2e41bff6ae18871482d546e7b39991edf215b98ec91fc",
    "pinch": "5b28072fb6f0c9e9e4d9233dce3c62146fc37158fe0e3718c895536e14cd9937",
    "gap": "658a042a58321067f594438c82f09a58111a5b3a852f4a0e5b41d0695fb91f53",
    "chart": "8ebd6018bf64084a70506836d6c646f601be87c683570b5b692201e2ed3014a5",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the pinned bytes are Python 3.11 argparse's layout")
def test_help_bytes_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    assert list(HELP_SHA256) == [None, *SUBCOMMANDS]
    for command, digest in HELP_SHA256.items():
        assert run_cli(*([command] if command else []), "--help") == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, command


def test_options_do_not_leak_between_calls(capsys):
    def residual_dims(*argv):
        assert run_cli("identities", "--trials", "1", "--format", "json", *argv) == 0
        report = json.loads(capsys.readouterr().out)
        dims = {key.rsplit("_n", 1)[1] for key in report["results"]["residuals"]}
        return report["config"]["tolerances"]["eps_alg"], sorted(dims)

    assert residual_dims("--n", "4", "--tol", "eps_alg=1e-9") == (1e-9, ["4"])
    assert residual_dims() == (cli.DEFAULT_TOLERANCES["eps_alg"], ["4", "5", "6", "7", "8"])
    assert residual_dims("--n", "6") == (cli.DEFAULT_TOLERANCES["eps_alg"], ["6"])


def test_version_exits_zero_on_the_shared_parser(capsys):
    for _ in range(2):
        assert run_cli("--version") == 0
        assert capsys.readouterr().out == f"weylbench {cli.__version__}\n"
