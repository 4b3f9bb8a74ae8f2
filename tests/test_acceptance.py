"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here; nothing is deferred to calibration.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from weylbench.algebra import decompose
from weylbench.bounds import (
    audit_cubic_bounds,
    audit_eigen_bound,
    constants,
    pinch_verdict_dim4,
    quadratic_coefficients,
    wcubic_closed_form,
    wcubic_oracle,
)
from weylbench.chart import GridSpec, curvature_field, identity_residual_report, preset_metric
from weylbench.cli import main as cli_main
from weylbench.dim4 import det_identities, e_circ_g_orthogonality, split_self_dual
from weylbench.models import model_curvature, parse_model_spec, symmetric_space_identity_report
from weylbench.sampling import random_traceless_symmetric, random_weyl
from weylbench.serialization import operator_to_dict
from weylbench.suite import run_identity_suite


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {label}: PASS")


@pytest.fixture(scope="module")
def big_suite():
    t0 = time.time()
    rep = run_identity_suite(dimensions=(4, 5, 6, 7, 8), trials=1000, seed=0,
                             tolerance=1e-10, workers=2)
    rep.elapsed = time.time() - t0
    return rep


def test_criterion_01_algebraic_identity_suite(big_suite):
    with criterion(1, "algebraic identity suite (1000 trials, n=4..8, 1e-10)"):
        families = ("selfadjoint", "pythagoras", "rc_quadratic_weyl",
                    "rc_quadratic_contraction", "tri_symmetry", "productw_orth",
                    "productw_diag", "productw_sharp", "productw_reindex",
                    "circ_prime_norm", "bianchi_rc_part", "bianchi_s_part",
                    "bianchi_weyl_part", "weyl_ricci_free")
        for family in families:
            for n in (4, 5, 6, 7, 8):
                key = f"{family}_n{n}"
                assert key in big_suite.residuals, f"missing {key}"
                assert big_suite.residuals[key] <= 1e-10, (key, big_suite.residuals[key])
        assert big_suite.elapsed < 60.0, f"suite took {big_suite.elapsed:.1f}s"


def test_criterion_02_sharp_cubic_identity(big_suite):
    with criterion(2, "cubic sharp/dot identity (n=4,5) and pure-curvature identity"):
        assert big_suite.residuals["sharp_cubic_n4"] <= 1e-9
        assert big_suite.residuals["sharp_cubic_n5"] <= 1e-9
        for n in (4, 5, 6, 7, 8):
            assert big_suite.residuals[f"pure_cubic_identity_n{n}"] <= 1e-10
        # deviation in higher dimension is reported, not asserted
        assert "sharp_cubic_deviation_n6" in big_suite.stats


def test_criterion_03_symmetric_space_degeneration():
    with criterion(3, "symmetric-space residuals r1 = r2 = 0 (1e-10)"):
        specs = ("product:sphere:2:1.0,sphere:2:1.0",
                 "product:sphere:3:1.0,sphere:2:1.0",
                 "product:sphere:3:1.0,sphere:3:1.0",
                 "product:sphere:2:1.0,sphere:2:1.0,sphere:2:1.0",
                 "product:hyperbolic:2:1.0,sphere:2:1.0",
                 "product:hyperbolic:3:1.0,sphere:3:1.0")
        for spec in specs:
            pkg = model_curvature(parse_model_spec(spec))
            rep = symmetric_space_identity_report(pkg)
            scale = max(1.0, abs(pkg.S)) ** 3
            assert abs(rep["r1"]) <= 1e-10 * scale, (spec, rep["r1"])
            assert abs(rep["r2"]) <= 1e-10 * scale, (spec, rep["r2"])


def test_criterion_04_dimension_four():
    with criterion(4, "dimension-4 determinant identities, sharp bound, borderline"):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            W = random_weyl(rng, 4)
            s = split_self_dual(W)
            scale = max(1.0, float(np.abs(s.wplus).max())) ** 3
            det = det_identities(s.wplus)
            assert abs(det.cube_sharp - 6 * det.det) <= 1e-10 * scale
            assert abs(det.cube_dot - 3 * det.det) <= 1e-10 * scale
        # sharp estimate: zero violations over 1e5 samples
        t = rng.uniform(-1.0, 1.0, size=(100_000, 3, 3))
        t = (t + np.transpose(t, (0, 2, 1))) / 2.0
        t -= np.einsum('bii->b', t)[:, None, None] / 3.0 * np.eye(3)
        eigs = np.linalg.eigvalsh(t)
        dets = np.prod(eigs, axis=1)
        norms3 = np.sum(eigs ** 2, axis=1) ** 1.5
        assert np.all(18.0 * dets <= np.sqrt(6.0) * norms3 + 1e-12)
        # equality configuration (2, -1, -1)
        eq = det_identities(np.diag([2.0, -1.0, -1.0]))
        assert abs(18 * eq.det - np.sqrt(6) * 6.0 ** 1.5) <= 1e-12
        # <E o g, W^2> = 0 in dimension 4
        for _ in range(100):
            W = random_weyl(rng, 4)
            E = random_traceless_symmetric(rng, 4)
            val = e_circ_g_orthogonality(W, E)
            assert abs(val) <= 1e-10 * max(1.0, float(np.sum(W.mat ** 2)))
        # borderline product of spheres: 6 omega = S exactly
        dec = decompose(model_curvature(parse_model_spec(
            "product:sphere:2:1.0,sphere:2:1.0")).R)
        sp = split_self_dual(dec.weyl)
        omega = float(np.linalg.eigvalsh(sp.wplus).max())
        assert abs(omega - 2.0 / 3.0) <= 1e-12
        assert abs(6.0 * omega - 4.0) <= 1e-11
        assert pinch_verdict_dim4(omega, 4.0).satisfied


def test_criterion_05_constants():
    with criterion(5, "dimensional constants and large-n asymptotics"):
        assert abs(constants(4).s_n - 1 / 6) <= 1e-15
        for n in (5, 6, 7, 10):
            assert abs(constants(n).s_n - (n - 2) / (4 * (n - 1))) <= 1e-15
        tab6 = constants(6)
        assert abs(tab6.alpha - 0.6) <= 1e-12
        assert abs(tab6.a1 - 6.0) <= 1e-10
        A, B, C = quadratic_coefficients(6)
        assert abs(A * tab6.alpha ** 2 + B * tab6.alpha + C) <= 1e-10 * abs(C)
        tab = constants(10_000)
        assert abs(tab.alpha / 10_000 - 0.25) <= 0.005
        assert abs(tab.a1 / 10_000 - 1.25) <= 0.025
        assert abs(tab.a2 / 10_000 - 0.25) <= 0.005
        assert abs(constants(5).c_n - 8 / np.sqrt(10)) <= 1e-15


def test_criterion_06_constrained_cubic_oracle():
    with criterion(6, "constrained cubic maximization: oracle vs closed form"):
        t0 = time.time()
        for n in range(2, 11):
            for s in (0.5, 1.0, 2.0):
                closed = wcubic_closed_form(s, n)
                res = wcubic_oracle(s, n, budget=100_000, seed=0)
                assert res.value <= closed + 1e-9, (n, s, res.value, closed)
                assert res.value >= closed - 1e-4, (n, s, res.value, closed)
        assert time.time() - t0 < 30.0


def test_criterion_07_bounds_audit():
    with criterion(7, "bounds audit: 1e4 samples per n in 5..8, zero violations"):
        for n in (5, 6, 7, 8):
            worst = audit_cubic_bounds(n, 10_000, seed=0)
            assert worst["component"] <= 1e-10, (n, worst)
            assert worst["eig"] <= 1e-10, (n, worst)
            assert worst["norm"] <= 1e-10, (n, worst)
            if n == 5:
                assert worst["eig_signed"] <= 1e-10
                assert worst["dim5_identity"] <= 1e-10
        assert audit_eigen_bound(10_000, seed=0) <= 1e-10
        # equality family of the trace-free eigenvalue estimate
        for m in range(2, 11):
            T = np.diag([0.5] * (m - 1) + [-(m - 1) * 0.5])
            from weylbench.bounds import eigen_bound
            lam, bound = eigen_bound(T)
            assert abs(lam - bound) <= 1e-12


def test_criterion_08_chart_convergence():
    with criterion(8, "chart convergence: euclidean floor and O(h^2) halving"):
        f = curvature_field(preset_metric("euclidean:4"),
                            GridSpec(center=np.zeros(4), h=1e-3))
        for value in identity_residual_report(f).values():
            assert abs(value) <= 1e-12
        center = np.array([0.12, -0.07, 0.18, 0.05])
        sphere = preset_metric("sphere-stereo:4")
        res = {}
        for h in (2e-3, 1e-3):
            fld = curvature_field(sphere, GridSpec(center=center, h=h))
            rep = identity_residual_report(fld)
            res[h] = {"s_err": abs(fld.S - 12.0),
                      "w_norm": float(np.linalg.norm(fld.decomposition.weyl.mat)),
                      "b_r": rep["second_bianchi_r"],
                      "bianchi_map_w": rep["bianchi_map_w"],
                      "delta_w_pq": rep["delta_w_pq"]}

        def halves(key, floor=1e-10):
            # a genuine O(h^2) signal at these steps is >= ~1e-7; everything below
            # the floor is round-off noise of the nested stencils (eps/h^3 scale)
            hi, lo = res[2e-3][key], res[1e-3][key]
            if hi <= floor and lo <= floor:
                return True  # converged past discretization, stronger than O(h^2)
            return 3.5 <= hi / lo <= 4.5

        assert halves("s_err")
        # the isotropic chart's truncation error is itself conformally flat,
        # so the Weyl part sits at the floor for every h
        assert halves("w_norm")
        assert halves("b_r")
        assert halves("bianchi_map_w")
        assert halves("delta_w_pq")
        # the same halving on charts where the Weyl derivative path is nonzero
        prod_center = np.array([0.07, -0.12, 0.1, 0.06])
        prod = preset_metric("product-spheres:2:2:1.0:1.0")
        pres = {}
        for h in (2e-3, 1e-3):
            fld = curvature_field(prod, GridSpec(center=prod_center, h=h))
            pres[h] = identity_residual_report(fld)
        for key in ("bianchi_map_w", "delta_w_pq"):
            assert 3.5 <= pres[2e-3][key] / pres[1e-3][key] <= 4.5
        # chart spectrum matches the closed-form model to O(h^2)
        model_eigs = np.sort(np.linalg.eigvalsh(decompose(model_curvature(
            parse_model_spec("product:sphere:2:1.0,sphere:2:1.0")).R).weyl.mat))
        errs = []
        for h in (2e-3, 1e-3):
            fld = curvature_field(prod, GridSpec(center=prod_center, h=h))
            eigs = np.sort(np.linalg.eigvalsh(fld.decomposition.weyl.mat))
            errs.append(float(np.abs(eigs - model_eigs).max()))
        assert errs[1] <= 1e-5 and 3.0 <= errs[0] / errs[1] <= 5.0


def test_criterion_09_kato_inequalities():
    with criterion(9, "Kato inequalities on chart presets"):
        center4 = np.array([0.12, -0.07, 0.18, 0.05])
        # classical inequality holds on every preset
        for name, center in (("sphere-stereo:4", center4),
                             ("product-spheres:2:2:1.0:1.0",
                              np.array([0.07, -0.12, 0.1, 0.06])),
                             ("perturbed:4", center4),
                             ("perturbed:5",
                              np.array([0.1, -0.05, 0.08, 0.12, -0.03]))):
            fld = curvature_field(preset_metric(name), GridSpec(center=center, h=1e-3))
            rep = identity_residual_report(fld)
            assert rep["kato_classical_margin"] >= -1e-10
            if preset_metric(name).harmonic_weyl:
                # parallel Weyl: both sides vanish as exact zeros at this order
                assert rep["nabla_w_sq"] <= 1e-10
                assert rep["grad_abs_w_sq"] <= 1e-10
                assert rep["kato_improved_margin"] >= -1e-10


def test_criterion_10_cli_determinism_and_injection(tmp_path):
    with criterion(10, "CLI determinism and failure injection"):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["identities", "--n", "4", "--trials", "25", "--seed", "11",
                "--format", "json"]
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rng = np.random.default_rng(29)
        W = random_weyl(rng, 4)
        good = tmp_path / "weyl.json"
        good.write_text(json.dumps(operator_to_dict(W)))
        assert cli_main(["dim4", str(good), "--out", str(tmp_path / "ok.json")]) == 0
        corrupted = operator_to_dict(W)
        corrupted["matrix"][0][0] += 1e-3
        bad = tmp_path / "weyl_bad.json"
        bad.write_text(json.dumps(corrupted))
        assert cli_main(["dim4", str(bad), "--out", str(tmp_path / "bad.json")]) == 1
