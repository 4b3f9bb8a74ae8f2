"""Dimension-4 subsystem: Hodge split, Berger normal form, determinant identities."""

from itertools import permutations

import numpy as np
import pytest

from weylbench.algebra import decompose, dot_product, sharp_product
from weylbench.dim4 import (
    berger_normal_form,
    det_identities,
    e_circ_g_orthogonality,
    hodge_pm_basis,
    pinched_lemma_check,
    split_self_dual,
)
from weylbench.models import model_curvature, parse_model_spec
from weylbench.sampling import random_curvature, random_traceless_symmetric, random_weyl
from weylbench.tensors import CurvatureTensor

from reference import embed_block

rng = np.random.default_rng(11)


def test_pm_basis_orthonormal():
    P = hodge_pm_basis()
    assert np.allclose(P.T @ P, np.eye(6), atol=1e-15)


def test_split_zero():
    W = CurvatureTensor(4, np.zeros((6, 6)))
    s = split_self_dual(W)
    assert np.abs(s.wplus).max() == 0.0 and np.abs(s.wminus).max() == 0.0


def test_split_product_of_spheres():
    dec = decompose(model_curvature(parse_model_spec(
        "product:sphere:2:1.0,sphere:2:1.0")).R)
    s = split_self_dual(dec.weyl)
    expect = np.sort([2 / 3, -1 / 3, -1 / 3])
    assert np.allclose(np.sort(np.linalg.eigvalsh(s.wplus)), expect, atol=1e-13)
    assert np.allclose(np.sort(np.linalg.eigvalsh(s.wminus)), expect, atol=1e-13)


def test_split_blocks_traceless_and_orthogonal():
    W = random_weyl(rng, 4)
    s = split_self_dual(W)
    assert abs(np.trace(s.wplus)) < 1e-12
    assert abs(np.trace(s.wminus)) < 1e-12
    # cross block vanishes, so the norms split
    M = s.basis.T @ W.mat @ s.basis
    assert np.abs(M[:3, 3:]).max() < 1e-12
    assert np.sum(W.mat ** 2) == pytest.approx(
        np.sum(s.wplus ** 2) + np.sum(s.wminus ** 2), rel=1e-12)


def test_pontryagin_contraction_orients_the_hodge_basis():
    """eps^abcd R_fabe R_ecdf = -2 (|W+|^2 - |W-|^2) with the Frobenius norms of
    split_self_dual's blocks (-8 in full-contraction norms): the first three columns
    of hodge_pm_basis are the self-dual forms of the orientation e0 e1 e2 e3."""
    eps = np.zeros((4,) * 4)
    for perm in permutations(range(4)):
        eps[perm] = np.linalg.det(np.eye(4)[list(perm)])
    for _ in range(5):
        R = random_curvature(rng, 4)
        s = split_self_dual(decompose(R).weyl)
        density = np.einsum('abcd,fabe,ecdf->', eps, R.four(), R.four())
        expect = -2.0 * (np.sum(s.wplus ** 2) - np.sum(s.wminus ** 2))
        assert density == pytest.approx(expect, rel=1e-12, abs=1e-14 * np.sum(R.mat ** 2))


def test_split_requires_dimension_four_traceless():
    with pytest.raises(ValueError):
        split_self_dual(random_weyl(rng, 5))
    with pytest.raises(ValueError):
        split_self_dual(random_curvature(rng, 4))


def test_fubini_study_is_self_dual():
    dec = decompose(model_curvature(parse_model_spec("fubini_study:2")).R)
    s = split_self_dual(dec.weyl)
    norms = sorted([float(np.sum(s.wplus ** 2)), float(np.sum(s.wminus ** 2))])
    assert norms[0] < 1e-20
    assert norms[1] > 1.0


def test_det_identities_scaling_family():
    t = 0.7
    block = np.diag([2 * t, -t, -t])
    det = det_identities(block)
    assert det.det == pytest.approx(2 * t ** 3, rel=1e-12)
    assert det.cube_sharp == pytest.approx(12 * t ** 3, rel=1e-12)
    assert det.cube_dot == pytest.approx(6 * t ** 3, rel=1e-12)


def test_det_identities_zero_and_guards():
    det = det_identities(np.zeros((3, 3)))
    assert det.cube_dot == det.cube_sharp == det.det == 0.0
    with pytest.raises(ValueError):
        det_identities(np.eye(3))  # not traceless


def test_det_identities_random():
    block = random_traceless_symmetric(rng, 3)
    det = det_identities(block)
    assert det.cube_dot == pytest.approx(3 * det.det, rel=1e-11, abs=1e-13)
    assert det.cube_sharp == pytest.approx(6 * det.det, rel=1e-11, abs=1e-13)


def test_sharp_equality_configuration():
    block = np.diag([2.0, -1.0, -1.0])
    det = det_identities(block)
    assert 18 * det.det == pytest.approx(36.0, rel=1e-14)
    norm3 = float(np.sum(block ** 2)) ** 1.5
    assert np.sqrt(6) * norm3 == pytest.approx(36.0, rel=1e-12)


def test_embed_block_is_weyl():
    block = random_traceless_symmetric(rng, 3)
    W = embed_block(block)
    from weylbench.algebra import ricci_contraction
    assert np.abs(ricci_contraction(W)).max() < 1e-12


def test_berger_normal_form_random():
    for _ in range(10):
        W = random_weyl(rng, 4)
        nf = berger_normal_form(W)
        assert nf.residual <= 1e-8
        assert abs(nf.a.sum()) < 1e-10
        assert abs(nf.b.sum()) < 1e-10
        assert np.allclose(nf.frame.T @ nf.frame, np.eye(4), atol=1e-12)
        s = split_self_dual(W)
        lp = np.sort(np.linalg.eigvalsh(s.wplus))[::-1]
        lm = np.sort(np.linalg.eigvalsh(s.wminus))[::-1]
        assert np.allclose(nf.a + nf.b, lp, atol=1e-10)
        assert np.allclose(nf.a - nf.b, lm, atol=1e-10)


def test_berger_normal_form_zero_and_degenerate():
    nf = berger_normal_form(CurvatureTensor(4, np.zeros((6, 6))))
    assert nf.residual < 1e-12
    assert np.abs(nf.a).max() == 0.0 and np.abs(nf.b).max() == 0.0
    dec = decompose(model_curvature(parse_model_spec(
        "product:sphere:2:1.0,sphere:2:1.0")).R)
    nf = berger_normal_form(dec.weyl)
    assert nf.residual < 1e-10


def test_berger_rejects_non_weyl():
    with pytest.raises(ValueError):
        berger_normal_form(random_curvature(rng, 4))


def test_pinched_lemma_borderline():
    # largest eigenvalue exactly at S/6: the threshold reduces to -lambda1/2
    assert pinched_lemma_check(2.0, -1.0, 12.0) is True
    spec = np.array([2.0, -1.0, -1.0])
    assert 12.0 * np.sum(spec ** 2) == pytest.approx(36 * np.prod(spec))


def test_pinched_lemma_root_equality():
    S, lam1 = 12.0, 3.0
    x1 = -lam1 / 2 - lam1 * np.sqrt(3 * (lam1 - 2.0) / (4 * (3 * lam1 + 2.0)))
    assert pinched_lemma_check(lam1, x1, S) is True
    spec = np.array([lam1, -lam1 - x1, x1])
    assert S * np.sum(spec ** 2) - 36 * np.prod(spec) == pytest.approx(0.0, abs=1e-9)
    assert pinched_lemma_check(lam1, x1 + 1e-6, S) is False


def test_pinched_lemma_not_applicable():
    with pytest.raises(ValueError):
        pinched_lemma_check(1.0, -2.0, 12.0)  # lambda1 below S/6


def test_e_circ_g_orthogonality_dim4():
    W = random_weyl(rng, 4)
    E = random_traceless_symmetric(rng, 4)
    value = e_circ_g_orthogonality(W, E)
    assert abs(value) < 1e-10 * max(1.0, float(np.sum(W.mat ** 2)))


def test_e_circ_g_orthogonality_zero_e():
    W = random_weyl(rng, 4)
    assert e_circ_g_orthogonality(W, np.zeros((4, 4))) == pytest.approx(0.0, abs=1e-12)


def test_e_circ_g_generically_nonzero_n5():
    # the same pairing in dimension five: no orthogonality, value reported only
    from weylbench.algebra import kulkarni_nomizu
    W = random_weyl(rng, 5)
    E = random_traceless_symmetric(rng, 5)
    value = float(np.sum(kulkarni_nomizu(E, np.eye(5)).mat * dot_product(W, W).mat))
    assert abs(value) > 1e-6


def test_dim4_sharp_vs_det_for_full_weyl():
    # cubic products of the full n=4 Weyl agree with the blockwise determinants
    W = random_weyl(rng, 4)
    s = split_self_dual(W)
    lhs_sharp = float(np.sum(W.mat * sharp_product(W, W).mat))
    lhs_dot = float(np.sum(W.mat * dot_product(W, W).mat))
    dets = np.linalg.det(s.wplus) + np.linalg.det(s.wminus)
    assert lhs_sharp == pytest.approx(6 * dets, rel=1e-10)
    assert lhs_dot == pytest.approx(3 * dets, rel=1e-10)


def test_split_rejects_nan_operator():
    mat = random_weyl(rng, 4).mat.copy()
    mat[0, 5] = mat[5, 0] = np.nan  # (01, 23): outside every Ricci trace
    with pytest.raises(ValueError):
        CurvatureTensor(4, mat)
    with pytest.raises(ValueError):
        det_identities(np.diag([1.0, np.nan, -1.0]))


@pytest.mark.parametrize("args", [(np.nan, -1.0, 6.0), (2.0, np.nan, 12.0),
                                  (np.inf, -1.0, 6.0), (2.0, -1.0, np.inf)])
def test_pinched_lemma_rejects_non_finite(args):
    with pytest.raises(ValueError, match="finite"):
        pinched_lemma_check(*args)
