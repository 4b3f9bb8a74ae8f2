"""Curvature-algebra operations against brute-force loop oracles.

Every optimized einsum route is checked against a literal loop evaluation of
its defining formula on small dimensions, then the stated identities run on
random inputs.
"""

from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from weylbench import basis, suite
from weylbench.chart import _w_norm_sq_at
from weylbench.algebra import (
    _kn_positions,
    _kn_sum,
    _pair_slots,
    bianchi_project,
    check_trace_free,
    circ_prime,
    circ_prime_full,
    circ_prime_pairs,
    cube_trace,
    cubic_parts,
    curvature_action,
    decompose,
    dot_product,
    kn_four,
    kn_g_pairing,
    kn_matrix,
    kulkarni_nomizu,
    pure_cubic_parts,
    pure_cubics,
    quadratic_form,
    quadratic_forms,
    ricci_contraction,
    second_bianchi,
    second_bianchi_full,
    second_bianchi_pairs,
    sectional_sums,
    sharp_four,
    sharp_matrix,
    sharp_product,
    sharp_slots,
    tri,
    u_contraction,
    u_tensor_contractions,
    weyl_matrix,
    weyl_parts,
    weyl_sectional_split,
    weyl_split,
)
from weylbench.basis import (_pair_generators, bianchi_image, four_tensor_to_pair_matrix,
                             full3_to_pair_form, pair_basis, pair_divergence, pair_form_to_full3,
                             pair_matrix_to_four_tensor, pair_ricci, pair_slots)
from weylbench.bounds import cubic_bound_eval, eigen_bound, eigen_bound_terms, weyl_bound_terms
from weylbench.sampling import (
    curvature_from_uniform,
    pure_from_uniform,
    random_curvature,
    random_curvature_derivative_full,
    random_operator,
    random_symmetric,
    random_traceless_symmetric,
    random_weyl,
    random_weyl_batch,
    two_form_one_form_from_uniform,
    uniform,
)
from weylbench.tensors import (
    CovDerivCurvature,
    CurvatureTensor,
    Operator2Form,
    PureCurvatureMatrix,
    TwoFormOneForm,
    check_traceless,
    frobenius,
    inner,
    norm,
    symmetrized,
)

from reference import (congruence_four, cyclic_average, embed_block, frame_weyl_split,
                       full5_to_triple_pair, pure_matrix_from_weyl, ricci_trace, rotated,
                       three_two_from_full, triple_pair_to_full5)

rng = np.random.default_rng(7)


def generic_two_form_one_form(n):
    """A in Lambda^2 x T* with its 1-3 contraction left in (the sampler removes it)."""
    a = rng.uniform(-1.0, 1.0, size=(n, n, n))
    return TwoFormOneForm.from_full(a - np.swapaxes(a, 0, 1))


# ---------------------------------------------------------------- oracles

def kn_oracle(h, k):
    n = h.shape[0]
    out = np.zeros((n, n, n, n))
    for i, j, a, b in product(range(n), repeat=4):
        out[i, j, a, b] = (h[i, a] * k[j, b] + k[i, a] * h[j, b]
                           - h[i, b] * k[j, a] - k[i, b] * h[j, a])
    return out


def rc_oracle(four):
    n = four.shape[0]
    out = np.zeros((n, n))
    for i, j in product(range(n), repeat=2):
        out[i, j] = sum(four[i, p, j, p] for p in range(n))
    return out


def dot_oracle(A, B):
    n = A.shape[0]
    out = np.zeros((n, n, n, n))
    for i, j, k, l in product(range(n), repeat=4):
        out[i, j, k, l] = 0.5 * sum(A[i, j, p, q] * B[k, l, p, q]
                                    for p, q in product(range(n), repeat=2))
    return out


def sharp_oracle(A, B):
    n = A.shape[0]
    out = np.zeros((n, n, n, n))
    for i, j, k, l in product(range(n), repeat=4):
        out[i, j, k, l] = 0.5 * sum(
            A[i, p, k, q] * B[j, p, l, q] + B[i, p, k, q] * A[j, p, l, q]
            - A[i, p, l, q] * B[j, p, k, q] - B[i, p, l, q] * A[j, p, k, q]
            for p, q in product(range(n), repeat=2))
    return out


def circ_prime_oracle(a):
    n = a.shape[0]
    g = np.eye(n)
    out = np.zeros((n,) * 5)
    for i, j, k, m, nn in product(range(n), repeat=5):
        out[i, j, k, m, nn] = (g[k, nn] * a[i, j, m] + g[i, nn] * a[j, k, m]
                               + g[j, nn] * a[k, i, m] + g[k, m] * a[j, i, nn]
                               + g[i, m] * a[k, j, nn] + g[j, m] * a[i, k, nn])
    return out


def bianchi_map_oracle(four):
    n = four.shape[0]
    out = np.zeros((n, n, n, n))
    for i, j, k, l in product(range(n), repeat=4):
        out[i, j, k, l] = (four[i, j, k, l] + four[j, k, i, l] + four[k, i, j, l]) / 3.0
    return out


# ------------------------------------------------------- Kulkarni-Nomizu

def test_kn_matches_oracle():
    h = random_symmetric(rng, 4)
    k = random_symmetric(rng, 4)
    out = kulkarni_nomizu(h, k)
    assert np.allclose(out.four(), kn_oracle(h, k), atol=1e-13)


def test_kn_commutative_and_bianchi():
    h = random_symmetric(rng, 5)
    k = random_symmetric(rng, 5)
    a = kulkarni_nomizu(h, k)
    b = kulkarni_nomizu(k, h)
    assert np.allclose(a.mat, b.mat, atol=1e-13)


def test_kn_identity_form_n2():
    g = np.eye(2)
    gg = kulkarni_nomizu(g, g)
    assert gg.component(0, 1, 0, 1) == pytest.approx(2.0)


def test_half_gg_is_identity_operator():
    for n in (3, 4, 6):
        g = np.eye(n)
        half = 0.5 * kn_oracle(g, g)
        op = Operator2Form.from_four_tensor(half)
        assert np.allclose(op.mat, np.eye(op.size), atol=1e-14)


def test_kn_dimension_mismatch():
    with pytest.raises(ValueError):
        kulkarni_nomizu(np.eye(3), np.eye(4))
    # the typed product takes one matrix per factor: a stack is for kn_matrix
    with pytest.raises(ValueError, match=r"first factor must be square, got shape \(2, 4, 4\)"):
        kulkarni_nomizu(np.stack([np.eye(4)] * 2), np.eye(4))
    with pytest.raises(ValueError, match=r"second factor must be square, got shape \(2, 4, 4\)"):
        kulkarni_nomizu(np.eye(4), np.stack([np.eye(4)] * 2))


def test_kn_adjoint_is_ricci_contraction():
    n = 5
    g = np.eye(n)
    k = random_symmetric(rng, n)
    R = random_curvature(rng, n)
    lhs = float(np.sum(kulkarni_nomizu(g, k).mat * R.mat))
    rhs = float(np.sum(k * ricci_contraction(R)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ----------------------------------------------------- Ricci contraction

def test_rc_matches_oracle():
    T = random_operator(rng, 4)
    assert np.allclose(ricci_contraction(T), rc_oracle(T.four()), atol=1e-13)


def test_rc_of_identity_operator():
    n = 4
    g = np.eye(n)
    half = kulkarni_nomizu(g, g) * 0.5
    assert np.allclose(ricci_contraction(half), (n - 1) * g, atol=1e-13)


def test_rc_of_weyl_vanishes():
    W = random_weyl(rng, 5)
    assert np.abs(ricci_contraction(W)).max() < 1e-12


def test_rc_quadratic_contraction_formula():
    R = random_curvature(rng, 4)
    quad = Operator2Form(4, dot_product(R, R).mat + sharp_product(R, R).mat,
                         require_self_adjoint=False)
    rhs = np.einsum('ipjq,pq->ij', R.four(), ricci_contraction(R))
    assert np.allclose(ricci_contraction(quad), rhs, atol=1e-12)


# -------------------------------------------------------- Bianchi split

def test_bianchi_project_of_kn_products():
    h = random_symmetric(rng, 4)
    k = random_symmetric(rng, 4)
    kerb, imb = bianchi_project(Operator2Form(4, kulkarni_nomizu(h, k).mat))
    assert norm(imb) < 1e-13


def test_bianchi_map_matches_oracle():
    T = random_operator(rng, 4)
    _, imb = bianchi_project(T)
    assert np.allclose(imb.four(), bianchi_map_oracle(T.four()), atol=1e-13)


def test_bianchi_project_idempotent_orthogonal():
    T = random_operator(rng, 5)
    kerb, imb = bianchi_project(T)
    assert np.allclose(kerb.mat + imb.mat, T.mat, atol=1e-13)
    kerb2, imb2 = bianchi_project(kerb)
    assert norm(imb2) < 1e-12
    assert np.allclose(kerb2.mat, kerb.mat, atol=1e-12)
    assert abs(float(np.sum(kerb.mat * imb.mat))) < 1e-12
    assert norm(T) ** 2 == pytest.approx(norm(kerb) ** 2 + norm(imb) ** 2, rel=1e-12)


def test_fixed_point_of_projection():
    R = random_curvature(rng, 4)
    kerb, imb = bianchi_project(R)
    assert np.allclose(kerb.mat, R.mat, atol=1e-12)
    assert norm(imb) < 1e-12


# --------------------------------------------------------- decomposition

def test_decompose_round_sphere():
    n = 4
    g = np.eye(n)
    R = CurvatureTensor.from_operator(kulkarni_nomizu(g, g) * 0.5)
    dec = decompose(R)
    assert dec.S == pytest.approx(n * (n - 1))
    assert np.abs(dec.E).max() < 1e-13
    assert norm(dec.weyl) < 1e-13


def test_decompose_product_spectrum():
    # two round 2-sphere factors: curvature operator diag(1,0,0,0,0,1)
    mat = np.diag([1.0, 0, 0, 0, 0, 1.0])
    dec = decompose(CurvatureTensor(4, mat))
    assert dec.S == pytest.approx(4.0)
    assert np.abs(dec.E).max() < 1e-13
    eigs = np.sort(np.linalg.eigvalsh(dec.weyl.mat))
    expect = np.sort([2 / 3, 2 / 3, -1 / 3, -1 / 3, -1 / 3, -1 / 3])
    assert np.allclose(eigs, expect, atol=1e-13)


def test_decompose_pythagoras():
    R = random_curvature(rng, 6)
    dec = decompose(R)
    lhs = inner(R, R)
    rhs = (inner(dec.weyl, dec.weyl) + dec.S ** 2 / (2 * 6 * 5)
           + float(np.sum(dec.E * dec.E)) / 4)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # mutual orthogonality
    assert float(np.sum(dec.weyl.mat * dec.e_part.mat)) == pytest.approx(0.0, abs=1e-11)
    assert float(np.sum(dec.weyl.mat * dec.s_part.mat)) == pytest.approx(0.0, abs=1e-11)
    assert float(np.sum(dec.e_part.mat * dec.s_part.mat)) == pytest.approx(0.0, abs=1e-11)


def test_decompose_rejects_small_dimension():
    g = np.eye(3)
    R = CurvatureTensor.from_operator(kulkarni_nomizu(g, g) * 0.5)
    with pytest.raises(ValueError):
        decompose(R)


# ------------------------------------------------------------- products

def test_dot_matches_oracle():
    A = random_operator(rng, 4)
    B = random_operator(rng, 4)
    out = dot_product(A, B)
    assert np.allclose(out.four(), dot_oracle(A.four(), B.four()), atol=1e-12)


def test_dot_identity_and_zero():
    n = 4
    g = np.eye(n)
    half = Operator2Form(n, 0.5 * kulkarni_nomizu(g, g).mat)
    assert np.allclose(dot_product(half, half).mat, half.mat, atol=1e-13)
    zero = Operator2Form(n, np.zeros_like(half.mat))
    R = random_operator(rng, n)
    assert norm(dot_product(R, zero)) == 0.0


def test_dot_distributes():
    A, B, C = (random_operator(rng, 4) for _ in range(3))
    lhs = dot_product(A, B + C)
    rhs = dot_product(A, B).mat + dot_product(A, C).mat
    assert np.allclose(lhs.mat, rhs, atol=1e-12)


def test_sharp_matches_oracle():
    A = random_operator(rng, 4)
    B = random_operator(rng, 4)
    out = sharp_product(A, B)
    assert np.allclose(out.four(), sharp_oracle(A.four(), B.four()), atol=1e-12)


def test_sharp_commutative_and_zero():
    A = random_operator(rng, 5)
    B = random_operator(rng, 5)
    assert np.allclose(sharp_product(A, B).mat, sharp_product(B, A).mat, atol=1e-12)
    zero = Operator2Form(5, np.zeros_like(A.mat))
    assert norm(sharp_product(A, zero)) == 0.0


def test_quadratic_combination_is_curvature():
    R = random_curvature(rng, 5)
    quad = Operator2Form(5, dot_product(R, R).mat + sharp_product(R, R).mat,
                         require_self_adjoint=False)
    kerb, imb = bianchi_project(quad)
    assert norm(imb) < 1e-11


# ------------------------------------------------------------------ tri

def test_tri_diagonal_value():
    R = random_curvature(rng, 4)
    expect = 2.0 * float(np.sum(R.mat * (dot_product(R, R).mat + sharp_product(R, R).mat)))
    assert tri(R, R, R) == pytest.approx(expect, rel=1e-12)


def test_tri_zero_argument():
    R = random_curvature(rng, 4)
    zero = Operator2Form(4, np.zeros_like(R.mat))
    assert tri(R, zero, R) == 0.0


def test_tri_permutation_symmetry():
    ops = [random_operator(rng, 4) for _ in range(3)]
    from itertools import permutations
    vals = [tri(*perm) for perm in permutations(ops)]
    assert max(vals) - min(vals) < 1e-10 * max(1.0, max(abs(v) for v in vals))


# ----------------------------------------------------------- circ prime

def test_circ_prime_matches_oracle():
    A = TwoFormOneForm(4, two_form_one_form_from_uniform(uniform(rng, 4, 4, 4)))
    full5 = circ_prime_oracle(A.full())
    out = circ_prime(A)
    assert np.allclose(out.comps, three_two_from_full(full5).comps, atol=1e-13)


def test_circ_prime_zero_and_dimension_guard():
    A = TwoFormOneForm(4, np.zeros((6, 4)))
    assert circ_prime(A).norm() == 0.0
    A3 = TwoFormOneForm(3, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        circ_prime(A3)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_circ_prime_norm_identity(n):
    A = TwoFormOneForm(n, two_form_one_form_from_uniform(uniform(rng, n, n, n)))
    assert circ_prime(A).norm() ** 2 == pytest.approx((n - 3) * A.norm() ** 2, rel=1e-11)


def test_circ_prime_norm_needs_trace_free():
    # with a nonvanishing 1-3 contraction the norm identity fails
    n = 5
    A = generic_two_form_one_form(n)
    trace = np.einsum('iji->j', A.full())
    assert np.abs(trace).max() > 1e-3
    ratio = circ_prime(A).norm() ** 2 / ((n - 3) * A.norm() ** 2)
    assert abs(ratio - 1.0) > 1e-6


# -------------------------------------------------------- second Bianchi

def test_second_bianchi_zero_and_alternating():
    n = 4
    D = CovDerivCurvature(n, np.zeros((n, 6, 6)))
    assert second_bianchi(D).norm() == 0.0
    # alternation in the three leading slots on a generic derivative tensor
    from weylbench.algebra import second_bianchi_full
    from weylbench.sampling import random_operator
    comps = np.stack([random_operator(rng, n).mat for _ in range(n)])
    full = second_bianchi_full(CovDerivCurvature(n, comps).full())
    assert np.allclose(full, -np.transpose(full, (1, 0, 2, 3, 4)), atol=1e-13)
    assert np.allclose(full, -np.transpose(full, (0, 2, 1, 3, 4)), atol=1e-13)


def test_second_bianchi_kn_derivative_rule():
    # formal nabla Rc pushed through the metric product: B(Rc o g) = P o' g
    n = 5
    g = np.eye(n)
    C = rng.standard_normal((n, n, n))
    C = (C + np.transpose(C, (0, 2, 1))) / 2
    D = CovDerivCurvature(n, np.stack([kulkarni_nomizu(C[m], g).mat for m in range(n)]))
    P = TwoFormOneForm.from_full(C - np.transpose(C, (1, 0, 2)))
    assert (second_bianchi(D) - circ_prime(P)).norm() < 1e-12 * max(1.0, circ_prime(P).norm())


def test_second_bianchi_scalar_rule_sign():
    # B(S g o g) = -Q o' g, the sign fixed numerically
    n = 5
    g = np.eye(n)
    v = rng.standard_normal(n)
    gg = kulkarni_nomizu(g, g)
    D = CovDerivCurvature(n, np.einsum('m,ab->mab', v, gg.mat))
    Q = TwoFormOneForm.from_full(np.einsum('ki,j->ijk', g, v) - np.einsum('kj,i->ijk', g, v))
    assert (second_bianchi(D) + circ_prime(Q)).norm() < 1e-12 * circ_prime(Q).norm()
    assert (second_bianchi(D) - circ_prime(Q)).norm() > 1e-3  # opposite sign fails


# ---------------------------------------------------------- u contraction

def test_u_contraction_zero():
    W = CurvatureTensor(4, np.zeros((6, 6)))
    ns, cu = u_contraction(W)
    assert ns == 0.0 and cu == 0.0


def test_u_contraction_norm_ratio_n5():
    W = random_weyl(rng, 5)
    ns, _ = u_contraction(W)
    assert ns / inner(W, W) == pytest.approx(128.0, rel=1e-12)


def test_u_contraction_two_paths_n6():
    W = random_weyl(rng, 6)
    _, contracted = u_contraction(W)
    cubic = float(np.sum(W.mat * (dot_product(W, W).mat + sharp_product(W, W).mat)))
    assert contracted == pytest.approx(8.0 * cubic, rel=1e-11)


def test_u_contraction_rejects_traced_input():
    R = random_curvature(rng, 5)
    with pytest.raises(ValueError):
        u_contraction(R)


# -------------------------------------------------------- quadratic forms

def test_quadratic_forms_zero():
    W = random_weyl(rng, 5)
    qf = quadratic_forms(W, np.zeros((5, 5)))
    assert qf.W_AA == 0.0 and qf.A_cubed == 0.0


def test_quadratic_forms_ricci_cubed_identity():
    n = 5
    R = random_curvature(rng, n)
    Rc = ricci_contraction(R)
    S = float(np.trace(Rc))
    E = Rc - S / n * np.eye(n)
    qf = quadratic_forms(R, Rc)
    e3 = float(np.einsum('ij,jk,ki->', E, E, E))
    expect = e3 + 3.0 / n * S * float(np.sum(E * E)) + S ** 3 / n ** 2
    assert qf.A_cubed == pytest.approx(expect, rel=1e-12)


def test_quadratic_forms_curvature_identity():
    n = 6
    R = random_curvature(rng, n)
    dec = decompose(R)
    Rc = ricci_contraction(R)
    S, E = dec.S, dec.E
    lhs = quadratic_forms(R, Rc).W_AA
    w_term = quadratic_forms(dec.weyl, Rc).W_AA
    e3 = float(np.einsum('ij,jk,ki->', E, E, E))
    expect = (w_term - 2.0 * e3 / (n - 2) + S ** 3 / n ** 2
              + (2 * n - 3) / (n * (n - 1)) * S * float(np.sum(E * E)))
    assert lhs == pytest.approx(expect, rel=1e-11)


def test_quadratic_forms_basis_invariance():
    n = 5
    W = random_weyl(rng, n)
    A = random_symmetric(rng, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    W_rot = Operator2Form.from_four_tensor(
        np.einsum('ia,jb,kc,ld,ijkl->abcd', q, q, q, q, W.four()))
    qf1 = quadratic_forms(W, A)
    qf2 = quadratic_forms(W_rot, q.T @ A @ q)
    assert qf1.W_AA == pytest.approx(qf2.W_AA, rel=1e-10)
    assert qf1.A_cubed == pytest.approx(qf2.A_cubed, rel=1e-10)


# ------------------------------------------------------------ pure cubics

def test_pure_cubics_zero():
    pc = pure_cubics(PureCurvatureMatrix(4, np.zeros((4, 4))))
    assert pc.sharp_cubic == pc.square_cubic == pc.three_plane_sum == 0.0


def test_pure_cubics_product_of_spheres():
    w = np.full((4, 4), -1 / 3)
    np.fill_diagonal(w, 0.0)
    w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = 2 / 3
    pc = pure_cubics(PureCurvatureMatrix(4, w))
    assert pc.three_plane_sum == pytest.approx(0.0, abs=1e-14)
    assert pc.sharp_cubic == pytest.approx(2.0 * pc.square_cubic, rel=1e-12)
    # cross-check against the operator route on the embedded diagonal tensor
    mat = np.diag([2 / 3, -1 / 3, -1 / 3, -1 / 3, -1 / 3, 2 / 3])
    W = CurvatureTensor(4, mat)
    assert pc.sharp_cubic == pytest.approx(
        2.0 * float(np.sum(W.mat * sharp_product(W, W).mat)), rel=1e-12)
    assert pc.square_cubic == pytest.approx(
        2.0 * float(np.sum(W.mat * dot_product(W, W).mat)), rel=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_pure_cubics_combination_identity(n):
    pc = pure_cubics(PureCurvatureMatrix(n, pure_from_uniform(uniform(rng, n, n))))
    expect = (8.0 - n) / 2.0 * pc.square_cubic + pc.three_plane_sum
    assert pc.sharp_cubic == pytest.approx(expect, rel=1e-11, abs=1e-12)


def test_pure_cubics_n5_sharp_is_twice_square():
    pc = pure_cubics(PureCurvatureMatrix(5, pure_from_uniform(uniform(rng, 5, 5))))
    assert pc.sharp_cubic == pytest.approx(2.0 * pc.square_cubic, rel=1e-11)


def test_pure_matrix_extraction_from_product_weyl():
    mat = np.diag([1.0, 0, 0, 0, 0, 1.0])
    dec = decompose(CurvatureTensor(4, mat))
    pm = pure_matrix_from_weyl(dec.weyl)
    assert pm.w[0, 1] == pytest.approx(2 / 3)
    assert pm.w[0, 2] == pytest.approx(-1 / 3)


# --------------------------------------------------------- sectional split

def test_sectional_split_n4_pairs():
    W = random_weyl(rng, 4)
    w1, w2 = weyl_sectional_split(W, {0, 1})
    assert w1 == pytest.approx(W.component(0, 1, 0, 1), abs=1e-14)
    assert w2 == pytest.approx(W.component(2, 3, 2, 3), abs=1e-14)
    assert w1 == pytest.approx(w2, abs=1e-12)


def test_sectional_split_zero_and_random():
    W = CurvatureTensor(4, np.zeros((6, 6)))
    assert weyl_sectional_split(W, {0}) == (0.0, 0.0)
    W6 = random_weyl(rng, 6)
    w1, w2 = weyl_sectional_split(W6, {0, 2, 4})
    assert w1 == pytest.approx(w2, abs=1e-11)


def test_sectional_split_rejects_improper_subsets():
    W = random_weyl(rng, 4)
    with pytest.raises(ValueError):
        weyl_sectional_split(W, set())
    with pytest.raises(ValueError):
        weyl_sectional_split(W, {0, 1, 2, 3})


# ------------------------------------------------- batch-aware raw kernels

def sharp_einsum_reference(A, B):
    """Single-einsum form of the sharp product (the earlier implementation)."""
    m = np.einsum('ipkq,jplq->ijkl', A, B)
    return 0.5 * (m + np.transpose(m, (1, 0, 3, 2))
                  - np.transpose(m, (0, 1, 3, 2)) - np.transpose(m, (1, 0, 2, 3)))


def frame_rotation_einsum_reference(frame, T):
    """Five-operand form of the dim-4 frame rotation (the earlier implementation)."""
    return np.einsum('ma,nb,pc,qd,mnpq->abcd', frame, frame, frame, frame, T)


def w_norm_sq_einsum_reference(W, gi):
    """Six-operand form of the chart's |W|^2_g (the earlier implementation)."""
    return 0.25 * float(np.einsum('ijkl,mnpq,im,jn,kp,lq->', W, W, gi, gi, gi, gi))


def circ_prime_einsum_reference(a):
    """Six einsum outer products with g (the earlier circ_prime_full)."""
    n = a.shape[0]
    g = np.eye(n)
    return (np.einsum('kn,ijm->ijkmn', g, a) + np.einsum('in,jkm->ijkmn', g, a)
            + np.einsum('jn,kim->ijkmn', g, a) + np.einsum('km,jin->ijkmn', g, a)
            + np.einsum('im,kjn->ijkmn', g, a) + np.einsum('jm,ikn->ijkmn', g, a))


def u_tensor_einsum(Wf):
    """The full (n,)*6 u-tensor u[m, n, p, q, i, j] = (u_ij)_mnpq of a four-index Wf, by four
    einsum outer products with g (the earlier u_tensor_contractions), in Wf's dtype."""
    n = Wf.shape[-1]
    g = np.eye(n, dtype=Wf.dtype)
    v = (np.einsum('inpq,jm->mnpqij', Wf, g) + np.einsum('mipq,jn->mnpqij', Wf, g)
         + np.einsum('mniq,jp->mnpqij', Wf, g) + np.einsum('mnpi,jq->mnpqij', Wf, g))
    return v - np.transpose(v, (0, 1, 2, 3, 5, 4))


def u_tensor_einsum_reference(Wf, Tf):
    """(sum u*u, sum T_ijkl u_ij u_kl) on the full n^6 u-tensor of Wf, in Wf's dtype."""
    n = Wf.shape[-1]
    u = u_tensor_einsum(Wf)
    U = u.reshape(n ** 4, n ** 2)
    return np.sum(u * u), np.sum((U @ Tf.reshape(n ** 2, n ** 2)) * U)


def reindex_einsum_reference(W4, R4):
    """Three-operand form of the suite's productw_reindex right side (the earlier one)."""
    return 0.5 * np.einsum('ijkl,jplq,ipkq->', W4, W4, R4)


def pair_congruence(T, A):
    """L^T T L of (..., N, N) pair matrices T, L = (1/2) A o A: T's four indices moved by A."""
    L = 0.5 * kn_matrix(A, A)
    return np.swapaxes(L, -1, -2) @ T @ L


def _inverse_metric(n):
    A = np.eye(n) + 0.2 * rng.uniform(-1.0, 1.0, size=(n, n))
    return np.linalg.inv(A.T @ A)


def _curvature_batch(n, count):
    N = pair_basis(n).size
    m = rng.uniform(-1.0, 1.0, size=(count, N, N))
    four = pair_matrix_to_four_tensor(n, (m + np.swapaxes(m, -1, -2)) / 2.0)
    return four - cyclic_average(four)


def _assert_batch_equals_single(kernel, *batched):
    out = kernel(*batched)
    outs = out if isinstance(out, tuple) else (out,)
    for b in range(batched[0].shape[0]):
        single = kernel(*(a[b] for a in batched))
        singles = single if isinstance(single, tuple) else (single,)
        for x, y in zip(outs, singles):
            assert np.array_equal(x[b], y)


#: pass budgets of the expanding kernels: one object a pass, the default, one pass
PASS_BUDGETS = (1, basis.CHUNK_ENTRIES, 2 ** 40)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("count", [1, 64])
def test_raw_kernels_batch_equals_single(n, count, monkeypatch):
    """Each raw kernel gives a batch's objects the values it gives them one at a time, at
    every pass budget of the kernels that run in passes (``basis._in_passes``)."""
    for entries in PASS_BUDGETS:
        monkeypatch.setattr(basis, "CHUNK_ENTRIES", entries)
        _raw_kernels_batch_equals_single(n, count)


def _raw_kernels_batch_equals_single(n, count):
    R4 = _curvature_batch(n, count)
    S4 = _curvature_batch(n, count)
    h = rng.uniform(-1.0, 1.0, size=(count, n, n))
    g = np.eye(n) + 0.1 * (h + np.swapaxes(h, -1, -2))
    _assert_batch_equals_single(lambda a: kn_four(a, np.eye(n)), h)
    _assert_batch_equals_single(kn_four, h, g)
    _assert_batch_equals_single(frame_weyl_split, R4)
    _assert_batch_equals_single(sharp_four, R4, S4)
    Rm, Sm = four_tensor_to_pair_matrix(n, R4), four_tensor_to_pair_matrix(n, S4)
    Wm = four_tensor_to_pair_matrix(n, frame_weyl_split(R4).W)
    _assert_batch_equals_single(lambda a, b: sharp_matrix(n, a, b), Rm, Sm)
    _assert_batch_equals_single(lambda m: cubic_parts(n, m), Wm)
    _assert_batch_equals_single(lambda m: pair_slots(n, m), Rm)
    _assert_batch_equals_single(lambda m: pair_ricci(n, m), Rm)
    _assert_batch_equals_single(kn_matrix, h, g)
    _assert_batch_equals_single(pair_congruence, Rm, h)
    _assert_batch_equals_single(circ_prime_full, rng.uniform(-1.0, 1.0, size=(count,) + (n,) * 3))
    _assert_batch_equals_single(second_bianchi_full,
                                rng.uniform(-1.0, 1.0, size=(count,) + (n,) * 5))
    _assert_batch_equals_single(lambda a: circ_prime_pairs(n, a),
                                rng.uniform(-1.0, 1.0, size=(count, pair_basis(n).size, n)))
    D = rng.uniform(-1.0, 1.0, size=(count, n) + (pair_basis(n).size,) * 2)
    _assert_batch_equals_single(lambda d: second_bianchi_pairs(n, d), D)
    _assert_batch_equals_single(lambda d: pair_divergence(n, d), D)
    _assert_batch_equals_single(pure_cubic_parts, h + np.swapaxes(h, -1, -2))
    N = pair_basis(n).size
    _assert_batch_equals_single(lambda m: bianchi_image(n, m),
                                rng.uniform(-1.0, 1.0, size=(count, N, N)))
    _assert_batch_equals_single(lambda m: weyl_matrix(n, m),
                                symmetrized(rng.uniform(-1.0, 1.0, size=(count, N, N))))
    _assert_batch_equals_single(quadratic_form, pair_slots(n, Rm), g)
    _assert_batch_equals_single(cube_trace, g)
    _assert_batch_equals_single(kn_g_pairing, h, Rm)
    _assert_batch_equals_single(lambda w, t: u_tensor_contractions(n, w, t), Wm, Rm)
    subsets = rng.uniform(size=(count, n)) < 0.5
    _assert_batch_equals_single(sectional_sums, rng.uniform(-1.0, 1.0, size=(count, N)), subsets)
    _assert_batch_equals_single(lambda m: tuple(weyl_bound_terms(n, m).values()), Wm)
    _assert_batch_equals_single(eigen_bound_terms, h + np.swapaxes(h, -1, -2))


def _with_specials(x):
    """x with NaN, inf, -inf and -0.0 written into its first objects (one kind each)."""
    x = x.copy()
    flat = x.reshape((-1,) + x.shape[-2:])
    for b, value in enumerate((np.nan, np.inf, -np.inf, -0.0)):
        flat[b % len(flat), b % x.shape[-2], (2 * b) % x.shape[-1]] = value
    return x


def _out_of_place_kernels(n):
    """kn_matrix and circ_prime_pairs with their fresh gathers multiplied out of place: the
    reference the in-place products must match in dtype and bits."""
    hp, kp = _kn_positions(n)
    flat, sign = basis._circ_prime_positions(n)

    def circ(a):
        padded = np.concatenate([a, np.zeros(a.shape[:-2] + (1, n))], axis=-2)
        t = basis._take_trailing(padded, 2, flat) * sign
        return sum(t[..., r, :, :] for r in range(6))

    return (lambda h, k: _kn_sum(basis._take_trailing(h, 2, hp) * basis._take_trailing(k, 2, kp)),
            circ)


@pytest.mark.parametrize("n", [4, 5, 8])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, object])
def test_gathers_multiplied_in_place_keep_the_out_of_place_dtype_and_bits(n, dtype):
    """kn_matrix (each factor of each dtype against a float64 stack, h against the identity,
    and both factors of it) and circ_prime_pairs form their products in the fresh gathers
    where the product's dtype allows; on NaN, +-inf and -0.0 entries the result is the
    out-of-place product's, in dtype and in bits (the int64 view; object results as float64)."""
    N = pair_basis(n).size
    h = _with_specials(rng.uniform(-1.0, 1.0, size=(3, n, n)))
    a = _with_specials(rng.uniform(-1.0, 1.0, size=(3, N, n)))
    if dtype is np.int64:
        h, a = (np.round(7 * np.nan_to_num(x, posinf=1.0, neginf=-1.0)) for x in (h, a))
    h, a = h.astype(dtype), a.astype(dtype)
    g = rng.uniform(-1.0, 1.0, size=(3, n, n))
    kn, circ = _out_of_place_kernels(n)
    eye = np.eye(n)

    def bits(x):  # the int64 view (int32 for float32); object results as float64
        x = x.astype(np.float64) if x.dtype == object else x
        return x.view(np.int64 if x.itemsize == 8 else np.int32)

    with np.errstate(invalid="ignore"):  # inf times a zero term: NaN, as intended
        cases = [(kn_matrix(h, eye), kn(h, eye)), (kn_matrix(h, g), kn(h, g)),
                 (kn_matrix(g, h), kn(g, h)), (kn_matrix(h, h), kn(h, h)),
                 (kn_matrix(h[0], g), kn(h[0], g)), (circ_prime_pairs(n, a), circ(a))]
    for got, expect in cases:
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert np.array_equal(bits(got), bits(expect))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_passes_do_not_move_the_routed_kernels_bits(n, monkeypatch):
    """cubic_parts and kn_matrix against the identity (and weyl_matrix and weyl_parts, which
    call it) give the same shapes, dtypes and bits, signed zeros and NaN payloads included,
    at one object a pass, the default passes and one pass, on stacks with two leading axes
    holding NaN, inf and -0.0, on float32 input, on a single object and on an empty batch."""
    N = pair_basis(n).size
    M = _with_specials(symmetrized(rng.uniform(-1.0, 1.0, size=(3, 90, N, N))))
    h, g = _with_specials(rng.uniform(-1.0, 1.0, size=(4, 120, n, n))), np.eye(n)
    R = symmetrized(rng.uniform(-1.0, 1.0, size=(3, 15, N, N)))
    cases = [lambda: cubic_parts(n, M), lambda: cubic_parts(n, M.astype(np.float32)),
             lambda: cubic_parts(n, M[0, 0]), lambda: cubic_parts(n, M[:0]),
             lambda: kn_matrix(h, g), lambda: kn_matrix(h.astype(np.float32), g),
             lambda: kn_matrix(h[0, 0], g), lambda: kn_matrix(h[:, :0], g),
             lambda: kn_matrix(np.moveaxis(h, 1, 0), g),  # a non-contiguous view
             lambda: weyl_matrix(n, R), lambda: tuple(weyl_parts(n, R))]
    def run(case):
        with np.errstate(invalid="ignore"):  # inf times a zero term: NaN, as intended
            return case()
    expect = [run(case) for case in cases]
    assert basis.CHUNK_ENTRIES < 270 * n ** 4 and basis.CHUNK_ENTRIES < 480 * 4 * N * N  # passes
    for entries in (1, 2 ** 40):
        monkeypatch.setattr(basis, "CHUNK_ENTRIES", entries)
        for case, want in zip(cases, expect):
            got = run(case)
            for x, y in zip(got if isinstance(got, tuple) else (got,),
                            want if isinstance(want, tuple) else (want,)):
                assert x.dtype == y.dtype and _same_bits(x, y)
    for x in (expect[0][1], expect[4]):  # NaN, inf and -inf spoil their own objects alone
        finite = np.isfinite(x.reshape(x.shape[:2] + (-1,))).all(axis=-1)
        assert np.isnan(x[0, 0]).any() and not finite[0, :3].any()
        assert finite[0, 3:].all() and finite[1:].all()


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_cubic_parts_are_invariant_and_homogeneous(n):
    """Both parts of cubic_parts are O(n)-invariant, each object under its own seeded
    orthogonal frame (rotated through the full expansion), and odd homogeneous of degree 3:
    scaling each object by its own power of two +-2^k scales its values by its cube, bit for
    bit.  The stack (3, 15) runs in passes at the default budget from n = 7."""
    N, shape = pair_basis(n).size, (3, 15)
    W = random_weyl_batch(rng, n, 45).reshape(shape + (N, N))
    frames = _seeded_frames(n, 45)
    W_rot = np.stack([four_tensor_to_pair_matrix(n, rotated(pair_matrix_to_four_tensor(n, w), A))
                      for w, A in zip(W.reshape(-1, N, N), frames)]).reshape(W.shape)
    parts = cubic_parts(n, W)
    for value, turned in zip(parts, cubic_parts(n, W_rot)):
        assert np.abs(turned - value).max() <= 1e-12 * np.abs(value).max()
    scale = np.where(np.arange(45) % 2, -1.0, 1.0) * 2.0 ** (np.arange(45) % 7 * 5 - 15)
    scale = scale.reshape(shape)
    for value, scaled in zip(parts, cubic_parts(n, scale[..., None, None] * W)):
        assert _same_bits(scaled, scale ** 3 * value)


def _seeded_frames(n, count):
    """``count`` orthogonal (n, n) frames from a seeded stream, one per object."""
    return np.linalg.qr(np.random.default_rng([n, count]).standard_normal((count, n, n)))[0]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_kn_products_are_equivariant_and_bilinear(n):
    """kn_matrix(A^T h A, A^T k A) and kn_matrix(A^T h A, I) are A moving h o k and h o g
    (rotated through the full expansion), each object of a (4, 40) stack under its own seeded
    frame; h o g runs in passes at the default budget from n = 6.  Both are bilinear: linear
    in h, and h o k in k, to round-off."""
    N, shape = pair_basis(n).size, (4, 40)
    h, k = (symmetrized(rng.uniform(-1.0, 1.0, size=shape + (n, n))) for _ in range(2))
    g = np.eye(n)
    frames = _seeded_frames(n, 160).reshape(shape + (n, n))
    def turn(x): return np.swapaxes(frames, -1, -2) @ x @ frames  # as ``rotated`` moves it
    def rotate(P): return np.stack([
        four_tensor_to_pair_matrix(n, rotated(pair_matrix_to_four_tensor(n, p), A))
        for p, A in zip(P.reshape(-1, N, N), frames.reshape(-1, n, n))]).reshape(P.shape)
    for got, expect in ((kn_matrix(turn(h), turn(k)), rotate(kn_matrix(h, k))),
                        (kn_matrix(turn(h), g), rotate(kn_matrix(h, g)))):
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
    h2 = symmetrized(rng.uniform(-1.0, 1.0, size=shape + (n, n)))
    a, b = 0.75, -1.5
    for got, expect in ((kn_matrix(a * h + b * h2, g), a * kn_matrix(h, g) + b * kn_matrix(h2, g)),
                        (kn_matrix(a * h + b * h2, k), a * kn_matrix(h, k) + b * kn_matrix(h2, k)),
                        (kn_matrix(k, a * h + b * h2), a * kn_matrix(k, h) + b * kn_matrix(k, h2))):
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_typed_wrappers_are_their_kernels(n):
    """The typed functions return, bit for bit, what their raw kernels give."""
    W, R = random_weyl(rng, n), random_curvature(rng, n)
    A = random_symmetric(rng, n)
    qf = quadratic_forms(R, A)
    assert (qf.W_AA, qf.A_cubed) == (float(quadratic_form(pair_slots(n, R.mat), A)),
                                     float(cube_trace(A)))
    subset = {0, n - 1}
    mask = np.zeros(n, dtype=bool)
    mask[[0, n - 1]] = True
    assert weyl_sectional_split(W, subset) == tuple(
        float(x) for x in sectional_sums(np.diagonal(W.mat), mask))
    assert u_contraction(W) == tuple(float(x) for x in u_tensor_contractions(n, W.mat, W.mat))
    T = random_operator(rng, n)
    kerb, imb = bianchi_project(T)
    image = bianchi_image(n, T.mat)
    assert np.array_equal(imb.mat, (image + image.T) / 2.0)
    assert np.array_equal(kerb.mat, T.mat - imb.mat)
    D = CovDerivCurvature(n, np.stack([random_operator(rng, n).mat for _ in range(n)]))
    assert np.array_equal(second_bianchi(D).comps, second_bianchi_pairs(n, D.comps))
    A = TwoFormOneForm(n, two_form_one_form_from_uniform(uniform(rng, n, n, n)))
    assert np.array_equal(circ_prime(A).comps, circ_prime_pairs(n, A.comps))
    E = random_traceless_symmetric(rng, n)
    assert eigen_bound(E) == tuple(float(v) for v in eigen_bound_terms(check_traceless(E, "E")))
    if n >= 5:
        cb, t = cubic_bound_eval(W), weyl_bound_terms(n, W.mat)
        assert (cb.lhs, cb.eig_bound, cb.norm_bound, cb.lhs_dot_only, cb.eig_bound_signed) == (
            float(t["lhs"]), float(t["eig_bound"]), float(t["norm_bound"]), float(t["lhs_dot"]),
            float(t["signed_bound"]) if n == 5 else None)


def test_sectional_sums_match_the_component_sums():
    W = random_weyl(rng, 6)
    subset = [0, 2, 3]
    comp = [1, 4, 5]
    mask = np.isin(np.arange(6), subset)
    w1, w2 = sectional_sums(np.diagonal(W.mat), mask)
    assert w1 == pytest.approx(sum(W.component(i, j, i, j) for i in subset for j in subset
                                   if i < j), abs=1e-15)
    assert w2 == pytest.approx(sum(W.component(i, j, i, j) for i in comp for j in comp
                                   if i < j), abs=1e-15)


def _typed_pairing(X, W):
    """<X o g, W^2> as the chart, models and dim4 computed it through typed containers."""
    n = W.n
    return float(np.sum(kulkarni_nomizu(X, np.eye(n)).mat * dot_product(W, W).mat))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_kn_g_pairing_keeps_the_bits_of_the_typed_expression(n):
    for _ in range(10):
        R = random_curvature(rng, n)
        X = ricci_contraction(R)  # symmetric only to round-off, as a Ricci form is
        X[0, -1] += 1e-12 * max(1.0, np.abs(X).max())
        for W in (random_weyl(rng, n), R, decompose(R).weyl):
            assert float(kn_g_pairing(X, W.mat)).hex() == _typed_pairing(X, W).hex()
        X = random_symmetric(rng, n)
        assert float(kn_g_pairing(X, R.mat)).hex() == _typed_pairing(X, R).hex()


def test_check_trace_free_is_per_tensor():
    """A stack passes when every tensor is trace-free at its own scale, and one
    traced tensor fails the whole stack."""
    n = 5
    mats = random_weyl_batch(rng, n, 3)
    mats[0] *= 1e6
    check_trace_free(n, mats, "stack")
    mats[2] = random_curvature(rng, n).mat
    with pytest.raises(ValueError, match="stack requires a trace-free"):
        check_trace_free(n, mats, "stack")
    check_trace_free(n, mats[:2], "stack")
    for value in (np.nan, np.inf):
        odd = mats[:2].copy()
        odd[1, 0, -1] = odd[1, -1, 0] = value
        with pytest.raises(ValueError, match="stack requires a trace-free"):
            check_trace_free(n, odd, "stack")


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_weyl_split_on_derivative_slices(n):
    """A leading axis of size n (nabla_m R slices) splits slice by slice."""
    D = random_curvature_derivative_full(rng, n)
    _assert_batch_equals_single(frame_weyl_split, D)
    split = frame_weyl_split(D)
    assert np.abs(np.einsum('mipjp->mij', split.W)).max() < 1e-13
    assert np.allclose(split.s_part + split.e_part + split.W, D, atol=1e-14)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_weyl_split_matches_decompose(n):
    R = random_curvature(rng, n)
    split = frame_weyl_split(R.four())
    dec = decompose(R)
    assert np.array_equal(dec.E, split.E) and dec.S == float(split.S)
    assert np.allclose(R.four(), split.W + split.e_part + split.s_part, atol=1e-14)
    assert np.abs(split.Rc - ricci_contraction(R)).max() == 0.0


def _same_bits_and_signs(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", range(4, 11))
@pytest.mark.parametrize("shape", [(1,), (2,), (5,), (2, 3)])
def test_weyl_parts_keeps_the_bits_of_the_four_index_split(n, shape):
    """Each field of weyl_parts on pair matrices is the four-index split's, read back."""
    R4 = _curvature_batch(n, int(np.prod(shape))).reshape(shape + (n,) * 4)
    R = four_tensor_to_pair_matrix(n, R4)
    parts = weyl_parts(n, R)
    four = frame_weyl_split(pair_matrix_to_four_tensor(n, R))
    for name in ("W", "e_part", "s_part"):
        assert _same_bits_and_signs(getattr(parts, name),
                                    four_tensor_to_pair_matrix(n, getattr(four, name))), name
    for name in ("Rc", "S", "E"):
        assert _same_bits_and_signs(getattr(parts, name), getattr(four, name)), name


def _same_bits_with_nans(a, b):
    """Equal bits where both are numbers (signed zeros included) and NaNs at the same places."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and _same_bits_and_signs(a[~nan], b[~nan]))


@pytest.mark.parametrize("n", range(4, 11))
def test_g_circ_k_is_the_transpose_of_k_circ_g(n):
    """kn_matrix(h, k) is kn_four(h, k)'s expansion read back, bit for bit (signed zeros and
    NaN positions included), for symmetric, non-symmetric, sparse, -0.0, non-finite and
    batched forms, and g o k is k o g transposed, entry for entry, for symmetric k."""
    k, g = random_symmetric(rng, n), np.eye(n)
    assert _same_bits_and_signs(four_tensor_to_pair_matrix(n, kn_four(g, k)), kn_matrix(k, g).T)
    assert _same_bits_and_signs(four_tensor_to_pair_matrix(n, kn_four(k, g)), kn_matrix(k, g))
    h = rng.uniform(-1.0, 1.0, size=(2, 3, n, n))  # no symmetry
    sparse = -h * (rng.uniform(size=h.shape) < 0.3)
    bad = h.copy()
    bad[0, 0, 0, 1], bad[1, 2, n - 1, n - 1] = np.nan, np.inf
    with np.errstate(invalid="ignore"):
        for a, b in ((h, sparse), (sparse, h), (bad, h), (h[0], bad[1, 2]), (symmetrized(h), g),
                     (g, sparse[1]), (-np.zeros_like(h), g), (bad, -np.zeros_like(h)), (k, k)):
            expect = four_tensor_to_pair_matrix(n, kn_four(a, b))
            assert _same_bits_with_nans(kn_matrix(a, b), expect)


@pytest.mark.parametrize("n", range(4, 11))
def test_kn_against_the_identity_is_kn_matrix_with_the_identity(n):
    """h o g with g = I is kn_matrix(h, I), for one form and stacks of shape (3,) and (2, 5),
    on random, sparse, signed-zero and non-finite entries: the single identity runs h in
    passes and keeps, bit for bit (signed zeros and NaN payloads included), the one call a
    k with a leading axis takes, and the four-index product read back (NaN at the same
    entries); each form keeps its own non-finite entries, and g o g is 2 I bit for bit."""
    g = np.eye(n)
    h = rng.uniform(-1.0, 1.0, size=(2, 5, n, n))
    sparse = -h * (rng.uniform(size=h.shape) < 0.2)
    signed = np.where(rng.uniform(size=h.shape) < 0.5, 0.0, -0.0)
    bad = symmetrized(h)
    bad[0, 0, 0, 1], bad[1, 3, n - 1, n - 1], bad[1, 4, 1, 2] = np.nan, np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        for x in (h, sparse, signed, bad):
            for stack in (x[0, 0], x[1, :3], x):
                got = kn_matrix(stack, g)
                assert _same_bits(got, kn_matrix(stack[None], g[None])[0])
                assert _same_bits_with_nans(got, four_tensor_to_pair_matrix(n, kn_four(stack, g)))
        got = kn_matrix(bad, g)
    assert np.isnan(got[0, 0]).any() and np.isinf(got[1, 3]).any() and np.isnan(got[1, 4]).any()
    assert np.isfinite(got[0, 1]).all()  # each form keeps its own entries
    assert _same_bits(kn_matrix(g, g), 2.0 * np.eye(pair_basis(n).size))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_decompose_and_kulkarni_nomizu_keep_the_four_index_bits(n):
    """decompose and kulkarni_nomizu hold the matrices the four-index route stored."""
    R = random_curvature(rng, n)
    dec, split = decompose(R), frame_weyl_split(R.four())
    for part, four in ((dec.weyl, split.W), (dec.e_part, split.e_part),
                       (dec.s_part, split.s_part)):
        assert _same_bits_and_signs(part.mat, symmetrized(four_tensor_to_pair_matrix(n, four)))
    assert _same_bits_and_signs(dec.E, split.E) and dec.S == float(split.S)
    h, k = random_symmetric(rng, n), random_symmetric(rng, n)
    four_route = CurvatureTensor.from_operator(Operator2Form.from_four_tensor(kn_four(h, k)))
    assert _same_bits_and_signs(kulkarni_nomizu(h, k).mat, four_route.mat)


def bianchi_image_four_tensor_reference(n, mat):
    """b(T) on the four-index expansion, read back at the pair entries."""
    return four_tensor_to_pair_matrix(n, cyclic_average(pair_matrix_to_four_tensor(n, mat)))


def weyl_matrix_four_tensor_reference(n, mat):
    """The Weyl part of T - b(T) as the samplers formed it on four-index tensors."""
    four = pair_matrix_to_four_tensor(n, mat)
    four -= cyclic_average(four)
    return four_tensor_to_pair_matrix(n, frame_weyl_split(four).W)


def cubic_parts_four_tensor_reference(n, mat):
    """(<W, W^2>, <W, W#>) as cubic_parts formed them on the four-index expansion."""
    four = pair_matrix_to_four_tensor(n, mat)
    M, w = four_tensor_to_pair_matrix(n, four), _pair_slots(four)
    return np.sum(M * (M @ M), axis=(-2, -1)), 0.5 * np.sum(w * (w @ w), axis=(-2, -1))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("count", [1, 7, 64])
def test_pair_native_kernels_keep_the_four_tensor_bits(n, count):
    """bianchi_image, weyl_matrix, pair_slots, pair_ricci, cubic_parts and sharp_matrix
    against their four-index routes, bit for bit (signed zeros and NaN payloads
    included), on symmetric, non-symmetric, sparse, zero, -0.0 and non-finite pair
    matrices; weyl_matrix takes the symmetric part, so its route starts from that."""
    N = pair_basis(n).size
    raw = rng.uniform(-1.0, 1.0, size=(count, N, N))
    sparse = -symmetrized(raw) * (rng.uniform(size=(count, N, N)) < 0.1)
    bad = symmetrized(raw)
    bad[0, 0, 1] = np.nan
    bad[-1, 2, 2] = np.inf
    other = rng.uniform(-1.0, 1.0, size=(count, N, N))
    with np.errstate(invalid="ignore", over="ignore"):
        for mat in (raw, symmetrized(raw), sparse, np.zeros_like(raw), -np.zeros_like(raw), bad):
            four = pair_matrix_to_four_tensor(n, mat)
            assert _same_bits(bianchi_image(n, mat), bianchi_image_four_tensor_reference(n, mat))
            assert _same_bits(weyl_matrix(n, mat),
                              weyl_matrix_four_tensor_reference(n, symmetrized(mat)))
            assert _same_bits(pair_slots(n, mat), _pair_slots(four))
            assert _same_bits(pair_ricci(n, mat), ricci_trace(four))
            for got, expect in zip(cubic_parts(n, mat), cubic_parts_four_tensor_reference(n, mat)):
                assert _same_bits(got, expect)
            for a, b in ((mat, other), (other, mat), (mat, mat)):
                expect = four_tensor_to_pair_matrix(n, sharp_four(
                    pair_matrix_to_four_tensor(n, a), pair_matrix_to_four_tensor(n, b)))
                assert _same_bits(sharp_matrix(n, a, b), expect)
        image, W = bianchi_image(n, bad), weyl_matrix(n, bad)
    assert np.isnan(image[0]).any() and np.isnan(W[0]).any() and not np.isfinite(W[-1]).all()
    if count > 2:  # each sample keeps its own entries
        assert np.isfinite(image[1]).all() and np.isfinite(W[1]).all()


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("count", [1, 7, 64])
def test_curvature_action_matches_the_four_index_einsum(n, count):
    """R(h) from slot matrices against the einsum on the four-index expansion at 1e-13
    relative, each object of a batch bit for bit as alone, quadratic_form likewise, and
    the identity mapped to the Ricci trace."""
    N = pair_basis(n).size
    R = curvature_from_uniform(n, uniform(rng, count, N, N))
    h = uniform(rng, count, n, n)
    X = pair_slots(n, R)
    got, expect = curvature_action(X, h), ricci_trace(pair_matrix_to_four_tensor(n, R), h)
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
    _assert_batch_equals_single(curvature_action, X, h)
    _assert_batch_equals_single(quadratic_form, X, symmetrized(h))
    A = symmetrized(h)
    qf = np.einsum('...ijkl,...ik,...jl->...', pair_matrix_to_four_tensor(n, R), A, A)
    assert np.abs(quadratic_form(X, A) - qf).max() <= 1e-13 * np.abs(qf).max()
    assert np.allclose(curvature_action(X, np.eye(n)), pair_ricci(n, R), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_curvature_action_is_self_adjoint_on_symmetric_forms(n):
    """<h, R(k)> = <R(h), k> for symmetric h and k (R_ipjq = R_jqip)."""
    X = pair_slots(n, random_curvature(rng, n).mat)
    for _ in range(5):
        h, k = random_symmetric(rng, n), random_symmetric(rng, n)
        lhs, rhs = frobenius(h, curvature_action(X, k)), frobenius(curvature_action(X, h), k)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sharp_from_slot_matrices_keeps_the_sharp_matrix_bits(n):
    """sharp_slots on slot matrices gathered once per operand is sharp_matrix, bit for bit,
    for A # B and, with one operand copied to its own buffer, for A # A."""
    N = pair_basis(n).size
    A, B = (symmetrized(rng.uniform(-1.0, 1.0, size=(3, N, N))) for _ in range(2))
    XA, XB = pair_slots(n, A), pair_slots(n, B)
    assert _same_bits(sharp_slots(n, XA, XB), sharp_matrix(n, A, B))
    assert _same_bits(sharp_slots(n, XB, XA), sharp_matrix(n, B, A))
    assert _same_bits(sharp_slots(n, XA, XA.copy()), sharp_matrix(n, A, A))


@pytest.mark.parametrize("n", range(4, 11))
@pytest.mark.parametrize("count", [1, 7, 64])
def test_triple_pair_kernels_keep_the_five_index_bits(n, count):
    """second_bianchi_pairs, circ_prime_pairs and pair_divergence against the (triple, pair)
    components of their five-index routes, bit for bit (signed zeros and NaN payloads
    included), on random, sparse, zero, -0.0 and non-finite inputs; circ_prime_pairs takes
    (count, N, n) pair components and its route their (n, n, n) expansions."""
    N = pair_basis(n).size
    D = rng.uniform(-1.0, 1.0, size=(count, n, N, N))
    a = rng.uniform(-1.0, 1.0, size=(count, N, n))
    bad_D, bad_a = D.copy(), a.copy()
    bad_D[0, 0, N - 1, 2] = np.nan  # D_0,(n-2)(n-1) enters B_0(n-2)(n-1)
    bad_D[-1, n - 1, 0, 1] = np.inf
    bad_D[-1, n - 1, 0, 0] = -np.inf
    bad_a[0, 0, 2] = np.nan  # A_012
    bad_a[0, pair_basis(n).pos[1, 2], 3] = np.nan  # A_123, also gathered as A_213 = -A_123
    bad_a[-1, 1, 1] = np.inf  # A_021
    bad_a[-1, pair_basis(n).pos[1, 2], 0] = -np.inf
    with np.errstate(invalid="ignore"):
        for d, x in ((D, a), (-D * (D < -0.8), a * (a > 0.8)), (bad_D, bad_a),
                     (np.zeros_like(D), -np.zeros_like(a)), (-np.zeros_like(D), np.zeros_like(a))):
            full = pair_matrix_to_four_tensor(n, d)
            assert _same_bits(second_bianchi_pairs(n, d),
                              full5_to_triple_pair(n, second_bianchi_full(full)))
            assert _same_bits(pair_divergence(n, d),
                              full3_to_pair_form(n, np.einsum('...mabcm->...abc', full)))
            x_full = np.stack([pair_form_to_full3(n, c) for c in x])
            assert _same_bits(circ_prime_pairs(n, x),
                              full5_to_triple_pair(n, circ_prime_full(x_full)))
        sb, cp = second_bianchi_pairs(n, bad_D), circ_prime_pairs(n, bad_a)
    assert np.isnan(sb[0]).any() and np.isnan(cp[0]).any()
    assert not np.isfinite(sb[-1]).all() and not np.isfinite(cp[-1]).all()
    if count > 2:  # each sample keeps its own entries
        assert np.isfinite(sb[1]).all() and np.isfinite(cp[1]).all()


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_weyl_matrix_is_orthogonally_equivariant(n):
    """W(A.T) = A.W(T) for orthogonal A moving all four indices (the pair congruence)."""
    N = pair_basis(n).size
    T = symmetrized(rng.uniform(-1.0, 1.0, size=(3, N, N)))
    A, _ = np.linalg.qr(rng.standard_normal((n, n)))
    expect = pair_congruence(weyl_matrix(n, T), A)
    assert np.abs(weyl_matrix(n, pair_congruence(T, A)) - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_two_form_one_form_kernels_are_orthogonally_equivariant(n):
    """pair_divergence and circ_prime_pairs commute with a seeded orthogonal A moving every
    index, rotated through the full expansions: an oracle independent of the bit tests,
    which share the kernels' index tables."""
    N = pair_basis(n).size
    A = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
    def rotate3(c): return full3_to_pair_form(n, rotated(pair_form_to_full3(n, c), A))
    D = rng.uniform(-1.0, 1.0, size=(n, N, N))
    D_rot = four_tensor_to_pair_matrix(n, rotated(pair_matrix_to_four_tensor(n, D), A))
    expect = rotate3(pair_divergence(n, D))
    assert np.abs(pair_divergence(n, D_rot) - expect).max() <= 1e-13 * np.abs(expect).max()
    a = rng.uniform(-1.0, 1.0, size=(N, n))
    expect = full5_to_triple_pair(n, rotated(triple_pair_to_full5(n, circ_prime_pairs(n, a)), A))
    assert np.abs(circ_prime_pairs(n, rotate3(a)) - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_audit_samples_are_the_typed_tensors(n):
    """The audit reads the operator the typed path holds: random_weyl_batch's pair
    matrices are each sample's CurvatureTensor.mat, and its bound terms are
    cubic_bound_eval's, bit for bit."""
    mats = random_weyl_batch(rng, n, 16)
    t = weyl_bound_terms(n, mats)
    for i in range(16):
        W = CurvatureTensor(n, mats[i])
        assert _same_bits(W.mat, mats[i])
        cb = cubic_bound_eval(W)
        assert (cb.lhs, cb.eig_bound, cb.norm_bound, cb.lhs_dot_only, cb.eig_bound_signed) == (
            float(t["lhs"][i]), float(t["eig_bound"][i]), float(t["norm_bound"][i]),
            float(t["lhs_dot"][i]), float(t["signed_bound"][i]) if n == 5 else None)


def test_weyl_split_with_metric_is_frame_invariant():
    """In coordinates with metric g the split agrees with the orthonormal-frame split."""
    n = 5
    R = random_curvature(rng, n)
    A = np.eye(n) + 0.2 * rng.uniform(-1.0, 1.0, size=(n, n))
    F = np.linalg.inv(A)  # frame e_i = F_ai d_a is orthonormal for g = A^T A
    g, gi = A.T @ A, np.linalg.inv(A.T @ A)
    R_coords = pair_congruence(R.mat, A)
    Rc = ricci_trace(pair_matrix_to_four_tensor(n, R_coords), gi)
    split = weyl_split(n, R_coords, Rc, np.einsum('ij,ij->', Rc, gi), g)
    frame = weyl_parts(n, R.mat)
    assert np.allclose(pair_congruence(split.W, F), frame.W, atol=1e-12)
    assert float(split.S) == pytest.approx(float(frame.S), abs=1e-12)
    W_four = congruence_four(pair_matrix_to_four_tensor(n, split.W), F)
    assert np.allclose(W_four, frame_weyl_split(R.four()).W, atol=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_sharp_four_matches_einsum_reference(n):
    A, B = _curvature_batch(n, 2)
    assert np.allclose(sharp_four(A, B), sharp_einsum_reference(A, B), atol=1e-13)
    batch = sharp_four(_curvature_batch(n, 3), _curvature_batch(n, 3))
    assert batch.shape == (3,) + (n,) * 4


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_circ_prime_placement_matches_einsum_reference_bitwise(n):
    a = generic_two_form_one_form(n).full()
    assert np.array_equal(circ_prime_full(a), circ_prime_einsum_reference(a))
    general = rng.uniform(-1.0, 1.0, size=(n, n, n))  # no antisymmetry either
    assert np.array_equal(circ_prime_full(general), circ_prime_einsum_reference(general))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_u_tensor_placement_matches_einsum_reference(n):
    """The pair matrices U_I = A_I W + (A_I W)^T are those of u_ij read off the full n^6
    u-tensor of W's expansion, which pins the sign convention of the generator table, and
    both sums agree with the n^6 sums to round-off, for T = W and for an unrelated curvature
    T (a wrong sign on some A_I flips the G_IK that pair it with the others).  The pair sums
    add in another order than one sum over the whole array, so the bits are pinned by the
    exact integer check below, not here."""
    pb = pair_basis(n)
    for _ in range(3):
        W, R = random_weyl(rng, n), random_curvature(rng, n)
        AW = _pair_generators(n) @ W.mat
        u = u_tensor_einsum(W.four())
        expect = four_tensor_to_pair_matrix(n, np.moveaxis(u[..., pb.rows, pb.cols], -1, 0))
        assert np.allclose(AW + np.swapaxes(AW, -1, -2), expect, rtol=0, atol=1e-13)
        for T in (W, R):
            norm_sum, contracted = u_tensor_contractions(n, W.mat, T.mat)
            ref_norm, ref_cubic = u_tensor_einsum_reference(W.four(), T.four())
            assert contracted == pytest.approx(-ref_cubic / 8.0, rel=1e-14)
            assert norm_sum == pytest.approx(ref_norm, rel=1e-14)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_u_tensor_sums_are_exact_on_integer_tensors(n):
    """On symmetric integer pair matrices every partial sum is an exact integer, so both
    sums equal the int64 evaluation of the reference bit for bit, whatever order they are
    added in."""
    ints = np.random.default_rng(n).integers(-8, 9, size=(3, 2) + (pair_basis(n).size,) * 2)
    for W, T in ints + np.swapaxes(ints, -1, -2):
        norm_sum, contracted = u_tensor_contractions(n, W.astype(float), T.astype(float))
        ref_norm, ref_cubic = u_tensor_einsum_reference(
            *(pair_matrix_to_four_tensor(n, X.astype(float)).astype(np.int64) for X in (W, T)))
        assert ref_norm.dtype == np.int64 and ref_cubic.dtype == np.int64
        assert norm_sum.hex() == float(ref_norm).hex()
        assert contracted.hex() == (-float(ref_cubic) / 8.0).hex()


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_u_tensor_contracted_against_its_curvature(n):
    """Contracted against R itself, the u-tensor of R's Weyl part W gives
    8 <W, W^2 + W#> - 4 <Rc o g, W^2> with the full Ricci form Rc (ROADMAP item 8)."""
    R = random_curvature(rng, n)
    split = weyl_parts(n, R.mat)
    W, Rc = split.W, split.Rc
    _, contracted = u_tensor_contractions(n, W, R.mat)
    expect = 8.0 * sum(cubic_parts(n, W)) - 4.0 * kn_g_pairing(Rc, W)
    assert contracted == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_u_tensor_sums_are_invariant_and_homogeneous(n):
    """Both sums are O(n)-invariant when W and T turn together, and scaling both by
    2^(+-20) scales them by its square and cube bit for bit."""
    W, R = random_weyl(rng, n), random_curvature(rng, n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    sums = u_tensor_contractions(n, W.mat, R.mat)
    turned = u_tensor_contractions(n, *(pair_congruence(X.mat, Q) for X in (W, R)))
    for value, rotated in zip(sums, turned):
        assert rotated == pytest.approx(value, rel=1e-12)
    for scale in (2.0 ** 20, 2.0 ** -20):
        norm_sum, contracted = u_tensor_contractions(n, scale * W.mat, scale * R.mat)
        assert norm_sum == scale ** 2 * sums[0] and contracted == scale ** 3 * sums[1]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_sharp_matrix_is_the_pair_matrix_of_sharp_four(n):
    """Bit for bit, signed zeros included, on single pair matrices and stacks of any
    leading shape with no pair symmetry, and on curvature tensors."""
    local = np.random.default_rng(100 + n)
    N = pair_basis(n).size
    for shape in [(), (1,), (3,), (2, 4)]:
        A = local.uniform(-1.0, 1.0, size=shape + (N, N))
        B = local.uniform(-1.0, 1.0, size=shape + (N, N))
        for a, b in ((A, B), (B, A), (A, A)):
            expect = four_tensor_to_pair_matrix(n, sharp_four(
                pair_matrix_to_four_tensor(n, a), pair_matrix_to_four_tensor(n, b)))
            assert _same_bits(sharp_matrix(n, a, b), expect)
    R, S = four_tensor_to_pair_matrix(n, _curvature_batch(n, 2))
    expect = four_tensor_to_pair_matrix(n, sharp_four(pair_matrix_to_four_tensor(n, R),
                                                      pair_matrix_to_four_tensor(n, S)))
    assert _same_bits(sharp_matrix(n, R, S), expect)


def so_structure_constants(n):
    """C[(a, b), c] = <[e_a, e_b], e_c> on so(n), e_a = E_ij - E_ji for the pair a = (i, j),
    orthonormal for <X, Y> = -tr(XY)/2: the pair basis of the operator convention."""
    pb = pair_basis(n)
    E = np.zeros((pb.size, n, n))
    for a, (i, j) in enumerate(pb.pairs):
        E[a, i, j], E[a, j, i] = 1.0, -1.0
    bracket = E[:, None] @ E[None] - E[None] @ E[:, None]
    return 0.5 * np.einsum('abij,cij->abc', bracket, E).reshape(pb.size ** 2, pb.size)


@pytest.mark.parametrize("n", [4, 5, 8])
def test_sharp_matrix_matches_the_structure_constant_oracle(n):
    """R # S = (1/2) C^T (R (x) S) C from the so(n) structure constants (Hamilton 1986),
    with no four-index tensor, on curvature operators, self-adjoint operators and pair
    matrices with no symmetry."""
    C = so_structure_constants(n)
    N = pair_basis(n).size
    pairs = [(random_curvature(rng, n).mat, random_curvature(rng, n).mat),
             (random_operator(rng, n).mat, random_weyl(rng, n).mat),
             tuple(rng.uniform(-1.0, 1.0, size=(2, N, N)))]
    for R, S in pairs:
        oracle = 0.5 * C.T @ np.kron(R, S) @ C
        got = sharp_matrix(n, R, S)
        assert np.abs(got - oracle).max() <= 1e-14 * np.abs(oracle).max()


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_reindex_product_matches_the_three_operand_einsum(n):
    """sum_ijklpq W_ijkl W_jplq R_ipkq / 2 = <X X, R'> / 2 with X[(i,k),(j,l)] = W_ijkl
    and R'[(i,k),(p,q)] = R_ipkq, on tensors with no index symmetry."""
    local = np.random.default_rng(200 + n)
    for _ in range(3):
        W4, R4 = local.uniform(-1.0, 1.0, size=(2,) + (n,) * 4)
        X = _pair_slots(W4)
        product = 0.5 * float(frobenius(X @ X, _pair_slots(R4)))
        assert product == pytest.approx(float(reindex_einsum_reference(W4, R4)), rel=1e-13)


def test_stacked_curvature_check_names_one_bad_object():
    """In the suite's (6, B, N, N) container check every object keeps its own
    scale, and one asymmetric or Bianchi-violating object raises the
    container's message."""
    n = 5
    mats = four_tensor_to_pair_matrix(n, _curvature_batch(n, 12)).reshape(6, 2, 10, 10)
    mats[3, 0] *= 1e6
    got = suite._curvature(n, mats.copy())
    assert got.shape == (6, 2, 10, 10)
    for a in range(6):  # the stack gives each object's bits of a check per object
        assert np.array_equal(got[a], suite._curvature(n, mats[a]))
    bad = mats.copy()
    bad[3, 1, 0, 4] += 1e-6  # within tolerance at its 1e6-scaled neighbour's scale, not its own
    with pytest.raises(ValueError, match="pair-basis matrix must be symmetric"):
        suite._curvature(n, bad)
    bad = mats.copy()
    bad[4, 0, 0, 7] += 1.0  # R_0123 = R_2301 += 1 puts 1/3 into the cyclic sum b_0123
    bad[4, 0, 7, 0] += 1.0
    with pytest.raises(ValueError, match="first Bianchi identity violated"):
        suite._curvature(n, bad)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_cubic_parts_match_operator_products(n):
    W = random_weyl(rng, n)
    square, sharp = cubic_parts(n, W.mat)
    assert float(square) == pytest.approx(float(np.sum(W.mat * dot_product(W, W).mat)),
                                          abs=1e-12)
    assert float(sharp) == pytest.approx(float(np.sum(W.mat * sharp_product(W, W).mat)),
                                         abs=1e-12)


def test_cubic_parts_determinant_identities_n4():
    for _ in range(5):
        block = random_symmetric(rng, 3)
        block -= np.trace(block) / 3.0 * np.eye(3)
        square, sharp = cubic_parts(4, embed_block(block).mat)
        det = float(np.linalg.det(block))
        assert float(square) == pytest.approx(3.0 * det, abs=1e-13)
        assert float(sharp) == pytest.approx(6.0 * det, abs=1e-13)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_congruence_four_matches_einsum_reference(n):
    """L^T T L with L = (1/2) A o A is the pair matrix of all four indices of T's expansion
    moved by A, for A neither symmetric nor orthogonal; the four-index route of
    tests/reference.py (congruence_four) agrees too."""
    N = pair_basis(n).size
    T = rng.uniform(-1.0, 1.0, size=(N, N))  # no pair symmetry
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    T4 = pair_matrix_to_four_tensor(n, T)
    expect = four_tensor_to_pair_matrix(n, frame_rotation_einsum_reference(A, T4))
    assert np.abs(pair_congruence(T, A) - expect).max() <= 1e-13 * np.abs(expect).max()
    assert np.abs(congruence_four(T4, A)
                  - frame_rotation_einsum_reference(A, T4)).max() <= 1e-13 * np.abs(expect).max()
    assert pair_congruence(np.stack([T, 2.0 * T]), A).shape == (2, N, N)


@pytest.mark.parametrize("n", [4, 5, 8])
def test_pair_congruence_is_multiplicative(n):
    """Lambda^2(AB) = Lambda^2 A Lambda^2 B for L = (1/2) A o A (Cauchy-Binet), so the
    congruence by AB is the congruence by A, then by B."""
    A, B = rng.uniform(-1.0, 1.0, size=(2, n, n))
    lam = [0.5 * kn_matrix(X, X) for X in (A @ B, A, B)]
    assert np.abs(lam[0] - lam[1] @ lam[2]).max() <= 1e-14 * max(1.0, np.abs(lam[0]).max())


@pytest.mark.parametrize("n", [4, 5, 8])
def test_congruence_four_takes_one_matrix_per_object(n):
    """A may carry T's batch axis: every object of the pair congruence keeps the bits it
    has alone, and every object of congruence_four those of the np.kron congruence."""
    N = pair_basis(n).size
    T = rng.uniform(-1.0, 1.0, size=(6, N, N))
    A = rng.uniform(-1.0, 1.0, size=(6, n, n))
    T4 = pair_matrix_to_four_tensor(n, T)
    batched, batched_four = pair_congruence(T, A), congruence_four(T4, A)
    for b in range(6):
        assert batched[b].tobytes() == pair_congruence(T[b], A[b]).tobytes()
        K = np.kron(A[b], A[b])
        kron = (K.T @ T4[b].reshape(n * n, n * n) @ K).reshape((n,) * 4)
        assert batched_four[b].tobytes() == kron.tobytes()


def _chart_w_norm_sq(W, gi):
    """The chart's |W|^2_g of one pair matrix W under one g^-1 (a lattice of one row)."""
    return float(_w_norm_sq_at(SimpleNamespace(W=W[None], gi=gi[None]), slice(None))[0])


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_weyl_norm_with_metric_matches_einsum_reference(n):
    """The chart's (1/4) <W, G W G^T>, G = g^-1 o g^-1 on pair matrices, is the
    six-operand contraction of W's expansion."""
    W = frame_weyl_split(_curvature_batch(n, 1)[0]).W
    gi = _inverse_metric(n)
    value = _chart_w_norm_sq(four_tensor_to_pair_matrix(n, W), gi)
    assert value == pytest.approx(w_norm_sq_einsum_reference(W, gi), rel=1e-13)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_weyl_norm_with_metric_is_coordinate_invariant(n):
    """|W|^2_g is unchanged when W and g^-1 move to new coordinates x = P y."""
    W = four_tensor_to_pair_matrix(n, frame_weyl_split(_curvature_batch(n, 1)[0]).W)
    gi = _inverse_metric(n)
    P = np.eye(n) + 0.3 * rng.uniform(-1.0, 1.0, size=(n, n))
    Pi = np.linalg.inv(P)
    before = _chart_w_norm_sq(W, gi)
    after = _chart_w_norm_sq(pair_congruence(W, P), Pi @ gi @ Pi.T)
    assert after == pytest.approx(before, rel=1e-12)


def _weyl_space_basis(n):
    """Orthonormal rows spanning the algebraic Weyl tensors as flattened (N, N) pair matrices:
    the right singular vectors of ``weyl_matrix`` over the symmetric pair matrices' unit basis
    (E_ab + E_ba), cut at a relative singular value of 1e-10."""
    N = pair_basis(n).size
    rows, cols = np.triu_indices(N)
    S = np.zeros((len(rows), N, N))
    S[np.arange(len(rows)), rows, cols] = S[np.arange(len(rows)), cols, rows] = 1.0
    _, sv, vt = np.linalg.svd(weyl_matrix(n, S).reshape(len(rows), N * N), full_matrices=False)
    return vt[:np.sum(sv > 1e-10 * sv[0])]


#: dim K = dim ker(second Bianchi) on R^n (x) W, n = 4..7; n = 8 (1,400) takes 3 s
SECOND_BIANCHI_KERNEL_DIMS = {4: 24, 5: 105, 6: 300, 7: 693}


@pytest.mark.parametrize("n", sorted(SECOND_BIANCHI_KERNEL_DIMS))
def test_second_bianchi_kernel_gives_the_sharp_refined_kato_constant(n):
    """K = ker(second Bianchi) on R^n (x) W, W the algebraic Weyl tensors, holds the
    derivatives nabla W of harmonic Weyl curvature, and sup |nabla |W||^2 / |nabla W|^2 over it
    is lambda_max(K_1^T K_1), K_1 the e_1 block of an orthonormal basis of K (O(n)-invariance
    turns the gradient of |W| into e_1): the refined Kato constant (n-1)/(n+1) the chart's
    kato_improved_margin reads.  dim W = n(n+1)(n+2)(n-3)/12; the eigenvalues of K_1 K_1^T lie
    in [1/2, (n-1)/(n+1)], all 3/5 at n = 4, where every Weyl tensor attains the constant."""
    N, Wb = pair_basis(n).size, _weyl_space_basis(n)
    d = len(Wb)
    assert d == n * (n + 1) * (n + 2) * (n - 3) // 12
    images = []  # the second-Bianchi (T, N) images of e_m (x) w_a, column m d + a
    for m in range(n):
        D = np.zeros((d, n, N, N))
        D[:, m] = Wb.reshape(d, N, N)
        images.append(second_bianchi_pairs(n, D).reshape(d, -1))
    _, sv, vt = np.linalg.svd(np.concatenate(images).T)
    K = vt[np.sum(sv > 1e-10 * sv[0]):].T  # orthonormal columns spanning the kernel
    assert K.shape[1] == SECOND_BIANCHI_KERNEL_DIMS[n]
    K1, sharp = K[:d], (n - 1) / (n + 1)
    assert abs(np.linalg.eigvalsh(K1.T @ K1).max() - sharp) <= 1e-12
    block = np.linalg.eigvalsh(K1 @ K1.T)
    assert 0.5 - 1e-12 <= block.min() and block.max() <= sharp + 1e-12
    if n == 4:
        assert np.abs(K1 @ K1.T - 0.6 * np.eye(d)).max() <= 1e-12
