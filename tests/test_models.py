"""Model-space catalog: closed-form curvature and the symmetric-space residuals."""

import numpy as np
import pytest

from weylbench.algebra import (bochner_curvature_term, cubic_parts, decompose, kn_four,
                               kn_g_pairing, ricci_contraction)
from weylbench.basis import _pair_generators, pair_basis
from weylbench.models import (
    MAX_CURVATURE_SCALE,
    CurvaturePackage,
    Factor,
    ModelSpec,
    closed_form_ricci,
    model_curvature,
    package_consistency,
    parse_model_spec,
    symmetric_space_identity_report,
)
from weylbench.sampling import random_curvature
from weylbench.tensors import CurvatureTensor, Operator2Form

from reference import pure_matrix_from_weyl

CATALOG = [
    "sphere:4:1.0",
    "sphere:5:2.0",
    "hyperbolic:5:1.0",
    "euclidean:4",
    "product:sphere:2:1.0,sphere:2:1.0",
    "product:sphere:3:1.0,sphere:2:1.0",
    "product:sphere:3:1.0,sphere:3:1.0",
    "product:sphere:2:1.0,sphere:2:1.0,sphere:2:1.0",
    "product:hyperbolic:2:1.0,sphere:2:1.0",
    "product:hyperbolic:3:1.0,sphere:3:1.0",
    "fubini_study:2",
    "fubini_study:3",
]


def test_parse_model_spec_strings():
    spec = parse_model_spec("sphere:4:1.0")
    assert spec.kind == "sphere" and spec.dim == 4 and spec.radius == 1.0
    spec = parse_model_spec("product:sphere:2:1.0,sphere:2:1.0")
    assert spec.kind == "product" and len(spec.factors) == 2 and spec.n == 4
    spec = parse_model_spec("fubini-study:2")
    assert spec.kind == "fubini_study" and spec.n == 4
    with pytest.raises(ValueError):
        parse_model_spec("torus:3")
    with pytest.raises(ValueError):
        parse_model_spec("product:sphere:2:1.0")


def test_factor_validation():
    with pytest.raises(ValueError):
        Factor("sphere", 1, 1.0)
    with pytest.raises(ValueError):
        Factor("sphere", 2, -1.0)
    with pytest.raises(ValueError):
        Factor("plane", 2, 1.0)


def test_sphere_package_values():
    pkg = model_curvature(parse_model_spec("sphere:4:1.0"))
    assert pkg.S == pytest.approx(12.0)
    dec = decompose(pkg.R)
    assert np.abs(dec.E).max() < 1e-13
    assert np.abs(dec.weyl.mat).max() < 1e-13


def test_hyperbolic_package_values():
    pkg = model_curvature(parse_model_spec("hyperbolic:5:1.0"))
    assert pkg.S == pytest.approx(-20.0)
    assert np.abs(decompose(pkg.R).weyl.mat).max() < 1e-13


def test_product_package_operator():
    pkg = model_curvature(parse_model_spec("product:sphere:2:1.0,sphere:2:1.0"))
    assert pkg.S == pytest.approx(4.0)
    assert np.allclose(pkg.R.mat, np.diag([1.0, 0, 0, 0, 0, 1.0]), atol=1e-14)
    assert np.abs(decompose(pkg.R).E).max() < 1e-13


def test_sphere_radius_scaling():
    pkg = model_curvature(parse_model_spec("sphere:5:2.0"))
    assert pkg.S == pytest.approx(5 * 4 / 4.0)


def test_fubini_study_einstein():
    pkg = model_curvature(parse_model_spec("fubini_study:2"))
    assert pkg.S == pytest.approx(24.0)
    assert np.allclose(pkg.Rc, 6.0 * np.eye(4), atol=1e-13)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_fubini_study_einstein_constant(m):
    """Unit Fubini-Study CP^m (holomorphic sectional curvature 4) is Einstein with
    Rc = 2(m + 1) g and S = 4m(m + 1); the closed form the consistency rows use agrees."""
    pkg = model_curvature(parse_model_spec(f"fubini-study:{m}"))
    assert np.array_equal(pkg.Rc, 2.0 * (m + 1) * np.eye(2 * m))
    assert pkg.S == 4.0 * m * (m + 1)
    assert np.array_equal(closed_form_ricci(pkg.spec), pkg.Rc)


def test_closed_form_ricci_of_a_product():
    spec = parse_model_spec("product:sphere:2:0.5,hyperbolic:3:2.0,euclidean:2")
    assert np.array_equal(closed_form_ricci(spec), np.diag([4.0] * 2 + [-0.5] * 3 + [0.0] * 2))


@pytest.mark.parametrize("wrong", ["sphere:4:2.0", "hyperbolic:4:1.0",
                                   "product:sphere:2:1.0,sphere:2:1.0", "fubini-study:2"])
def test_consistency_rows_catch_a_curvature_the_spec_does_not_imply(wrong):
    """A package whose R (and the Rc and S read off it) is not the spec's fails the ricci
    and scalar rows: they compare against the spec's closed form, not against R itself."""
    pkg = model_curvature(parse_model_spec(wrong))
    claimed = CurvaturePackage(spec=parse_model_spec("sphere:4:1.0"), R=pkg.R, Rc=pkg.Rc, S=pkg.S)
    res = package_consistency(claimed)
    assert res["ricci"] > 0.1 and res["scalar"] > 0.1, res


@pytest.mark.parametrize("spec", CATALOG)
def test_catalog_consistency(spec):
    pkg = model_curvature(parse_model_spec(spec))
    res = package_consistency(pkg)
    for name, value in res.items():
        assert value <= 1e-10 * max(1.0, abs(pkg.S)), (spec, name, value)


@pytest.mark.parametrize("spec", CATALOG)
def test_catalog_identity_residuals(spec):
    pkg = model_curvature(parse_model_spec(spec))
    if pkg.R.n < 4:
        return
    rep = symmetric_space_identity_report(pkg)
    scale = max(1.0, abs(pkg.S)) ** 3
    assert abs(rep["r1"]) <= 1e-10 * scale, spec
    assert abs(rep["r2"]) <= 1e-10 * scale, spec


@pytest.mark.parametrize("spec", CATALOG)
def test_bochner_kernel_is_the_report_r1(spec):
    """bochner_curvature_term is r1 = 2 <W, W^2 + W#> - <Rc o g, W^2> formed term by term,
    bit for bit, on the catalogue and on a generic curvature of the same dimension."""
    pkg = model_curvature(parse_model_spec(spec))
    n = pkg.R.n
    R = random_curvature(np.random.default_rng(n), n)
    generic = CurvaturePackage(pkg.spec, R, ricci_contraction(R), 0.0)
    for p in (pkg, generic):
        W = decompose(p.R).weyl.mat
        r1 = 2.0 * float(sum(cubic_parts(n, W))) - float(kn_g_pairing(p.Rc, W))
        assert float(bochner_curvature_term(n, p.Rc, W)).hex() == r1.hex()
        assert symmetric_space_identity_report(p)["r1"].hex() == r1.hex()


def test_s3_x_s2_values():
    # non-Einstein parallel-Ricci product: frozen traceless Ricci spectrum
    pkg = model_curvature(parse_model_spec("product:sphere:3:1.0,sphere:2:1.0"))
    assert pkg.S == pytest.approx(8.0)
    dec = decompose(pkg.R)
    eigs = np.sort(np.linalg.eigvalsh(dec.E))
    assert np.allclose(eigs, [-0.6, -0.6, 0.4, 0.4, 0.4], atol=1e-13)
    rep = symmetric_space_identity_report(pkg)
    # W(E, E) computed independently from the pure-curvature matrix
    pm = pure_matrix_from_weyl(dec.weyl)
    e = np.diag(dec.E)
    w_ee = float(np.einsum('ij,i,j->', pm.w, e, e))
    assert w_ee == pytest.approx(2.0, rel=1e-12)
    assert abs(rep["r2"]) < 1e-12


def test_identity_residuals_are_lichnerowicz_curvature_terms():
    """On generic curvature, r1 and r2 of the identity report are Lichnerowicz curvature
    terms.  With (lam_a, v_a) the eigenpairs of R.mat,

        r1 = -1/2 sum_a lam_a |A_a W + W A_a^T|^2,   r2 = -1/2 sum_a lam_a |Xi_a E - E Xi_a|^2,

    where A_a = sum_I v_aI A_I is the action of the 2-form v_a on 2-forms (A_I from
    ``basis._pair_generators``), Xi_a the skew matrix with v_a at the index pairs, and
    the norms are Frobenius norms of pair matrices and of n x n matrices.  Over the unit
    2-forms the Casimir constants are sum_I |A_I W + W A_I^T|^2 = 4(n-1)|W|^2 and
    sum_I |[E_I, E]|^2 = 2n|E|^2.  Measured with |Xi.W|^2 the square sum over all n^4
    components (four times the pair-matrix norm), the W constants read -1/8 and 16(n-1),
    as ROADMAP.md writes them.  Over 20 draws at each n = 4..8 the eigen forms hold to
    1.3e-15 relative to the same sums with |lam_a|, and the Casimir constants to 4.5e-16
    relative: the gate of 1e-12 leaves a margin of about 800.
    """
    def act(A, W):  # |A W + W A^T|^2 for each matrix A of a stack
        return np.sum((A @ W + W @ np.swapaxes(A, 1, 2)) ** 2, axis=(1, 2))

    worst = np.zeros(4)
    for n in range(4, 9):
        pb, A = pair_basis(n), _pair_generators(n)
        rng = np.random.default_rng([7, n])

        def skew(V):  # the skew matrices of the 2-forms in the columns of V
            X = np.zeros((V.shape[1], n, n))
            X[:, pb.rows, pb.cols] = V.T
            return X - np.swapaxes(X, 1, 2)

        for _ in range(20):
            R = random_curvature(rng, n)
            Rc = ricci_contraction(R)
            rep = symmetric_space_identity_report(
                CurvaturePackage(spec=None, R=R, Rc=Rc, S=float(np.trace(Rc))))
            dec = decompose(R)
            W, E = dec.weyl.mat, dec.E
            lam, V = np.linalg.eigh(R.mat)
            on_w = act(np.tensordot(V.T, A, axes=1), W)
            on_e = act(skew(V), E)  # |Xi E - E Xi|^2, as Xi^T = -Xi
            casimir_w, casimir_e = act(A, W).sum(), act(skew(np.eye(pb.size)), E).sum()
            worst = np.maximum(worst, [
                abs(rep["r1"] + 0.5 * lam @ on_w) / (0.5 * np.abs(lam) @ on_w),
                abs(rep["r2"] + 0.5 * lam @ on_e) / (0.5 * np.abs(lam) @ on_e),
                abs(casimir_w / (4 * (n - 1) * np.sum(W * W)) - 1.0),
                abs(casimir_e / (2 * n * np.sum(E * E)) - 1.0)])
    assert (worst <= 1e-12).all(), worst


def test_product_pure_matrix_invariants():
    for spec in ("product:sphere:2:1.0,sphere:2:1.0",
                 "product:sphere:3:1.0,sphere:3:1.0",
                 "product:sphere:2:1.0,sphere:2:1.0,sphere:2:1.0"):
        pkg = model_curvature(parse_model_spec(spec))
        pure_matrix_from_weyl(decompose(pkg.R).weyl)  # raises on violation


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        model_curvature(ModelSpec(kind="sphere", dim=2))
    with pytest.raises(ValueError):
        model_curvature(ModelSpec(kind="fubini_study", complex_dim=1))
    for text in ("euclidean", "fubini-study", "euclidean:4:abc", "fubini-study:3:xyz",
                 "sphere:4:1.0:2", "product:sphere:2,euclidean"):
        with pytest.raises(ValueError):
            parse_model_spec(text)
    assert parse_model_spec("euclidean:4:2.0").dim == 4  # as a product factor reads it


@pytest.mark.parametrize("text", ["sphere:4:0", "sphere:4:-1", "hyperbolic:4:0",
                                  "hyperbolic:5:-2.0", "sphere:4:nan"])
def test_space_form_radius_must_be_positive(text):
    with pytest.raises(ValueError, match="radius"):
        model_curvature(parse_model_spec(text))


@pytest.mark.parametrize("text", ["sphere:4:3.9e-50", "hyperbolic:6:1e-60",
                                  "product:sphere:2:1e-55,hyperbolic:2:1e-55"])
def test_curvature_scale_is_bounded(text):
    """n^2 max|R| above MAX_CURVATURE_SCALE is refused, also where S cancels to 0."""
    with pytest.raises(ValueError, match="curvature scale"):
        model_curvature(parse_model_spec(text))


def test_curvature_scale_at_the_bound_is_accepted():
    pkg = model_curvature(parse_model_spec("sphere:4:4e-50"))
    assert 16 * np.abs(pkg.R.mat).max() == pytest.approx(MAX_CURVATURE_SCALE)


def _four_index_curvature(spec):
    """The catalogue's pair matrix as it was formed on four-index tensors: the sum of
    (sec_f / 2) g_f o g_f over the factors, or the Fubini-Study tensor, read back."""
    n = spec.n
    if spec.kind == "fubini_study":
        g, J = np.eye(n), np.zeros((n, n))
        for k in range(spec.complex_dim):
            J[2 * k + 1, 2 * k] = 1.0
            J[2 * k, 2 * k + 1] = -1.0
        four = 0.5 * (kn_four(g, g) + kn_four(J, J)) + 2.0 * np.einsum('ij,kl->ijkl', J, J)
    else:
        four, start = np.zeros((n, n, n, n)), 0
        for f in spec.factors or (Factor(spec.kind, n, spec.radius),):
            g = np.zeros((n, n))
            g[start:start + f.dim, start:start + f.dim] = np.eye(f.dim)
            four += 0.5 * f.sectional * kn_four(g, g)
            start += f.dim
    return CurvatureTensor.from_operator(Operator2Form.from_four_tensor(four)).mat


@pytest.mark.parametrize("text", [
    "sphere:4:1.0", "sphere:5:0.7", "hyperbolic:6:0.3", "euclidean:5",
    "product:sphere:2:0.5,hyperbolic:3:3.0,euclidean:2", "fubini-study:2", "fubini-study:3",
    "fubini-study:4", "fubini-study:5"])
def test_model_curvature_keeps_the_four_index_bits(text):
    spec = parse_model_spec(text)
    mat, reference = model_curvature(spec).R.mat, _four_index_curvature(spec)
    assert np.array_equal(mat, reference)
    assert np.array_equal(np.signbit(mat), np.signbit(reference))
