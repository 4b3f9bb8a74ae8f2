"""Basis bookkeeping and tensor-container invariants."""

import ast
import importlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from weylbench.basis import (
    four_tensor_to_pair_matrix,
    full3_to_pair_form,
    pair_basis,
    pair_form_to_full3,
    pair_matrix_to_four_tensor,
    triple_basis,
)
from weylbench.sampling import (random_operator, random_weyl, two_form_one_form_from_uniform,
                                uniform)
from weylbench.tensors import (
    EPS_ALG,
    CovDerivCurvature,
    CurvatureTensor,
    Operator2Form,
    PureCurvatureMatrix,
    ThreeTwoTensor,
    TwoFormOneForm,
    bianchi_residual,
    check_bianchi,
    check_small,
    check_symmetric,
    check_traceless,
    frobenius,
    inner,
    norm,
    within_tol,
)

from reference import cyclic_average, full5_to_triple_pair, three_two_from_full

rng = np.random.default_rng(42)


def test_pair_basis_roundtrip():
    for n in (2, 3, 4, 6):
        pb = pair_basis(n)
        assert pb.size == n * (n - 1) // 2
        for a, (i, j) in enumerate(pb.pairs):
            assert pb.pos[i, j] == a == pb.pos[j, i]
            assert pb.sign[i, j] == 1.0 and pb.sign[j, i] == -1.0
        assert pb.pairs == tuple(sorted(pb.pairs))


def test_pair_basis_rejects_degenerate_dimension():
    with pytest.raises(ValueError):
        pair_basis(1)


def test_triple_basis_signs():
    tb = triple_basis(4)
    assert tb.size == 4
    assert tb.triples == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


@pytest.mark.parametrize("n", [4, 5, 8])
def test_batched_expansions_are_c_order_and_batch_independent(n):
    """Each expansion of a stack is C-contiguous and equals the expansion of each
    object alone, and a per-object sum of squares keeps its bits at any batch size."""
    N = pair_basis(n).size
    stacks = [
        (pair_matrix_to_four_tensor, rng.uniform(-1.0, 1.0, size=(5, N, N))),
        (four_tensor_to_pair_matrix, rng.uniform(-1.0, 1.0, size=(5,) + (n,) * 4)),
        (full3_to_pair_form, rng.uniform(-1.0, 1.0, size=(5,) + (n,) * 3)),
        (full5_to_triple_pair, rng.uniform(-1.0, 1.0, size=(5,) + (n,) * 5)),
    ]
    for expand, stack in stacks:
        out = expand(n, stack)
        assert out.flags.c_contiguous
        squares = (out ** 2).reshape(5, -1).sum(axis=1)
        for b in range(5):
            single = expand(n, stack[b])
            assert np.array_equal(out[b], single)
            assert squares[b] == (single ** 2).sum()
            assert (expand(n, stack[b:b + 1]) ** 2).sum() == squares[b]


def test_pair_expansion_keeps_the_bits_of_two_sign_factors():
    """One sign[i, j] sign[k, l] factor gives the bits, signed zeros included, of
    multiplying the gathered entries by sign[i, j] and then by sign[k, l]."""
    n = 5
    pb = pair_basis(n)
    mat = rng.uniform(-1.0, 1.0, size=(3, pb.size, pb.size))
    mat[0, 0, :] = -0.0
    mat[1, :, 2] = 0.0
    padded = np.zeros((3, pb.size + 1, pb.size + 1))
    padded[:, :-1, :-1] = mat
    pos = np.where(pb.pos >= 0, pb.pos, pb.size)
    ref = (padded[:, pos[:, :, None, None], pos[None, None, :, :]]
           * pb.sign[:, :, None, None] * pb.sign[None, None, :, :])
    four = pair_matrix_to_four_tensor(n, mat)
    assert np.array_equal(four, ref)
    assert np.array_equal(np.signbit(four), np.signbit(ref))


def test_four_tensor_roundtrip():
    for n in (3, 4, 5):
        N = n * (n - 1) // 2
        m = rng.standard_normal((N, N))
        four = pair_matrix_to_four_tensor(n, m)
        assert np.allclose(four, -np.swapaxes(four, 0, 1))
        assert np.allclose(four, -np.swapaxes(four, 2, 3))
        back = four_tensor_to_pair_matrix(n, four)
        assert np.array_equal(back, m)


def test_operator_requires_symmetry():
    N = pair_basis(4).size
    m = rng.standard_normal((N, N))
    with pytest.raises(ValueError):
        Operator2Form(4, m)
    op = Operator2Form(4, m, require_self_adjoint=False)
    assert not op.is_self_adjoint()


def test_operator_component_accessor():
    op = random_operator(rng, 4)
    four = op.four()
    assert op.component(0, 1, 2, 3) == pytest.approx(four[0, 1, 2, 3])
    assert op.component(1, 0, 2, 3) == pytest.approx(-four[0, 1, 2, 3])
    assert op.component(0, 0, 2, 3) == 0.0


def test_operator_norm_is_quarter_of_full_contraction():
    op = random_operator(rng, 5)
    four = op.four()
    assert np.einsum('ijkl,ijkl->', four, four) == pytest.approx(4 * norm(op) ** 2)
    assert inner(op, op) == pytest.approx(norm(op) ** 2)


def test_frobenius_takes_empty_batches_and_sums_each_object_alone():
    assert frobenius(np.zeros((0, 6, 6)), np.zeros((0, 6, 6))).shape == (0,)
    assert frobenius(np.zeros((2, 0, 6, 6)), np.zeros((2, 0, 6, 6))).shape == (2, 0)
    for count in (1, 7, 64):
        a, b = rng.standard_normal((2, count, 10, 10))
        batch = frobenius(a, b)
        assert batch.shape == (count,)
        assert all(batch[k] == frobenius(a[k], b[k]) for k in range(count))


def test_norms_are_square_roots_of_the_one_inner_product():
    """Every norm is sqrt(frobenius), so |T|^2 and <T, T> agree to the bit."""
    for n in (4, 5, 7):
        op = random_operator(rng, n)
        assert norm(op) == np.sqrt(inner(op, op))
        slices = rng.standard_normal(CovDerivCurvature._shape(n))
        for t in (TwoFormOneForm(n, rng.standard_normal(TwoFormOneForm._shape(n))),
                  ThreeTwoTensor(n, rng.standard_normal(ThreeTwoTensor._shape(n))),
                  CovDerivCurvature(n, slices + np.swapaxes(slices, 1, 2))):
            flat = t.comps.reshape(-1)
            assert t.norm() == np.sqrt(frobenius(flat, flat))


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(random_operator(rng, 4), random_operator(rng, 5))


def test_curvature_tensor_rejects_bianchi_violation():
    # a generic symmetric operator has a nonzero totally antisymmetric part
    for _ in range(5):
        op = random_operator(rng, 4)
        try:
            CurvatureTensor(4, op.mat)
        except ValueError:
            return
    pytest.fail("no Bianchi violation detected on generic operators")


def test_two_form_one_form_norm_convention():
    a = rng.uniform(-1.0, 1.0, size=(5, 5, 5))  # 1-3 trace left in
    A = TwoFormOneForm.from_full(a - np.swapaxes(a, 0, 1))
    full = A.full()
    assert np.allclose(full, -np.swapaxes(full, 0, 1))
    assert 0.5 * np.einsum('ijk,ijk->', full, full) == pytest.approx(A.norm() ** 2)


def test_three_two_tensor_norm_convention():
    n = 5
    full = rng.standard_normal((n,) * 5)
    # antisymmetrize the leading three slots and trailing pair
    from itertools import permutations
    acc = np.zeros_like(full)
    for perm in permutations(range(3)):
        sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        acc += sign * np.transpose(full, perm + (3, 4))
    acc = (acc - np.transpose(acc, (0, 1, 2, 4, 3))) / 12.0
    t = three_two_from_full(acc)
    assert np.einsum('abcde,abcde->', acc, acc) / 12.0 == pytest.approx(t.norm() ** 2)


def test_cov_deriv_norm_convention():
    n = 4
    N = pair_basis(n).size
    comps = rng.standard_normal((n, N, N))
    comps = (comps + np.swapaxes(comps, 1, 2)) / 2
    D = CovDerivCurvature(n, comps)
    full = D.full()
    assert np.einsum('mabcd,mabcd->', full, full) == pytest.approx(4 * D.norm() ** 2)


def test_pure_matrix_invariants_enforced():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        PureCurvatureMatrix(2, w)  # rows do not sum to zero
    w = np.array([[0.5, -0.5], [-0.5, 0.5]])
    with pytest.raises(ValueError):
        PureCurvatureMatrix(2, w)  # nonzero diagonal
    good = np.array([[0.0, 0.0], [0.0, 0.0]])
    PureCurvatureMatrix(2, good)


# ------------------------------------------------ batch-aware basis kernels

def _batch_curvature(n, count, gen):
    """(count, n, n, n, n) first-Bianchi projections of random symmetric operators."""
    N = pair_basis(n).size
    m = gen.uniform(-1.0, 1.0, size=(count, N, N))
    four = pair_matrix_to_four_tensor(n, (m + np.swapaxes(m, -1, -2)) / 2.0)
    return four - cyclic_average(four)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("count", [1, 64])
def test_expanders_and_cyclic_average_batch_equals_single(n, count):
    N = pair_basis(n).size
    mats = rng.standard_normal((count, N, N))
    fours = pair_matrix_to_four_tensor(n, mats)
    assert fours.shape == (count, n, n, n, n)
    back = four_tensor_to_pair_matrix(n, fours)
    cyc = cyclic_average(fours)
    for b in range(count):
        assert np.array_equal(fours[b], pair_matrix_to_four_tensor(n, mats[b]))
        assert np.array_equal(back[b], four_tensor_to_pair_matrix(n, fours[b]))
        assert np.array_equal(cyc[b], cyclic_average(fours[b]))
    assert np.array_equal(back, mats)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_cyclic_average_kills_curvature_tensors(n):
    R4 = _batch_curvature(n, 3, rng)
    assert np.abs(cyclic_average(R4)).max() < 1e-14
    for b in range(3):
        assert bianchi_residual(CurvatureTensor(n, four_tensor_to_pair_matrix(n, R4[b]))) < 1e-14


@pytest.mark.parametrize("n", [4, 6, 8])
def test_cov_deriv_slices_round_trip(n):
    N = pair_basis(n).size
    c = rng.standard_normal((n, N, N))
    D = CovDerivCurvature(n, c + np.swapaxes(c, 1, 2))
    full = D.full()
    assert full.shape == (n,) * 5
    for m in range(n):
        assert np.array_equal(full[m], pair_matrix_to_four_tensor(n, D.comps[m]))
    assert np.array_equal(CovDerivCurvature.from_full(full).comps, D.comps)


def test_cov_deriv_from_full_refuses_a_tensor_not_antisymmetric_in_its_pairs():
    """A pair-symmetric five-index tensor symmetric in slots 1, 2 is refused, not read
    off at its entries a < b alone (where the defect g_ab g_cd vanishes)."""
    D = CovDerivCurvature(4, _cov_deriv_comps(1.0))
    odd = D.full() + np.einsum('m,ab,cd->mabcd', np.ones(4), np.eye(4), np.eye(4))
    assert np.array_equal(four_tensor_to_pair_matrix(4, odd), D.comps)
    with pytest.raises(ValueError, match="not antisymmetric in slots 1 and 2"):
        CovDerivCurvature.from_full(odd)


def test_trace_free_guard_rejects_nan_and_large_traces():
    check_small(np.zeros((3, 3)), np.ones((3, 3)), 1e-10, "ok")
    check_small(1e-11, 5.0 * np.ones((2, 2)), 1e-11, "scaled by the entries")
    for trace, entries in ((1e-3, np.eye(2)), (np.nan, np.eye(2)),
                           (0.0, np.array([[0.0, np.nan], [np.nan, 0.0]]))):
        with pytest.raises(ValueError, match="not trace-free"):
            check_small(trace, entries, 1e-10, "not trace-free")


def test_within_tol_is_the_scaled_bound_and_fails_on_non_finite():
    assert within_tol(1e-10, np.eye(2), 1e-10)
    assert within_tol(5e-10, 5.0 * np.eye(2), 1e-10)
    assert not within_tol(6e-10, 5.0 * np.eye(2), 1e-10)
    # an inf entry outside the residual would otherwise make every residual pass
    assert not within_tol(0.0, np.array([0.0, np.inf]), 1e-10)
    assert not within_tol(np.nan, np.eye(2), 1e-10)
    assert not within_tol(0.0, np.array([0.0, np.nan]), 1e-10)


def test_batched_tolerance_scales_each_object_by_its_own_entries():
    """With lead = 1, one object's large entries do not widen another's tolerance."""
    entries = np.ones((3, 3, 3))
    entries[0] *= 1e6
    resid = np.zeros((3, 3, 3))
    resid[0, 0, 0] = 1e-6  # 1e-6 <= 1e-10 * 1e6: passes for object 0
    resid[1, 0, 0] = 1e-8  # 1e-8 > 1e-10 * max(1, 1): fails for object 1 alone
    assert within_tol(resid, entries, 1e-10, lead=1).tolist() == [True, False, True]
    with pytest.raises(ValueError, match="bad"):
        check_small(resid, entries, 1e-10, "bad", lead=1)
    check_small(resid[::2], entries[::2], 1e-10, "bad", lead=1)
    # the unbatched rule takes one scale for all: the 1e-6 entry widens every residual
    check_small(resid, entries, 1e-10, "bad")
    entries[2, 0, 0] = np.nan
    resid[1, 0, 0] = 0.0
    assert within_tol(resid, entries, 1e-10, lead=1).tolist() == [True, True, False]
    resid[1, 1, 1] = np.nan
    assert within_tol(resid, entries, 1e-10, lead=1).tolist() == [True, False, False]
    for b in range(3):
        assert within_tol(resid, entries, 1e-10, lead=1)[b] == within_tol(resid[b], entries[b],
                                                                         1e-10)


def _weyl_pair_matrix(value):
    mat = random_weyl(np.random.default_rng(9), 4).mat.copy()
    mat[0, 5] = mat[5, 0] = value * mat[0, 5]  # (01, 23): outside every Ricci trace
    return mat


def _diagonal(value):
    mat = np.eye(6)
    mat[0, 0] = value
    return mat


def _antisymmetric_three(value):
    comps = two_form_one_form_from_uniform(uniform(np.random.default_rng(9), 4, 4, 4))
    full = pair_form_to_full3(4, comps)
    full[0, 1, 2] *= value
    full[1, 0, 2] *= value
    return full


def _cov_deriv_comps(value):
    comps = np.zeros((4, 6, 6))
    comps[0, 0, 0] = value
    return comps


def _pure_curvature(value):
    w = np.array([[0.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0],
                  [-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 1.0, 0.0]])
    w[0, 1] = w[1, 0] = value
    return w


# each builder is valid at value 1.0 and puts the value into one entry (or one
# symmetric or antisymmetric pair of entries)
NON_FINITE_BUILDERS = {
    "check_symmetric": lambda v: check_symmetric(_diagonal(v)),
    "check_symmetric-stack": lambda v: check_symmetric(np.stack([np.eye(6), _diagonal(v)]),
                                                       lead=1),
    "Operator2Form": lambda v: Operator2Form(4, _diagonal(v)),
    "CurvatureTensor": lambda v: CurvatureTensor(4, _weyl_pair_matrix(v)),
    "Operator2Form.from_four_tensor": lambda v: Operator2Form.from_four_tensor(
        pair_matrix_to_four_tensor(4, _diagonal(v))),
    "TwoFormOneForm.from_full": lambda v: TwoFormOneForm.from_full(_antisymmetric_three(v)),
    "TwoFormOneForm": lambda v: TwoFormOneForm(4, _diagonal(v)[:, :4]),
    "ThreeTwoTensor": lambda v: ThreeTwoTensor(4, _diagonal(v)[:4]),
    "CovDerivCurvature": lambda v: CovDerivCurvature(4, _cov_deriv_comps(v)),
    "PureCurvatureMatrix": lambda v: PureCurvatureMatrix(4, _pure_curvature(v)),
    "check_traceless": lambda v: check_traceless(np.diag([v, -1.0, 0.0, 0.0]), "E"),
}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_BUILDERS))
def test_validators_reject_non_finite_input(name, value):
    NON_FINITE_BUILDERS[name](1.0)
    # refused before a residual such as inf - inf prints a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            NON_FINITE_BUILDERS[name](value)


def test_symmetric_guard_scales_each_matrix_of_a_stack_by_its_own_entries():
    """With lead = 1 a 1e-6 asymmetry beside entries of 1 is refused even when another
    matrix of the stack holds 1e8 (one shared scale would pass it); each matrix comes
    back as the guard returns it alone.  Without lead only one square matrix passes."""
    skew = np.eye(3)
    skew[0, 1] += 1e-6
    stack = np.stack([1e8 * np.eye(3), skew])
    with pytest.raises(ValueError, match="stack must be symmetric within tolerance 1e-10"):
        check_symmetric(stack, "stack", lead=1)
    check_small(stack - np.swapaxes(stack, -1, -2), stack, EPS_ALG, "shared")  # one scale passes
    ok = np.stack([1e8 * np.eye(3) + np.triu(np.full((3, 3), 1e-3), 1), np.eye(3)])
    got = check_symmetric(ok, "stack", lead=1)
    assert all(np.array_equal(got[b], check_symmetric(ok[b], "one")) for b in range(2))
    for bad, lead in ((ok, 0), (ok[0], 1), (np.ones((2, 3, 4)), 1)):
        with pytest.raises(ValueError, match=re.escape(f"must be square, got shape {bad.shape}")):
            check_symmetric(bad, "stack", lead=lead)


def test_traceless_guard_symmetrizes_and_rejects_traces():
    E = np.array([[1.0, 2.0 + 1e-13, 0.0], [2.0, -3.0, 0.5], [0.0, 0.5, 2.0]])
    assert np.array_equal(check_traceless(E, "E"), check_symmetric(E, "E"))
    with pytest.raises(ValueError, match="E must be traceless"):
        check_traceless(E + 1e-6 * np.eye(3), "E")
    # the trace is scaled by the largest entry: 1e-9 passes against entries of 1e2
    check_traceless(100.0 * E + 1e-9 * np.diag([1.0, 0.0, 0.0]), "E")
    with pytest.raises(ValueError, match="E must be symmetric"):
        check_traceless(E + np.triu(np.ones((3, 3)), 1), "E")
    with pytest.raises(ValueError, match="block must be traceless"):
        check_traceless(np.eye(3), "block", tol=0.1)
    check_traceless(np.diag([1.0, -1.0 + 5e-4, 0.0]), "block", tol=1e-3)


def test_bianchi_guard_is_per_tensor_and_rejects_non_finite():
    """The guard scales each operator of a stack by its own pair matrix, refuses a
    Bianchi defect in any one of them, and never passes a NaN or inf."""
    W = random_weyl(rng, 4)
    check_bianchi(4, np.stack([W.mat, 1e6 * W.mat]), 1e-10)
    vol = np.zeros((6, 6))
    vol[0, 5] = vol[5, 0] = vol[2, 3] = vol[3, 2] = 1.0
    vol[1, 4] = vol[4, 1] = -1.0  # the volume form: b(vol) = vol
    bad = W.mat + 1e-6 * vol
    with pytest.raises(ValueError, match="first Bianchi identity violated"):
        check_bianchi(4, bad, 1e-10)
    check_bianchi(4, bad, 1e-5)
    # 1e-6 beside entries of 1e6 passes for that operator, not beside W's own entries
    big = np.stack([1e6 * W.mat + 1e-6 * vol, bad])
    check_bianchi(4, big[:1], 1e-10)
    with pytest.raises(ValueError, match="first Bianchi identity violated"):
        check_bianchi(4, big, 1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for value in (np.nan, np.inf):
            odd = W.mat.copy()
            odd[0, 5] = odd[5, 0] = value
            with pytest.raises(ValueError, match="first Bianchi identity violated"):
                check_bianchi(4, odd, 1e-10)
            with pytest.raises(ValueError, match="first Bianchi identity violated"):
                check_bianchi(4, np.stack([W.mat, odd]), 1e-10)


def test_curvature_from_four_tensor_checks_first_bianchi_at_the_default_tolerance():
    """A symmetric tensor with both antisymmetries but no first Bianchi identity is
    refused by CurvatureTensor.from_four_tensor as by the constructor."""
    m = np.random.default_rng(0).uniform(-1.0, 1.0, size=(6, 6))
    m = (m + m.T) / 2.0
    with pytest.raises(ValueError, match="first Bianchi identity violated"):
        CurvatureTensor(4, m)
    with pytest.raises(ValueError, match="first Bianchi identity violated"):
        CurvatureTensor.from_four_tensor(pair_matrix_to_four_tensor(4, m))


SRC = Path(__file__).resolve().parent.parent / "src" / "weylbench"
# (module, name) of every table built under ``basis.read_only_cache``
READ_ONLY_TABLES = [(path.stem, node.name) for path in sorted(SRC.glob("*.py"))
                    for node in ast.parse(path.read_text(encoding="utf-8")).body
                    if isinstance(node, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "read_only_cache"
                        for d in node.decorator_list)]


@pytest.mark.parametrize("n", [4, 5])
def test_cached_tables_are_read_only(n):
    assert len(READ_ONLY_TABLES) == 14 and ("chart", "_offsets") in READ_ONLY_TABLES
    arguments = {"_offsets": [(n, 2, False), (n, 4, True)]}
    for module, name in READ_ONLY_TABLES:
        build = getattr(importlib.import_module(f"weylbench.{module}"), name)
        for args in arguments.get(name, [(n,)]):
            out = build(*args)
            arrays = [x for x in (out if isinstance(out, tuple) else (out,))
                      if isinstance(x, np.ndarray)]
            assert arrays, name
            for arr in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = arr
