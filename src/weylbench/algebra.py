"""Products and maps on algebraic curvature tensors.

The inner product is fixed as one quarter of the full four-index contraction
(the operator convention), and every factor-sensitive formula below is written
against that single choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import (_circ_prime_positions, _in_passes, _pair_generators, _second_bianchi_positions,
                    _take_times, _take_trailing, bianchi_image, pair_basis, pair_ricci, pair_slots,
                    read_only_cache, triple_basis)
from .tensors import (
    EPS_ALG,
    CovDerivCurvature,
    CurvatureDecomposition,
    CurvatureTensor,
    Operator2Form,
    PureCurvatureMatrix,
    ThreeTwoTensor,
    TwoFormOneForm,
    check_small,
    check_symmetric,
    frobenius,
    symmetrized,
)

# Raw kernels act on the trailing axes of plain arrays and broadcast over leading batch
# axes; the typed functions below wrap them.  Weyl-type operators enter as (..., N, N) pair
# matrices (weyl_split, the one Weyl split under any metric, and weyl_parts, its frame call,
# weyl_matrix, sharp_matrix, cubic_parts, kn_g_pairing, bochner_curvature_term,
# u_tensor_contractions, check_trace_free) or as (..., n^2, n^2) slot matrices (sharp_slots;
# curvature_action, the one R(h) kernel, and quadratic_form on it); Kulkarni-Nomizu products
# leave as pair matrices (kn_matrix, the one kernel, g = I included), P and Q as (..., N, n)
# pair components (pq_pairs), and the second-Bianchi and circ-prime images as (..., T, N)
# components (second_bianchi_pairs, circ_prime_pairs).
# kn_four, sharp_four, circ_prime_full and second_bianchi_full are reference kernels only.


def _alt_pairs(m: np.ndarray) -> np.ndarray:
    """m_ijkl + m_jilk - m_ijlk - m_jikl: four times the part of m antisymmetric
    in (i, j) and in (k, l)."""
    return (m + np.einsum('...jilk->...ijkl', m)
            - np.einsum('...ijlk->...ijkl', m) - np.einsum('...jikl->...ijkl', m))


def kn_four(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Kulkarni-Nomizu product as a raw four-index array.

    (h o k)_ijkl = h_ik k_jl + k_ik h_jl - h_il k_jk - k_il h_jk; every term is
    an index permutation of the first.
    """
    return _alt_pairs(np.einsum('...ik,...jl->...ijkl', h, k))


@read_only_cache
def _sharp_positions(n: int) -> np.ndarray:
    """(4, N, N) flat positions of m[(i,k),(j,l)], m[(j,l),(i,k)], m[(i,l),(j,k)] and
    m[(j,k),(i,l)] in an (n^2, n^2) matrix: the terms of ``_alt_pairs`` at i < j, k < l."""
    i, j = pair_basis(n).rows[:, None], pair_basis(n).cols[:, None]
    k, l = i.T, j.T
    return np.stack([((a * n + b) * n + c) * n + d
                     for a, b, c, d in ((i, k, j, l), (j, l, i, k), (i, l, j, k), (j, k, i, l))])


@read_only_cache
def _kn_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_sharp_positions`` as flat (n, n) positions of h and k: m[(a,b),(c,d)] = h_ab k_cd."""
    return divmod(_sharp_positions(n), n * n)


def _kn_sum(t: np.ndarray) -> np.ndarray:
    """The Kulkarni-Nomizu pair entries from their (..., 4, N, N) terms: added in
    ``_alt_pairs``' order, then +0.0 as einsum's zero output normalises signed zeros."""
    return t[..., 0, :, :] + t[..., 1, :, :] - t[..., 2, :, :] - t[..., 3, :, :] + 0.0


def kn_matrix(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Pair matrices (..., N, N) of h o k for (..., n, n) forms h and k, the one Kulkarni-Nomizu
    kernel: ``kn_four``'s four products at the pair entries, gathered as a (B, 4, N, N) stack,
    multiplied in it (``basis._take_times``) and summed by ``_kn_sum``, so the bits are those of
    kn_four's expansion read back, NaN and inf included.  A single (n, n) k (g = I, or g o g) is
    gathered once, and h's flattened forms run in passes of at most CHUNK_ENTRIES / 4N^2
    (``basis._in_passes``): at most 20 a pass at n = 8.  A k with leading axes is one call."""
    n = h.shape[-1]
    hp, kp = _kn_positions(n)
    factors = _take_trailing(k, 2, kp)
    if k.ndim > 2:
        return _kn_sum(_take_times(h, 2, hp, factors))
    flat = h.reshape(-1, n, n)
    out = _in_passes(lambda rows: _kn_sum(_take_times(flat[rows], 2, hp, factors)),
                     len(flat), 4 * pair_basis(n).size ** 2)
    return out.reshape(h.shape[:-2] + out.shape[1:])


class WeylSplit(NamedTuple):
    """R = W + e_part + s_part as raw arrays (with R's leading batch axes)."""

    Rc: np.ndarray
    S: np.ndarray
    E: np.ndarray
    s_part: np.ndarray
    e_part: np.ndarray
    W: np.ndarray


def weyl_split(n: int, R: np.ndarray, Rc: np.ndarray, S: np.ndarray, g: np.ndarray) -> WeylSplit:
    """Weyl split W = R - S (g o g)/(2n(n-1)) - (E o g)/(n-2) of (..., N, N) pair matrices R
    with the Ricci traces Rc and scalars S the caller took under the metric g (a chart with its
    g^-1): E = Rc - (S/n) g; W and the parts are pair matrices.  ``weyl_parts`` is g = I."""
    s2 = np.asarray(S)[..., None, None]  # S broadcast against (n, n)
    E = Rc - (s2 / n) * g
    e_part = kn_matrix(E, g) / (n - 2)  # before s_part, so its passes run beside one stack fewer
    s_part = s2 / (2 * n * (n - 1)) * kn_matrix(g, g)
    return WeylSplit(Rc=Rc, S=S, E=E, s_part=s_part, e_part=e_part, W=R - s_part - e_part)


def kulkarni_nomizu(h: np.ndarray, k: np.ndarray) -> CurvatureTensor:
    """Kulkarni-Nomizu product of two symmetric bilinear forms.

    The result satisfies the first Bianchi identity and is symmetric in its
    two arguments.
    """
    h = check_symmetric(h, "first factor")
    k = check_symmetric(k, "second factor")
    if h.shape != k.shape:
        raise ValueError(f"dimension mismatch: {h.shape[0]} vs {k.shape[0]}")
    return CurvatureTensor(h.shape[0], kn_matrix(h, k))


def ricci_contraction(T: Operator2Form) -> np.ndarray:
    """rc(T)(X, Y) = trace of T(X, ., Y, .); symmetric for self-adjoint T."""
    return pair_ricci(T.n, T.mat)


def weyl_parts(n: int, R: np.ndarray) -> WeylSplit:
    """Orthonormal-frame ``weyl_split`` of (..., N, N) pair matrices R: g = I, Rc = ``pair_ricci``
    and S = tr Rc.  Each entry takes the four-index split's operations in their order
    (``kn_matrix(X, I)`` for E o g and g o g), so the bits are those of the n^4 route."""
    Rc = pair_ricci(n, R)
    return weyl_split(n, R, Rc, np.trace(Rc, axis1=-2, axis2=-1), np.eye(n))


def weyl_matrix(n: int, mat: np.ndarray) -> np.ndarray:
    """Pair matrices (..., N, N) of the Weyl part, in an orthonormal frame, of the
    first-Bianchi projection R = T - b(T) of the symmetric parts T of (..., N, N) pair
    matrices (a symmetric input is its own symmetric part, bit for bit).

    R is T less ``bianchi_image``, its Ricci trace is ``pair_ricci`` and ``weyl_parts``
    splits, so the bits are those of the four-index route on T without the n^4 tensors.
    """
    R = symmetrized(mat)
    del mat  # a caller's temporary input (the samplers' draws) is freed before the split
    R = R - bianchi_image(n, R)  # rebinding R frees T before the split too
    return weyl_parts(n, R).W


def check_trace_free(n: int, mat: np.ndarray, what: str, tol: float = EPS_ALG) -> None:
    """Raise ValueError unless rc(W) = 0 within tol for every (..., N, N) pair matrix W,
    each scaled by its own entries; a NaN or inf fails."""
    check_small(pair_ricci(n, mat), mat, tol,
                f"{what} requires a trace-free (Weyl-type) input", lead=mat.ndim - 2)


def bianchi_project(T: Operator2Form) -> tuple[CurvatureTensor, Operator2Form]:
    """Split T into its first-Bianchi kernel part and the complementary part.

    The image part is the cyclic average b(T); for self-adjoint T it is the
    totally antisymmetric component, orthogonal to the kernel part.
    """
    imb = Operator2Form(T.n, bianchi_image(T.n, T.mat),
                        require_self_adjoint=T.is_self_adjoint())
    kerb = CurvatureTensor(T.n, T.mat - imb.mat)
    return kerb, imb


def decompose(R: CurvatureTensor) -> CurvatureDecomposition:
    """Orthogonal decomposition of a curvature tensor into Weyl/traceless-Ricci/scalar parts.

    W = R - S (g o g)/(2n(n-1)) - (E o g)/(n-2) with rc(W) = 0, and the three
    parts satisfy |R|^2 = |W|^2 + S^2/(2n(n-1)) + |E|^2/(n-2).
    """
    if R.n < 4:
        raise ValueError(f"Weyl decomposition requires dimension >= 4, got {R.n}")
    return decomposition(weyl_parts(R.n, R.mat))


def decomposition(split: WeylSplit, tol: float = EPS_ALG) -> CurvatureDecomposition:
    """Typed container of one frame split of pair matrices; ``tol`` bounds W's Bianchi defect."""
    n = split.E.shape[-1]
    return CurvatureDecomposition(
        weyl=CurvatureTensor(n, split.W, tol=tol), e_part=CurvatureTensor(n, split.e_part),
        s_part=CurvatureTensor(n, split.s_part), E=split.E, S=float(split.S))


def dot_product(R: Operator2Form, S: Operator2Form) -> Operator2Form:
    """(R.S)_ijkl = (1/2) sum_pq R_ijpq S_klpq; the pair-basis matrix product."""
    R._check_same(S)
    mat = R.mat @ S.mat.T
    return Operator2Form(R.n, mat, require_self_adjoint=False)


def _pair_slots(four: np.ndarray) -> np.ndarray:
    """(..., n, n, n, n) -> (..., n^2, n^2) matrices a[(i,k),(j,l)] = T_ijkl."""
    n = four.shape[-1]
    return np.swapaxes(four, -3, -2).reshape(four.shape[:-4] + (n * n, n * n))


def sharp_four(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Sharp product on raw four-index arrays.

    (R # S)_ijkl = (1/2) sum_pq [ R_ipkq S_jplq + S_ipkq R_jplq
                                 - R_iplq S_jpkq - S_iplq R_jpkq ]

    All four terms are index permutations of m_ijkl = sum_pq A_ipkq B_jplq, which is
    m[(i,k),(j,l)] of one product of slot matrices.
    """
    n = A.shape[-1]
    m = _pair_slots(A) @ np.swapaxes(_pair_slots(B), -1, -2)
    return 0.5 * _alt_pairs(np.swapaxes(m.reshape(m.shape[:-2] + (n, n, n, n)), -3, -2))


def sharp_matrix(n: int, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pair matrices (..., N, N) of A # B for (..., N, N) pair matrices A and B: only the
    pair entries of ``sharp_four``'s four terms are gathered and added in its order, so
    the bits are those of sharp_four on the four-index expansions, without n^4 tensors."""
    return sharp_slots(n, pair_slots(n, A), pair_slots(n, B))


def sharp_slots(n: int, XA: np.ndarray, XB: np.ndarray) -> np.ndarray:
    """``sharp_matrix`` from the (..., n^2, n^2) slot matrices ``pair_slots`` gives A and B,
    for callers that hold them.  XA and XB must be distinct buffers for sharp_matrix's bits:
    numpy's matmul takes syrk for X @ X^T of one buffer, and syrk sums in another order."""
    m = XA @ np.swapaxes(XB, -1, -2)
    t = _take_trailing(m, 2, _sharp_positions(n))
    return 0.5 * (t[..., 0, :, :] + t[..., 1, :, :] - t[..., 2, :, :] - t[..., 3, :, :])


def sharp_product(R: Operator2Form, S: Operator2Form) -> Operator2Form:
    """Commutative sharp product of two operators on 2-forms."""
    R._check_same(S)
    return Operator2Form(R.n, sharp_matrix(R.n, R.mat, S.mat), require_self_adjoint=False)


def tri(R1: Operator2Form, R2: Operator2Form, R3: Operator2Form) -> float:
    """Trilinear form <R1.R2 + R2.R1 + 2 R1 # R2, R3>, symmetric in all slots."""
    R1._check_same(R2)
    R1._check_same(R3)
    a, b = R1.mat, R2.mat
    sharp = sharp_matrix(R1.n, a, b)
    return float(frobenius(a @ b.T + b @ a.T + 2.0 * sharp, R3.mat))


def cubic_parts(n: int, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(<W, W^2>, <W, W#>) of self-adjoint curvature operators with (..., N, N) pair matrices M.

    <W, W^2> = tr(M^3), and <W, W#> = (1/2) sum w o (w w) with the slot matrix
    w[(i,k),(j,l)] = W_ijkl (``pair_slots``), since (w w)[(i,k),(j,l)] = sum_pq W_ipkq W_jplq.
    The slot product holds n^4 entries an object, so <W, W#> runs over the flattened objects
    in passes of at most CHUNK_ENTRIES / n^4 (``basis._in_passes``): at most 16 at n = 8.
    """
    flat = M.reshape((-1,) + M.shape[-2:])
    def sharp(rows):
        w = pair_slots(n, flat[rows])
        return 0.5 * np.sum(w * (w @ w), axis=(-2, -1))
    return (np.sum(M * (M @ M), axis=(-2, -1)),
            _in_passes(sharp, len(flat), n ** 4).reshape(M.shape[:-2]))


def curvature_action(X: np.ndarray, h: np.ndarray) -> np.ndarray:
    """R(h)_ij = sum_pq R_ipjq h_pq, the curvature acting on (..., n, n) forms h, from the
    (..., n^2, n^2) slot matrices X[(i,k),(j,l)] = R_ijkl of ``pair_slots``: X @ vec(h),
    one matrix-vector product per object (the Ricci form under a metric is R(g^-1))."""
    n = h.shape[-1]
    out = X @ h.reshape(h.shape[:-2] + (n * n, 1))
    return out.reshape(out.shape[:-2] + (n, n))


def kn_g_pairing(X: np.ndarray, Wm: np.ndarray) -> np.ndarray:
    """<X o g, W^2> of raw (..., n, n) forms X against (..., N, N) pair matrices Wm.

    X and X o g are symmetrized as ``kulkarni_nomizu`` stores them, and
    W^2 = Wm Wm^T as ``dot_product`` forms it, so the value keeps the bits of
    sum(kulkarni_nomizu(X, g).mat * dot_product(W, W).mat) with g the identity
    (X o g straight into pair matrices by ``kn_matrix``).
    """
    Xg = symmetrized(kn_matrix(symmetrized(X), np.eye(X.shape[-1])))
    return frobenius(Xg, Wm @ np.swapaxes(Wm, -1, -2))


def bochner_curvature_term(n: int, Rc: np.ndarray, Wm: np.ndarray) -> np.ndarray:
    """2 <W, W^2 + W#> - <Rc o g, W^2>, the zeroth-order curvature term of the Bochner
    formula for |W|^2 (its r1), of (..., N, N) Weyl pair matrices Wm with Ricci forms Rc:
    ``cubic_parts`` summed and ``kn_g_pairing``."""
    return 2.0 * sum(cubic_parts(n, Wm)) - kn_g_pairing(Rc, Wm)


def circ_prime_full(a: np.ndarray) -> np.ndarray:
    """Raw-array circ-prime kernel on (..., n, n, n) antisymmetric-pair tensors.

    Each of the six terms of ``circ_prime`` is a with one metric factor g_xy,
    so it is added onto the diagonal x = y of two output slots: a writable
    einsum view of that diagonal, in the order of the formula.
    """
    n = a.shape[-1]
    out = np.zeros(a.shape[:-3] + (n,) * 5)
    for diagonal in ('...ijkmk->...ijmk', '...ijkmi->...jkmi', '...ijkmj->...kimj',
                     '...ijkkn->...jink', '...ijkin->...kjni', '...ijkjn->...iknj'):
        np.einsum(diagonal, out)[...] += a[..., None]
    return out


def circ_prime_pairs(n: int, a: np.ndarray) -> np.ndarray:
    """(..., T, N) components (i < j < k, m < l) of ``circ_prime_full`` of (..., N, n) pairs.

    The six terms are gathered at cached positions, zero from a pad where the metric factor
    vanishes, multiplied by their pairs' signs as ``pair_form_to_full3`` multiplies (a negation
    would flip a NaN's sign bit), and added onto zero in the formula's order, so the bits are
    the full kernel's on the expansion at those entries (a zero added there changes no sum).
    """
    flat, sign = _circ_prime_positions(n)
    padded = np.concatenate([a, np.zeros(a.shape[:-2] + (1, n))], axis=-2)
    t = _take_times(padded, 2, flat, sign)
    return sum(t[..., r, :, :] for r in range(6))


def pq_pairs(C: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) as (..., N, n) pair components (a < b) of a Ricci gradient C_a,bc (..., n, n, n)
    and a scalar gradient v (..., n): P_ab,c = C_a,bc - C_b,ac and Q_ab,c = g_ac v_b - g_bc v_a
    with g = I, the two 2-form-valued 1-forms of delta W."""
    n = v.shape[-1]
    a, b, g = pair_basis(n).rows, pair_basis(n).cols, np.eye(n)
    return C[..., a, b, :] - C[..., b, a, :], g[a] * v[..., b, None] - g[b] * v[..., a, None]


def circ_prime(A: TwoFormOneForm) -> ThreeTwoTensor:
    """Six-term product of a 2-form-valued 1-form with the metric.

    (A o' g)_ijkmn = g_kn A_ijm + g_in A_jkm + g_jn A_kim
                   + g_km A_jin + g_im A_kjn + g_jm A_ikn

    For A with vanishing 1-3 contraction (sum_i A_iji = 0, automatic for
    divergence-type tensors) the norm identity |A o' g|^2 = (n-3)|A|^2 holds.
    """
    if A.n < 4:
        raise ValueError(f"circ-prime product requires dimension >= 4, got {A.n}")
    return ThreeTwoTensor(A.n, circ_prime_pairs(A.n, A.comps))


def second_bianchi_full(full: np.ndarray) -> np.ndarray:
    """Raw-array second-Bianchi kernel on (..., n, n, n, n, n) derivative tensors."""
    return (full + np.einsum('...kijmn->...ijkmn', full)
            + np.einsum('...jkimn->...ijkmn', full))


def second_bianchi_pairs(n: int, D: np.ndarray) -> np.ndarray:
    """(..., T, N) components (i < j < k, m < l) of ``second_bianchi_full`` of the expansions
    of (..., n, N, N) derivative pair matrices (the ``CovDerivCurvature.comps`` layout).

    D_i,jk, D_k,ij and D_j,ki are gathered with their pair signs and added in the full
    kernel's order, so the bits are its at those entries, without n^5 tensors.
    """
    flat, sign = _second_bianchi_positions(n)
    t = _take_trailing(D, 3, flat)
    t *= sign
    return t[..., 0, :, :] + t[..., 1, :, :] + t[..., 2, :, :]


def second_bianchi(D: CovDerivCurvature) -> ThreeTwoTensor:
    """Cyclic sum over the derivative slot and the leading 2-form pair.

    B(D)_ijkmn = D_i,jkmn + D_j,kimn + D_k,ijmn; alternating in (i, j, k),
    vanishing exactly on derivative fields of genuine metrics.
    """
    return ThreeTwoTensor(D.n, second_bianchi_pairs(D.n, D.comps))


def u_tensor_contractions(n: int, W: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Skew-auxiliary-tensor sums (u_norm_sq, contracted) of (..., N, N) symmetric pair
    matrices W, the u-tensor contracted against (..., N, N) pair matrices T.

    u_ij = E_ij . W (v_mnpqij = W_inpq g_jm + W_mipq g_jn + W_mniq g_jp + W_mnpi g_jq less
    its (i, j) transpose) has the pair matrix U_I = A_I W + (A_I W)^T, A_I = _pair_generators.
    Over ordered index pairs sum u*u = 8 sum U^2 and sum T_ijkl <u_ij, u_kl> = 16 <G, T>,
    G_IK = <U_I, U_K>; contracted = -(the T sum) / 8, 8 <W, W^2 + W#> at T = W.  The sums
    are numpy reductions over trailing axes of C-order stacks; the batch size cannot move them.
    """
    N = W.shape[-1]
    AW = (_pair_generators(n).reshape(N * N, N) @ W).reshape(W.shape[:-2] + (N, N, N))
    U = AW + np.swapaxes(AW, -1, -2)
    Uf = U.reshape(W.shape[:-2] + (N, N * N))
    G = Uf @ np.swapaxes(Uf, -1, -2)
    return 8.0 * np.sum(U * U, axis=(-3, -2, -1)), -2.0 * np.sum(G * T, axis=(-2, -1))


def u_contraction(W: CurvatureTensor) -> tuple[float, float]:
    """Auxiliary skew-tensor sums for a trace-free curvature operator.

    Returns (u_norm_sq, contracted) where u_norm_sq equals 32(n-1)|W|^2 and
    contracted equals 8 <W, W^2 + W#>; see ``u_tensor_contractions``.
    """
    check_trace_free(W.n, W.mat, "u-contraction")
    return tuple(float(x) for x in u_tensor_contractions(W.n, W.mat, W.mat))


@dataclass(frozen=True)
class QuadraticForms:
    W_AA: float
    A_cubed: float


def quadratic_form(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """T(A, A) = sum T_ijkl A_ik A_jl = <A, T(A)> of (..., n^2, n^2) slot matrices X of T
    (``pair_slots``) and (..., n, n) A, with T(A) from ``curvature_action``."""
    return frobenius(A, curvature_action(X, A))


def cube_trace(A: np.ndarray) -> np.ndarray:
    """tr(A^3) = sum A_ij A_jk A_ki of raw (..., n, n) matrices."""
    return np.einsum('...ij,...jk,...ki->...', A, A, A)


def quadratic_forms(W: Operator2Form, A: np.ndarray) -> QuadraticForms:
    """W(A, A) = sum W_ijkl A_ik A_jl and the matrix cube trace sum A_ij A_jk A_ki."""
    A = check_symmetric(A, "quadratic-form argument")
    if A.shape[0] != W.n:
        raise ValueError(f"dimension mismatch: {W.n} vs {A.shape[0]}")
    return QuadraticForms(W_AA=float(quadratic_form(pair_slots(W.n, W.mat), A)),
                          A_cubed=float(cube_trace(A)))


@dataclass(frozen=True)
class PureCubics:
    sharp_cubic: float
    square_cubic: float
    three_plane_sum: float


def pure_cubic_parts(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sharp_cubic, square_cubic, three_plane_sum) of raw (..., n, n) matrices; see pure_cubics."""
    n = w.shape[-1]
    i, j = pair_basis(n).rows, pair_basis(n).cols
    a, b, c = triple_basis(n).ijk

    def pick(p, q):  # contiguous, so each sum runs over one matrix's entries alone
        return np.ascontiguousarray(w[..., p, q])

    # ordered sums over all (i, j, k) vanish on non-distinct indices (zero diagonal)
    sharp_ordered = np.einsum('...ij,...ik,...kj->...', w, w, w)
    square_cubic = 2.0 * np.sum(pick(i, j) ** 3, axis=-1)
    three = np.sum((pick(a, b) + pick(b, c) + pick(a, c)) ** 3, axis=-1)
    return sharp_ordered, square_cubic, three


def pure_cubics(w: PureCurvatureMatrix) -> PureCubics:
    """Cubic sums of a pure-curvature matrix.

    sharp_cubic     = 6 sum_{i<j<k} w_ij w_ik w_kj
    square_cubic    = 2 sum_{i<j}   w_ij^3
    three_plane_sum =   sum_{i<j<k} (w_ij + w_jk + w_ik)^3

    These satisfy sharp_cubic = ((8-n)/2) square_cubic + three_plane_sum, and
    relate to the operator products of the diagonal curvature by
    <W, W#> = sharp_cubic / 2 and <W, W^2> = square_cubic / 2.
    """
    return PureCubics(*(float(x) for x in pure_cubic_parts(w.w)))


def sectional_sums(diag: np.ndarray, subset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of W_ijij over the pairs inside a subset and inside its complement.

    ``diag`` holds (..., N) pair diagonals W_ijij (i < j, in pair-basis order)
    and ``subset`` (..., n) boolean membership masks; the sums add in pair order.
    """
    pb = pair_basis(subset.shape[-1])
    first, second = subset[..., pb.rows], subset[..., pb.cols]
    return (np.where(first & second, diag, 0.0).sum(axis=-1),
            np.where(~first & ~second, diag, 0.0).sum(axis=-1))


def weyl_sectional_split(W: CurvatureTensor,
                         subset: "set[int] | tuple[int, ...]") -> tuple[float, float]:
    """Sum of diagonal components W_ijij over pairs inside the subset and its complement.

    For a trace-free operator the two sums are equal; indices are 0-based.
    """
    n = W.n
    idx = sorted(set(int(i) for i in subset))
    if any(i < 0 or i >= n for i in idx):
        raise ValueError("subset indices out of range")
    if not idx or len(idx) == n:
        raise ValueError("subset must be proper and nonempty")
    check_trace_free(n, W.mat, "sectional split")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    w1, w2 = sectional_sums(np.diagonal(W.mat), mask)
    return float(w1), float(w2)

