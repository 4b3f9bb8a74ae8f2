"""Reference routes that only the tests call.

The package keeps one implementation of each concept; the slower or wider routes
below stay here as oracles.  ``cyclic_average`` is the first-Bianchi sum on
(n, n, n, n) tensors, whose bits ``basis.bianchi_image`` reproduces at the pair
entries.  ``frame_weyl_split`` is the orthonormal-frame Weyl
split on (n, n, n, n) tensors whose bits ``algebra.weyl_parts``, ``decompose``
and ``weyl_matrix`` reproduce from pair matrices, with ``ricci_trace`` the
four-index Ricci trace under a metric (R(g^-1), the einsum route of
``algebra.curvature_action``); ``congruence_four`` moves all four indices
of a four-tensor by one matrix, the einsum-free route that the pair-matrix
congruence L^T T L with L = (1/2) ``algebra.kn_matrix(A, A)`` reproduces;
``full5_to_triple_pair`` reads the (triple, pair) components of five-index
tensors, the bits ``second_bianchi_pairs`` and ``circ_prime_pairs`` reproduce, and
``triple_pair_to_full5`` expands them back; ``rotated`` moves every index of a full
tensor by one matrix, the frame change of the equivariance oracles.
``four_index_decomposition`` is the chart's coordinate stage on (n, n, n, n)
tensors: the curvature from the Christoffels on all n^3 index triples
(``four_index_curvature``) and its Ricci trace by einsum, which
``chart._decomp_coords`` reproduces at the index pairs a < b.  ``four_index_field``
is the chart's frame stage on (n, n, n, n) tensors: the covariant derivative with
one Christoffel einsum per vector slot (``four_index_nabla``) and the frame change
by one tensordot per index (``four_index_to_frame``), which ``chart._assemble``
reproduces on pair matrices.
"""

from functools import lru_cache

import numpy as np

from weylbench.algebra import WeylSplit, kn_four, second_bianchi_full, weyl_split
from weylbench.basis import (_take_trailing, _triple_pair_grid, four_tensor_to_pair_matrix,
                             full3_to_pair_form, pair_basis, pair_matrix_to_four_tensor,
                             triple_basis)
from weylbench.dim4 import _from_block
from weylbench.tensors import CurvatureTensor, PureCurvatureMatrix, ThreeTwoTensor, check_symmetric


def cyclic_average(four: np.ndarray) -> np.ndarray:
    """First-Bianchi cyclic average b(T)_ijkl = (T_ijkl + T_kijl + T_jkil)/3 of
    (..., n, n, n, n) tensors."""
    return (four + np.einsum('...kijl->...ijkl', four)
            + np.einsum('...jkil->...ijkl', four)) / 3.0


def ricci_trace(R4: np.ndarray, gi: np.ndarray | None = None) -> np.ndarray:
    """rc_ij = R_ipjq g^pq of (..., n, n, n, n) tensors; the identity metric when gi is None.
    With any (..., n, n) form h in place of g^-1 it is R(h), ``algebra.curvature_action``."""
    if gi is None:
        return np.einsum('...ipjp->...ij', R4)
    return np.einsum('...ipjq,...pq->...ij', R4, gi)


def congruence_four(T: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_mnpq A_ma A_nb A_pc A_qd T_mnpq: T's four indices moved by one (n, n) matrix.

    With K = A (x) A, K[(m,n),(a,b)] = A_ma A_nb, this is the congruence K^T T K of T's
    (n^2, n^2) matrix over the index pairs (ij, kl).  T may carry leading batch axes, and
    A may carry T's (one matrix per object).
    """
    n = T.shape[-1]
    K = (A[..., :, None, :, None] * A[..., None, :, None, :]).reshape(A.shape[:-2] + (n * n,) * 2)
    out = np.swapaxes(K, -1, -2) @ T.reshape(T.shape[:-4] + (n * n, n * n)) @ K
    return out.reshape(T.shape)


@lru_cache(maxsize=None)
def _kn_identity(n: int) -> np.ndarray:
    """g o g of the identity metric, read-only."""
    gg = kn_four(np.eye(n), np.eye(n))
    gg.flags.writeable = False
    return gg


def frame_weyl_split(R4: np.ndarray) -> WeylSplit:
    """Weyl split W = R - S (g o g)/(2n(n-1)) - (E o g)/(n-2) of (..., n, n, n, n) tensors
    in an orthonormal frame (g the identity).  Rc is the Ricci trace, S the scalar,
    E = Rc - (S/n) g."""
    n = R4.shape[-1]
    g, gg = np.eye(n), _kn_identity(n)
    # contiguous rows keep the trace's summation order the same at every batch size
    Rc = np.ascontiguousarray(ricci_trace(R4))
    S = np.trace(Rc, axis1=-2, axis2=-1)
    s2 = np.asarray(S)[..., None, None]  # S broadcast against (n, n)
    E = Rc - (s2 / n) * g
    s_part = s2[..., None, None] / (2 * n * (n - 1)) * gg
    e_part = kn_four(E, g) / (n - 2)
    return WeylSplit(Rc=Rc, S=S, E=E, s_part=s_part, e_part=e_part, W=R4 - s_part - e_part)


def pure_matrix_from_weyl(W: CurvatureTensor) -> PureCurvatureMatrix:
    """Extract w_ij = W_ijij; valid when the operator is diagonal on coordinate 2-forms."""
    pb = pair_basis(W.n)
    w = np.zeros((W.n, W.n))
    w[pb.rows, pb.cols] = w[pb.cols, pb.rows] = np.diagonal(W.mat)
    return PureCurvatureMatrix(W.n, w)


def embed_block(block: np.ndarray) -> CurvatureTensor:
    """Embed a symmetric traceless 3x3 block as a full n=4 operator (other block zero)."""
    return CurvatureTensor(4, _from_block(check_symmetric(block, "block")))


@lru_cache(maxsize=None)
def _triple_pair_positions(n: int) -> np.ndarray:
    """(T, N) flat positions of T[i, j, k, m, l] in an (n,)*5 block, triples by pairs."""
    i, j, k, m, l = _triple_pair_grid(n)
    flat = ((i * n + j) * n + k) * (n * n) + (m * n + l)
    flat.flags.writeable = False
    return flat


def full5_to_triple_pair(n: int, full: np.ndarray) -> np.ndarray:
    """(..., n,n,n,n,n) tensors, 3-form in slots 0-2 and 2-form in 3-4 -> (..., T, N)."""
    return _take_trailing(full, 5, _triple_pair_positions(n))


def triple_pair_to_full5(n: int, comps: np.ndarray) -> np.ndarray:
    """The (n,)*5 tensor, alternating in slots 0-2 and in slots 3-4, of (T, N) components:
    ``full5_to_triple_pair`` inverted."""
    pb, ijk = pair_basis(n), triple_basis(n).ijk
    out = np.zeros((n,) * 5)
    for perm, sign in (((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
                       ((1, 0, 2), -1.0), ((0, 2, 1), -1.0), ((2, 1, 0), -1.0)):
        i, j, k = (ijk[p][:, None] for p in perm)
        out[i, j, k, pb.rows, pb.cols] = sign * comps
        out[i, j, k, pb.cols, pb.rows] = -sign * comps
    return out


def rotated(T: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum A_ia A_jb ... T_ij...: every index of T moved by one (n, n) matrix, one
    tensordot per index."""
    for _ in range(T.ndim):
        T = np.tensordot(T, A, axes=([0], [0]))
    return T


def three_two_from_full(full: np.ndarray) -> ThreeTwoTensor:
    """The ThreeTwoTensor of a full (n,)*5 tensor."""
    n = full.shape[0]
    return ThreeTwoTensor(n, full5_to_triple_pair(n, np.asarray(full, dtype=float)))


def four_index_nabla(lattice, T: np.ndarray, rows) -> np.ndarray:
    """nabla_m T = d_m T - sum over slots a of Gamma^s_ma T_..s.. at rows of a chart table
    whose every slot is a vector slot, as (rows, n, n, n, n) for a curvature."""
    Tr, gam = T[rows], lattice.gamma[rows]
    idx = "abcdefgh"[:Tr.ndim - 1]
    return lattice.grad(T, rows) - sum(np.einsum(f"zsm{a},z{idx.replace(a, 's')}->zm{idx}",
                                                  gam, Tr) for a in idx)


def four_index_to_frame(T: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Every index of T moved to the frame whose vectors are F's columns, one tensordot each."""
    for _ in range(T.ndim):
        T = np.tensordot(T, F, axes=([0], [0]))
    return T


def four_index_curvature(lattice, rows) -> np.ndarray:
    """(0,4) curvature of a ``chart._Lattice`` in coordinates at the given rows as
    (rows, n, n, n, n) tensors: R^s_ijk on all n^3 index triples by einsums, lowered with g,
    then projected onto its exact symmetry class by four transposes and a pair swap."""
    g, gam = lattice.g[rows], lattice.gamma[rows]
    dgam = lattice.grad(lattice.gamma, rows)
    rup = (np.transpose(dgam, (0, 1, 3, 4, 2)) - np.transpose(dgam, (0, 3, 1, 4, 2))
           + np.einsum('zsip,zpjk->zijks', gam, gam) - np.einsum('zsjp,zpik->zijks', gam, gam))
    R = -np.einsum('zijks,zls->zijkl', rup, g)
    R = 0.25 * (R - np.transpose(R, (0, 2, 1, 3, 4)) - np.transpose(R, (0, 1, 2, 4, 3))
                + np.transpose(R, (0, 2, 1, 4, 3)))
    return 0.5 * (R + np.transpose(R, (0, 3, 4, 1, 2)))


def four_index_decomposition(lattice) -> tuple:
    """(R, Rc, S, W) of a ``chart._Lattice`` over its decomposition rows by the four-index
    route: R from ``four_index_curvature`` as (rows, n, n, n, n) tensors, Rc and S by einsum
    under the row's g^-1, and W split by ``algebra.weyl_split`` from R's pair matrices read
    off its four indices, as (rows, N, N) pair matrices."""
    n, rows = lattice.n, slice(len(lattice.decomp[1]))
    R, gi = four_index_curvature(lattice, rows), lattice.gi[rows]
    Rc = np.einsum('zipjq,zpq->zij', R, gi)
    S = np.einsum('zij,zij->z', Rc, gi)
    return R, Rc, S, weyl_split(n, four_tensor_to_pair_matrix(n, R), Rc, S, lattice.g[rows]).W


def four_index_field(lattice, R, Rc, S, W) -> dict:
    """The center fields of a ``chart._Lattice`` by the four-index route from coordinate
    tables R, Rc, S and W (R and W as (rows, n, n, n, n) tensors on the center's stencil at
    least, Rc and S on the decomposition rows): their covariant derivatives and frame
    components on (n, n, n, n) tensors, the frame split by ``frame_weyl_split``,
    divergences and the second-Bianchi maps by einsum, the Laplacian of |W|^2_g from its
    table by offsets, and the Ricci identity residual (with it only).  Pair-indexed fields
    are read off as the chart's containers hold them."""
    n, h, c = lattice.n, lattice.grid.h, [0]
    F = np.linalg.inv(np.linalg.cholesky(lattice.g[0])).T
    nR, nW, nRc = (four_index_nabla(lattice, T, c)[0] for T in (R, W, Rc))
    Rf, nRf, nWf, nRcf = (four_index_to_frame(T, F) for T in (R[0], nR, nW, nRc))
    vS, eye = F.T @ lattice.grad(S, c)[0], np.eye(n)
    split = frame_weyl_split(Rf)

    row = {k: r for r, k in enumerate(map(tuple, lattice.keys.tolist()))}
    def w2(*moves):  # |W|^2_g at the center moved by unit steps (axis, sign)
        k = np.zeros(n, dtype=int)
        for a, s in moves:
            k[a] += s
        return lattice.w2[row[tuple(k.tolist())]]
    hess = np.array([[(w2((a, 1)) - 2.0 * w2() + w2((a, -1))) / (h * h) if a == b else
                      (w2((a, 1), (b, 1)) - w2((a, 1), (b, -1)) - w2((a, -1), (b, 1))
                       + w2((a, -1), (b, -1))) / (4.0 * h * h) for b in range(n)]
                     for a in range(n)])
    hess -= np.einsum('sab,s->ab', lattice.gamma[0], lattice.grad(lattice.w2, c)[0])

    def pairs(T):  # pair matrices of trailing (n, n, n, n) blocks
        return four_tensor_to_pair_matrix(n, T)
    out = {"R": pairs(Rf), "W": pairs(split.W), "E": split.E, "Rc": split.Rc,
           "nabla_r": pairs(nRf), "nabla_w": pairs(nWf), "nabla_rc": nRcf,
           "delta_w": full3_to_pair_form(n, np.einsum('mabcm->abc', nWf)),
           "P": full3_to_pair_form(n, nRcf - np.transpose(nRcf, (1, 0, 2))),
           "Q": full3_to_pair_form(n, np.einsum('ki,j->ijk', eye, vS)
                                   - np.einsum('kj,i->ijk', eye, vS)),
           "b_w": full5_to_triple_pair(n, second_bianchi_full(nWf)),
           "b_r": full5_to_triple_pair(n, second_bianchi_full(nRf)),
           "lap_w_norm_sq": np.sum(np.linalg.inv(lattice.g[0]) * hess)}
    if lattice.with_ricci_identity:
        n2 = four_index_nabla(lattice, four_index_nabla(
            lattice, Rc, slice(lattice.near[c].max() + 1)), c)[0]
        gi = lattice.gi[0]
        rhs = (np.einsum('abcs,st,td->abcd', R[0], gi, Rc[0])
               + np.einsum('abds,st,tc->abcd', R[0], gi, Rc[0]))
        out["ricci_identity"] = np.abs(n2 - np.transpose(n2, (1, 0, 2, 3)) - rhs).max()
    return out
