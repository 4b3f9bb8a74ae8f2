"""Four-dimensional subsystem: Hodge splitting, Berger normal form, determinant identities.

In dimension four the Hodge star splits 2-forms into +-1 eigenspaces.  A
trace-free, Bianchi-free operator preserves the split, and each 3x3 block
admits a simultaneous diagonal normal form in an adapted orthonormal 4-frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import check_trace_free, cubic_parts, kn_g_pairing, kn_matrix
from .basis import pair_basis, pair_ricci
from .tensors import (EPS_ALG, CurvatureTensor, check_bianchi, check_finite, check_traceless,
                      frobenius, inner, symmetrized)

def hodge_pm_basis() -> np.ndarray:
    """Columns 0-2: orthonormal self-dual 2-forms; columns 3-5: anti-self-dual.

    (e01 + e23)/sqrt2, (e02 - e13)/sqrt2, (e03 + e12)/sqrt2 and the
    sign-flipped companions, expressed on the lexicographic pair basis
    (01, 02, 03, 12, 13, 23).
    """
    P = np.zeros((6, 6))
    s = 1.0 / np.sqrt(2.0)
    P[0, 0] = s; P[5, 0] = s
    P[1, 1] = s; P[4, 1] = -s
    P[2, 2] = s; P[3, 2] = s
    P[0, 3] = s; P[5, 3] = -s
    P[1, 4] = s; P[4, 4] = s
    P[2, 5] = s; P[3, 5] = -s
    return P


_PM = hodge_pm_basis()


@dataclass(frozen=True)
class SelfDualSplit:
    wplus: np.ndarray   # 3x3 symmetric traceless, self-dual block
    wminus: np.ndarray  # 3x3 symmetric traceless, anti-self-dual block
    basis: np.ndarray   # the 6x6 change of basis (columns = +/- forms)


def _require_weyl(W: CurvatureTensor, tol: float) -> None:
    if W.n != 4:
        raise ValueError(f"dimension-4 operation on n={W.n}")
    check_trace_free(4, W.mat, "a dimension-4 operation", tol)


def split_self_dual(W: CurvatureTensor, tol: float = EPS_ALG) -> SelfDualSplit:
    """Split a 4-dimensional trace-free curvature operator into +/- blocks."""
    _require_weyl(W, tol)
    M = _PM.T @ W.mat @ _PM
    return SelfDualSplit(wplus=M[:3, :3].copy(), wminus=M[3:, 3:].copy(), basis=_PM.copy())


def _from_block(wplus: np.ndarray) -> np.ndarray:
    """Pair-basis matrix with self-dual block wplus and a zero anti-self-dual block."""
    M = np.zeros((6, 6))
    M[:3, :3] = wplus
    return _PM @ M @ _PM.T


@dataclass(frozen=True)
class DetIdentities:
    cube_dot: float
    cube_sharp: float
    det: float


def det_identities(wplus: np.ndarray, tol: float = EPS_ALG) -> DetIdentities:
    """Cubic operator products of a traceless 3x3 block against its determinant.

    Evaluated on ``_from_block``'s matrix, symmetrized as ``CurvatureTensor`` stores
    it; for traceless blocks cube_dot = 3 det and cube_sharp = 6 det.
    """
    if np.shape(wplus) != (3, 3):
        raise ValueError("expected a 3x3 block")
    wplus = check_traceless(wplus, "block", tol)
    cube_dot, cube_sharp = (float(v) for v in cubic_parts(4, symmetrized(_from_block(wplus))))
    return DetIdentities(cube_dot=cube_dot, cube_sharp=cube_sharp,
                         det=float(np.linalg.det(wplus)))


@dataclass(frozen=True)
class BergerNormalForm:
    frame: np.ndarray     # columns = orthonormal 4-frame vectors
    a: np.ndarray         # diag(A), zero trace
    b: np.ndarray         # diag(B), zero trace
    residual: float       # max deviation of the frame matrix from [[A,B],[B,A]]


def _form_matrix(v: np.ndarray) -> np.ndarray:
    """Antisymmetric 4 x 4 matrix of a 2-form given on the pair basis."""
    pb = pair_basis(4)
    return np.append(v, 0.0)[pb.pos] * pb.sign


def _fix_sign(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for c in range(out.shape[1]):
        col = out[:, c]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            out[:, c] = -col
    return out


def _berger_frame_matrix(W: CurvatureTensor, frame: np.ndarray) -> np.ndarray:
    """Operator matrix in the frame-induced basis (f12, f13, f14, f34, f42, f23): L^T W L,
    L = (1/2) frame o frame (the frame on 2-forms) in that basis's order and orientation."""
    pb = pair_basis(4)
    i, j = np.array([(0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2)]).T
    L = 0.5 * kn_matrix(frame, frame)[:, pb.pos[i, j]] * pb.sign[i, j]
    return L.T @ W.mat @ L


def berger_normal_form(W: CurvatureTensor, tol: float = EPS_ALG) -> BergerNormalForm:
    """Adapted orthonormal frame in which W is [[A, B], [B, A]] with A, B diagonal.

    Eigenvalues are sorted descending on both blocks, so a + b and a - b are
    the self-dual and anti-self-dual spectra.  The frame is built from the
    quaternion triples of the two eigenbases: scaling the self-dual
    eigenforms by sqrt(2) yields anticommuting complex structures I_a, the
    anti-self-dual ones J_a, and the frame is (f, -I_1 f, -I_2 f, -I_3 f) for
    a unit f in the joint kernel of I_a - J_a (signs of the J's searched over
    the compatible discrete set).  Repeated eigenvalues just make the choice
    non-unique; the reconstruction residual is the correctness certificate.
    """
    split = split_self_dual(W, tol)
    check_bianchi(4, W.mat, tol)
    lp, up = np.linalg.eigh(split.wplus)
    lm, um = np.linalg.eigh(split.wminus)
    lp, up = lp[::-1], _fix_sign(up[:, ::-1])
    lm, um = lm[::-1], _fix_sign(um[:, ::-1])
    phis = _PM[:, :3] @ up
    psis = _PM[:, 3:] @ um
    I = [np.sqrt(2.0) * _form_matrix(phis[:, a]) for a in range(3)]
    J = [np.sqrt(2.0) * _form_matrix(psis[:, a]) for a in range(3)]
    # orient the triples: I1 I2 = -I3 and J1 J2 = +J3 match the standard frame
    if frobenius(I[0] @ I[1], -I[2]) < 0:
        I[2] = -I[2]
    if frobenius(J[0] @ J[1], J[2]) < 0:
        J[2] = -J[2]
    best: tuple[float, np.ndarray] | None = None
    for s1, s2 in product((1.0, -1.0), repeat=2):
        Js = (s1 * J[0], s2 * J[1], s1 * s2 * J[2])
        stack = np.vstack([I[a] - Js[a] for a in range(3)])
        _, sv, vt = np.linalg.svd(stack)
        if best is None or sv[-1] < best[0]:
            best = (sv[-1], vt[-1])
    f1 = best[1]
    frame = np.stack([f1, -I[0] @ f1, -I[1] @ f1, -I[2] @ f1], axis=1)
    M6 = _berger_frame_matrix(W, frame)
    a, b = (lp + lm) / 2.0, (lp - lm) / 2.0
    target = np.block([[np.diag(a), np.diag(b)], [np.diag(b), np.diag(a)]])
    residual = float(np.abs(M6 - target).max())
    return BergerNormalForm(frame=frame, a=a, b=b, residual=residual)


def pinched_lemma_check(lambda1: float, lambda3: float, S: float) -> bool:
    """Check the far-apart eigenvalue condition for a self-dual spectrum.

    Requires lambda1 >= S/6 > 0.  Returns True when

        lambda3 <= -lambda1/2 - lambda1 sqrt(3(lambda1 - S/6) / (4(3 lambda1 + S/6)))

    and in that case asserts S |W+|^2 >= 36 det(W+) on the reconstructed
    spectrum (lambda1, -lambda1 - lambda3, lambda3).
    """
    check_finite(lambda1=lambda1, lambda3=lambda3, S=S)
    if not S > 0:
        raise ValueError("requires positive scalar input")
    if lambda1 < S / 6.0 - EPS_ALG * max(1.0, abs(S)):
        raise ValueError("condition not applicable: largest eigenvalue below S/6")
    lam1 = max(lambda1, S / 6.0)
    thresh = -lam1 / 2.0 - lam1 * np.sqrt(3.0 * (lam1 - S / 6.0) / (4.0 * (3.0 * lam1 + S / 6.0)))
    satisfied = bool(lambda3 <= thresh + EPS_ALG * max(1.0, abs(thresh)))
    if satisfied:
        spec = np.array([lambda1, -lambda1 - lambda3, lambda3])
        conclusion = S * float(frobenius(spec, spec)) - 36.0 * float(np.prod(spec))
        if conclusion < -1e-9 * max(1.0, abs(S) ** 3):
            raise AssertionError("conclusion inequality violated on reconstructed spectrum")
    return satisfied


def e_circ_g_orthogonality(W: CurvatureTensor, E: np.ndarray) -> float:
    """<E o g, W^2> in dimension 4; vanishes for traceless E against a Weyl-type W.

    Also verifies the contraction identity sum_kpq W_ikpq W_jkpq = |W|^2 g_ij
    (operator-norm convention) that forces the orthogonality.
    """
    _require_weyl(W, EPS_ALG)
    E = check_traceless(E, "E")
    scale = max(1.0, float(np.abs(E).max()))
    contraction = 2.0 * pair_ricci(4, W.mat @ W.mat.T)  # sum_kpq W_ikpq W_jkpq
    w_norm_sq = inner(W, W)
    dev = np.abs(contraction - w_norm_sq * np.eye(4)).max()
    if dev > 100 * EPS_ALG * max(1.0, w_norm_sq):
        raise AssertionError("quadratic contraction of W is not pure trace")
    value = float(kn_g_pairing(E, W.mat))
    if abs(value) > 100 * EPS_ALG * max(1.0, w_norm_sq * scale):
        raise AssertionError("<E o g, W^2> does not vanish within tolerance")
    return value
