"""Core tensor types: operators on 2-forms and the mixed-index tensor classes.

Norm conventions (fixed once, used everywhere: every <A, B> and |A|^2 is ``frobenius``, every
norm its square root, and only a sum of a product formed in the same expression is inline):

* operators on 2-forms:  |T|^2 = sum_{i<j, k<l} T_ijkl^2  (the operator norm,
  one quarter of the full four-index square sum), so <T, S> is the Frobenius
  inner product of the pair-basis matrices;
* T in Lambda^2 x T*:    |T|^2 = sum_i sum_{a<b} T_abi^2;
* T in Lambda^3 x Lambda^2: |T|^2 = sum_{i<j<k} sum_{a<b} T_ijkab^2;
* T in T* x S^2(Lambda^2):  |T|^2 = sum_i sum_{a<b; c<d} T_iabcd^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    bianchi_image,
    check_integer,
    four_tensor_to_pair_matrix,
    full3_to_pair_form,
    pair_basis,
    pair_form_to_full3,
    pair_matrix_to_four_tensor,
    triple_basis,
)

#: default relative tolerance for exact algebraic identities in double precision
EPS_ALG = 1e-10

#: tolerance for normal-form round trips (eigenvector sensitivity)
EPS_NF = 1e-8


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def max_abs(x, lead: int = 0) -> np.ndarray:
    """max|x| over every axis after the first ``lead``: one value per leading index.

    A NaN anywhere in an object makes its value NaN.
    """
    x = np.abs(x)
    return x.max() if lead == 0 else x.reshape(x.shape[:lead] + (-1,)).max(axis=-1)


def within_tol(resid, entries, tol: float, lead: int = 0):
    """max|resid| <= tol * max(1, max|entries|); a NaN or inf in either gives False.

    ``entries`` may also be max|entries| itself, taken once for several checks.
    The result is a numpy bool; with ``lead`` leading batch axes the rule holds
    object by object (each scaled by its own entries) and the result is a bool
    array of that shape.
    """
    top = max_abs(entries, lead)
    return (top < np.inf) & (max_abs(resid, lead) <= tol * np.maximum(1.0, top))  # False on NaN


def finite_scale(entries, what: str) -> float:
    """max|entries|, the scale for several ``within_tol`` checks of one input.

    Raises ValueError unless it is finite, so a NaN or inf is refused before a
    residual such as ``a - a.T`` can meet inf - inf.
    """
    scale = max_abs(entries)
    if not scale < np.inf:
        raise ValueError(f"{what} must be finite")
    return scale


def check_small(resid, entries, tol: float, message: str, lead: int = 0) -> None:
    """Raise ValueError(message) unless within_tol(resid, entries, tol, lead) holds
    for every object."""
    ok = within_tol(resid, entries, tol, lead)
    if not (ok.all() if lead else ok):
        raise ValueError(message)


def check_finite(**values) -> None:
    """Raise a ValueError naming the first input (a scalar or an array) that is not finite."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")


def check_symmetric(mat: np.ndarray, what: str = "matrix", tol: float = EPS_ALG,
                    lead: int = 0) -> np.ndarray:
    """mat symmetrized, once it is one square matrix (with ``lead`` leading batch axes, a
    stack of them), finite and symmetric within tol, each matrix at its own scale."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != lead + 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {mat.shape}")
    scale = max_abs(mat, lead)  # one per matrix; a NaN or inf is refused before mat - mat^T
    finite_scale(scale, what)
    check_small(mat - np.swapaxes(mat, -1, -2), scale, tol,
                f"{what} must be symmetric within tolerance {tol}", lead)
    return symmetrized(mat)


def check_traceless(mat: np.ndarray, what: str, tol: float = EPS_ALG) -> np.ndarray:
    """``check_symmetric``, then trace(mat) = 0 within tol; returns the symmetrized matrix."""
    mat = check_symmetric(mat, what, tol)
    check_small(np.trace(mat), mat, tol, f"{what} must be traceless")
    return mat


def symmetrized(m: np.ndarray) -> np.ndarray:
    """(m + m^T) / 2 over the last two axes."""
    return (m + np.swapaxes(m, -1, -2)) / 2.0


def running_max(old: float, values) -> float:
    """Running maximum of worst-case residuals; a NaN is kept (NaN means fail)."""
    return float(np.maximum(old, np.max(values, initial=-np.inf)))


class Operator2Form:
    """Operator on 2-forms stored as its pair-basis matrix.

    Self-adjointness (T_ijkl = T_klij) is required at construction unless
    ``require_self_adjoint=False``; products of distinct operators need the
    relaxed form since R.S is self-adjoint only when the factors commute.
    """

    __slots__ = ("n", "mat")

    def __init__(self, n: int, mat: np.ndarray, require_self_adjoint: bool = True):
        self.n = check_integer(n, "dimension", 2)
        pb = pair_basis(self.n)
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (pb.size, pb.size):
            raise ValueError(f"expected {pb.size} x {pb.size} matrix for n={n}, got {mat.shape}")
        if require_self_adjoint:
            mat = check_symmetric(mat, "pair-basis matrix")
        self.mat = _frozen(mat)

    @classmethod
    def from_four_tensor(cls, four: np.ndarray) -> "Operator2Form":
        n, four = _full(four, 4, ((0, 1), (2, 3)))
        return cls(n, four_tensor_to_pair_matrix(n, four))

    @property
    def size(self) -> int:
        return self.mat.shape[0]

    def four(self) -> np.ndarray:
        """Full (n, n, n, n) tensor, expanded afresh on each call."""
        return pair_matrix_to_four_tensor(self.n, self.mat)

    def component(self, i: int, j: int, k: int, l: int) -> float:
        pb = pair_basis(self.n)
        if i == j or k == l:
            return 0.0
        s = pb.sign[i, j] * pb.sign[k, l]
        return float(s * self.mat[pb.pos[i, j], pb.pos[k, l]])

    def is_self_adjoint(self) -> bool:
        return bool(within_tol(self.mat - self.mat.T, self.mat, EPS_ALG))

    def __add__(self, other: "Operator2Form") -> "Operator2Form":
        self._check_same(other)
        return Operator2Form(self.n, self.mat + other.mat, require_self_adjoint=False)

    def __sub__(self, other: "Operator2Form") -> "Operator2Form":
        self._check_same(other)
        return Operator2Form(self.n, self.mat - other.mat, require_self_adjoint=False)

    def __mul__(self, scalar: float) -> "Operator2Form":
        return Operator2Form(self.n, self.mat * float(scalar), require_self_adjoint=False)

    __rmul__ = __mul__

    def _check_same(self, other: "Operator2Form") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


def frobenius(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner products, one pairwise sum per matrix of (..., N, N) stacks (an empty
    batch gives none).  A sum of a product formed in place (``cubic_parts``) has these bits
    and stays inline, where numpy reuses its buffer (64 objects at n = 8 in its passes: 1.6 ms
    inline, 1.7 ms here, on 2 vCPUs)."""
    prod = a * b
    return prod.reshape(prod.shape[:-2] + (math.prod(prod.shape[-2:]),)).sum(axis=-1)


def inner(a: Operator2Form, b: Operator2Form) -> float:
    """<a, b> = (1/4) of the full four-index contraction."""
    a._check_same(b)
    return float(frobenius(a.mat, b.mat))


def norm(a: Operator2Form) -> float:
    return math.sqrt(inner(a, a))


def bianchi_residual(op: Operator2Form) -> float:
    """Max-norm of the first-Bianchi cyclic sum b(T) at the pair entries (``bianchi_image``)."""
    return float(np.abs(bianchi_image(op.n, op.mat)).max())


def check_bianchi(n: int, mat: np.ndarray, tol: float) -> None:
    """Raise ValueError unless b(T) = 0 within tol for every (..., N, N) pair matrix T,
    each scaled by its own entries; a NaN or inf fails.

    The residual is b(T) at the pair entries (``bianchi_image``).  The other n^4 entries
    add the same three terms in other orders, so their largest can differ in the last
    bits: a verdict differs from an n^4 check only within round-off of tol * scale.
    """
    check_small(bianchi_image(n, mat), mat, tol,
                "first Bianchi identity violated beyond tolerance", lead=mat.ndim - 2)


class CurvatureTensor(Operator2Form):
    """Self-adjoint operator on 2-forms satisfying the first Bianchi identity."""

    __slots__ = ()

    def __init__(self, n: int, mat: np.ndarray, tol: float = EPS_ALG):
        super().__init__(n, mat, require_self_adjoint=True)
        check_bianchi(self.n, self.mat, tol)

    @classmethod
    def from_operator(cls, op: Operator2Form) -> "CurvatureTensor":
        return cls(op.n, op.mat)


@dataclass(frozen=True)
class CurvatureDecomposition:
    """Orthogonal splitting R = weyl + e_part + s_part.

    ``e_part`` is (E o g)/(n-2) and ``s_part`` is S (g o g)/(2n(n-1)), with the
    traceless Ricci E and scalar S exposed directly.
    """

    weyl: CurvatureTensor
    e_part: CurvatureTensor
    s_part: CurvatureTensor
    E: np.ndarray
    S: float


def _full(full: np.ndarray, rank: int, pairs) -> tuple[int, np.ndarray]:
    """(n, full) for a finite (n,)*rank tensor antisymmetric within EPS_ALG in each slot
    pair of ``pairs``: the one boundary check of the full-tensor constructors."""
    full = np.asarray(full, dtype=float)
    n = full.shape[0] if full.ndim else 0
    if full.shape != (n,) * rank:
        raise ValueError(f"expected (n,)*{rank} tensor, got {full.shape}")
    scale = finite_scale(full, "tensor")
    for a, b in pairs:
        check_small(full + np.swapaxes(full, a, b), scale, EPS_ALG,
                    f"tensor is not antisymmetric in slots {a} and {b}")
    return n, full


class _Components:
    """A mixed-index tensor stored as its finite, read-only component array of shape
    ``_shape(n)``; its norm is sqrt(``frobenius``) of the flattened components."""

    __slots__ = ("n", "comps")
    _minimum = 2

    def __init__(self, n: int, comps: np.ndarray):
        self.n = check_integer(n, "dimension", self._minimum)
        comps = np.asarray(comps, dtype=float)
        if comps.shape != self._shape(self.n):
            raise ValueError(f"expected {self._shape(self.n)} components, got {comps.shape}")
        finite_scale(comps, "components")
        self.comps = _frozen(comps)

    def norm(self) -> float:
        return math.sqrt(frobenius(self.comps.reshape(-1), self.comps.reshape(-1)))


class TwoFormOneForm(_Components):
    """3-index tensor antisymmetric in its first two slots, components (N, n)."""

    __slots__ = ()

    @staticmethod
    def _shape(n: int) -> tuple:
        return pair_basis(n).size, n

    @classmethod
    def from_full(cls, full: np.ndarray) -> "TwoFormOneForm":
        n, full = _full(full, 3, ((0, 1),))
        return cls(n, full3_to_pair_form(n, full))

    def full(self) -> np.ndarray:
        return pair_form_to_full3(self.n, self.comps)


class ThreeTwoTensor(_Components):
    """Element of Lambda^3 x Lambda^2, components (triples, pairs)."""

    __slots__ = ()
    _minimum = 3

    @staticmethod
    def _shape(n: int) -> tuple:
        return triple_basis(n).size, pair_basis(n).size

    def __sub__(self, other: "ThreeTwoTensor") -> "ThreeTwoTensor":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return ThreeTwoTensor(self.n, self.comps - other.comps)

    def __add__(self, other: "ThreeTwoTensor") -> "ThreeTwoTensor":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return ThreeTwoTensor(self.n, self.comps + other.comps)

    def __mul__(self, scalar: float) -> "ThreeTwoTensor":
        return ThreeTwoTensor(self.n, self.comps * float(scalar))

    __rmul__ = __mul__


class CovDerivCurvature(_Components):
    """Formal covariant derivative of a curvature-type tensor.

    Components (m, a, b) over pair indices: slice m holds nabla_m T as a
    pair-basis matrix, each slice symmetric (T_abcd = T_cdab in the last
    four slots).
    """

    __slots__ = ()

    @staticmethod
    def _shape(n: int) -> tuple:
        return n, pair_basis(n).size, pair_basis(n).size

    def __init__(self, n: int, comps: np.ndarray):
        super().__init__(n, comps)
        check_small(self.comps - np.swapaxes(self.comps, 1, 2), self.comps, EPS_ALG,
                    "slices are not symmetric in the last four slots")

    @classmethod
    def from_full(cls, full: np.ndarray) -> "CovDerivCurvature":
        n, full = _full(full, 5, ((1, 2), (3, 4)))
        return cls(n, four_tensor_to_pair_matrix(n, full))

    def full(self) -> np.ndarray:
        return pair_matrix_to_four_tensor(self.n, self.comps)


class PureCurvatureMatrix:
    """Sectional-value matrix w_ij of a curvature diagonal on coordinate 2-forms.

    Symmetric, zero diagonal, and every row sums to zero.
    """

    __slots__ = ("n", "w")

    def __init__(self, n: int, w: np.ndarray):
        self.n = check_integer(n, "dimension", 2)
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n, self.n):
            raise ValueError(f"expected ({n}, {n}) matrix, got {w.shape}")
        scale = finite_scale(w, "pure-curvature matrix")
        check_small(w - w.T, scale, EPS_ALG, "pure-curvature matrix must be symmetric")
        check_small(np.diag(w), scale, EPS_ALG, "pure-curvature matrix must have zero diagonal")
        check_small(w.sum(axis=1), scale, EPS_ALG, "pure-curvature matrix rows must sum to zero")
        self.w = _frozen(w)
