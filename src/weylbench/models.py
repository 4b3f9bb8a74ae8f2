"""Closed-form curvature packages for homogeneous model spaces.

Each model is emitted at one point in an adapted orthonormal frame; all
catalog entries are locally symmetric, so the differential identities the
workbench verifies degenerate to pointwise algebraic equations there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    bochner_curvature_term,
    decompose,
    kn_matrix,
    quadratic_forms,
    ricci_contraction,
)
from .basis import check_integer, check_pair_dimension, pair_basis, parse_float, parse_integer
from .tensors import CurvatureTensor, frobenius, inner


#: largest n^2 max|R_ijkl| a model may have.  Its diagonal Ricci form has trace norm at
#: most n^2 max|R_ijkl|, and the cubic identities of ``symmetric_space_identity_report``
#: (and the CLI bounds tol * max(1, that norm)^3) sum up to n^6 products of three
#: curvature entries; 1e100 keeps each such cube below 1e300, finite with room for the sums.
MAX_CURVATURE_SCALE = 1e100


@dataclass(frozen=True)
class Factor:
    kind: str       # "sphere" | "hyperbolic" | "euclidean"
    dim: int
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in ("sphere", "hyperbolic", "euclidean"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        object.__setattr__(self, "dim", check_integer(self.dim, f"{self.kind} dimension", 2))
        try:
            curvature = 1.0 / self.radius ** 2
        except (OverflowError, ZeroDivisionError):  # radius^2 overflows or underflows to 0
            curvature = 0.0
        if not (self.radius > 0 and 0.0 < curvature < np.inf):
            raise ValueError(f"radius {self.radius} must be positive with 0 < 1/radius^2 < inf")

    @property
    def sectional(self) -> float:
        if self.kind == "sphere":
            return 1.0 / self.radius ** 2
        if self.kind == "hyperbolic":
            return -1.0 / self.radius ** 2
        return 0.0


@dataclass(frozen=True)
class ModelSpec:
    kind: str                                # "sphere"|"hyperbolic"|"euclidean"|"product"|"fubini_study"
    dim: int = 0
    radius: float = 1.0
    factors: tuple[Factor, ...] = ()
    complex_dim: int = 0

    @property
    def n(self) -> int:
        if self.kind == "product":
            return sum(f.dim for f in self.factors)
        if self.kind == "fubini_study":
            return 2 * self.complex_dim
        return self.dim

    @property
    def blocks(self) -> tuple[Factor, ...]:
        """The constant-curvature factors of a space form (one) or a product."""
        if self.kind == "product":
            return self.factors
        return (Factor(self.kind, self.n, self.radius),)


@dataclass(frozen=True)
class CurvaturePackage:
    spec: ModelSpec
    R: CurvatureTensor
    Rc: np.ndarray
    S: float


def _factor(text: str) -> Factor:
    """One ``kind:dim[:radius]`` field group: a single space form or a product factor."""
    bits = text.strip().split(":")
    if len(bits) not in (2, 3):
        raise ValueError(f"bad model spec {text!r}, expected kind:dim[:radius]")
    return Factor(bits[0], parse_integer(bits[1], f"{bits[0]} dimension", 1),
                  parse_float(bits[2], f"{bits[0]} radius") if len(bits) == 3 else 1.0)


def parse_model_spec(text: str) -> ModelSpec:
    """Parse CLI strings like "sphere:4:1.0", "product:sphere:2:1.0,sphere:2:1.0" or
    "fubini-study:2"; a missing or extra field is refused, and so is a total dimension
    beyond ``basis.MAX_PAIR_MATRIX_BYTES``."""
    name, _, rest = text.strip().partition(":")
    kind = name.replace("-", "_")
    if kind == "product":
        factors = tuple(_factor(part) for part in rest.split(","))
        if len(factors) < 2:
            raise ValueError("product needs at least two factors")
        spec = ModelSpec(kind="product", factors=factors)
    elif kind in ("sphere", "hyperbolic", "euclidean"):
        f = _factor(text)
        spec = ModelSpec(kind=f.kind, dim=f.dim, radius=f.radius)
    elif kind == "fubini_study":
        if not rest or ":" in rest:
            raise ValueError(f"bad model spec {text!r}, expected fubini-study:m")
        spec = ModelSpec(kind=kind, complex_dim=parse_integer(rest, "complex dimension", 1))
    else:
        raise ValueError(f"unknown model kind {name!r}")
    check_pair_dimension(spec.n, f"model {text!r}", 2)
    return spec


def model_curvature(spec: ModelSpec) -> CurvaturePackage:
    n = check_integer(spec.n, "total model dimension", 3)
    if spec.kind == "fubini_study":
        check_integer(spec.complex_dim, "complex dimension", 2)
        # unit Fubini-Study curvature (holomorphic sectional curvature 4): (1/2)(g o g + J o J)
        # + 2 j j^T, with j the complex structure J (J e_2k = e_2k+1) at the index pairs
        J = np.kron(np.eye(spec.complex_dim), [[0.0, -1.0], [1.0, 0.0]])
        j = J[pair_basis(n).rows, pair_basis(n).cols]
        g = np.eye(n)
        R = CurvatureTensor(n, 0.5 * (kn_matrix(g, g) + kn_matrix(J, J))
                            + 2.0 * np.outer(j, j))
    elif spec.kind in ("sphere", "hyperbolic", "euclidean", "product"):
        # sum_f (sec_f / 2) g_f o g_f holds sec_f at each pair inside factor f, else zero
        factors = spec.blocks
        block = np.repeat(np.arange(len(factors)), [f.dim for f in factors])  # factor of an index
        i, j = block[pair_basis(n).rows], block[pair_basis(n).cols]
        sec = [f.sectional for f in factors]
        R = CurvatureTensor(n, np.diag(np.where(i == j, np.take(sec, i), 0.0)))
    else:
        raise ValueError(f"unknown model kind {spec.kind!r}")
    scale = n * n * float(np.abs(R.mat).max())
    if not scale <= MAX_CURVATURE_SCALE:
        raise ValueError(f"curvature scale n^2 max|R| = {scale:.3g} exceeds "
                         f"{MAX_CURVATURE_SCALE:g}, where the cubic identities overflow")
    Rc = ricci_contraction(R)
    return CurvaturePackage(spec=spec, R=R, Rc=Rc, S=float(np.trace(Rc)))


def closed_form_ricci(spec: ModelSpec) -> np.ndarray:
    """The Ricci form the spec implies, without its curvature tensor: (d_f - 1) K_f on the
    diagonal block of each constant-curvature factor f (dimension d_f, sectional curvature
    K_f), and the Einstein form 2(m + 1) g of unit Fubini-Study CP^m."""
    if spec.kind == "fubini_study":
        return 2.0 * (spec.complex_dim + 1) * np.eye(spec.n)
    blocks = spec.blocks
    return np.diag(np.repeat([(f.dim - 1) * f.sectional for f in blocks], [f.dim for f in blocks]))


def package_consistency(pkg: CurvaturePackage) -> dict[str, float]:
    """Residuals of the internal-consistency checks every catalog entry must pass; the
    Ricci form and scalar of the curvature are compared with ``closed_form_ricci``."""
    R, n = pkg.R, pkg.R.n
    Rc = closed_form_ricci(pkg.spec)
    out: dict[str, float] = {}
    out["ricci"] = float(np.abs(pkg.Rc - Rc).max())
    out["scalar"] = abs(pkg.S - float(np.trace(Rc)))
    if n >= 4:
        dec = decompose(R)
        total = dec.weyl.mat + dec.e_part.mat + dec.s_part.mat
        out["reassembly"] = float(np.abs(total - R.mat).max())
        lhs = inner(R, R)
        rhs = (inner(dec.weyl, dec.weyl) + pkg.S ** 2 / (2 * n * (n - 1))
               + float(frobenius(dec.E, dec.E)) / (n - 2))
        out["pythagoras"] = abs(lhs - rhs)
    return out


def symmetric_space_identity_report(pkg: CurvaturePackage) -> dict[str, float]:
    """Pointwise residuals of the zero-order identity balance on a symmetric space.

    r1 = 2 <W, W^2 + W#> - <Rc o g, W^2>
    r2 = W(E, E) - (n/(n-2)) E^3 - S |E|^2 / (n-1)

    Both vanish when the curvature is parallel, as on every catalog model (each
    is a locally symmetric space); elsewhere the discarded derivative terms need not.
    """
    n = pkg.R.n
    if n < 4:
        raise ValueError("identity report requires dimension >= 4")
    dec = decompose(pkg.R)
    W = dec.weyl
    r1 = bochner_curvature_term(n, pkg.Rc, W.mat)
    qf = quadratic_forms(W, dec.E)
    e_norm_sq = float(frobenius(dec.E, dec.E))
    r2 = qf.W_AA - (n / (n - 2)) * qf.A_cubed - pkg.S * e_norm_sq / (n - 1)
    return {"r1": float(r1), "r2": float(r2), "weyl_norm_sq": inner(W, W),
            "e_norm_sq": e_norm_sq, "scalar": pkg.S}
