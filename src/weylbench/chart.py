"""Finite-difference curvature calculus on a coordinate chart.

Christoffel symbols come from central differences of the metric, curvature
from differences of the Christoffels, and covariant derivatives of curvature
quantities from differences of the pointwise fields with Christoffel
correction.  Everything is expressed at the center point in the
Gram-orthonormalized coordinate frame (lower-triangular Cholesky convention).

Every stencil point of an assembly is an integer offset k from the center,
with coordinates ``GridSpec.point(k) = center + h * k``.

Sign convention: R_ijkl = -g_ls R^s_ijk with
R^s_ijk = d_i Gamma^s_jk - d_j Gamma^s_ik + Gamma-quadratic terms, which makes
the round unit sphere have sectional curvature +1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    circ_prime,
    congruence_four,
    cubic_parts,
    decomposition,
    dot_product,
    kulkarni_nomizu,
    second_bianchi,
    weyl_split,
)
from .tensors import (
    CovDerivCurvature,
    CurvatureDecomposition,
    CurvatureTensor,
    Operator2Form,
    ThreeTwoTensor,
    TwoFormOneForm,
    check_dimension,
    check_finite,
    check_symmetric,
)


@dataclass(frozen=True)
class ChartMetric:
    """Metric evaluator on a coordinate chart with an analytic tag.

    Positive definiteness is checked at every evaluated point.  Grid-file
    metrics carry the grid they were tabulated for in ``default_grid``.
    """

    name: str
    n: int
    fn: Callable[[np.ndarray], np.ndarray]
    harmonic_weyl: bool = False
    default_grid: "GridSpec | None" = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)
        if g.shape != (self.n, self.n):
            raise ValueError(f"metric evaluator returned shape {g.shape}")
        if not np.linalg.eigvalsh(g).min() > 0:  # a NaN fails too
            raise ValueError(f"metric not positive definite at {np.asarray(x).tolist()}")
        return g


@dataclass(frozen=True)
class GridSpec:
    center: np.ndarray
    h: float = 1e-3
    order: int = 2

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        check_finite(self.h, self.center)
        if self.h <= 0:
            raise ValueError("step must be positive")
        if self.order not in (2, 4):
            raise ValueError("stencil order must be 2 or 4")

    def point(self, k) -> np.ndarray:
        """Coordinates of the stencil point at integer offset k."""
        return self.center + self.h * np.asarray(k, dtype=float)


def _sphere_stereo(n: int, radius: float) -> Callable[[np.ndarray], np.ndarray]:
    def fn(x: np.ndarray) -> np.ndarray:
        conf = 4.0 * radius * radius / (1.0 + float(x @ x)) ** 2
        return conf * np.eye(n)
    return fn


def _product_spheres(p: int, q: int, r1: float, r2: float) -> Callable[[np.ndarray], np.ndarray]:
    gp, gq = _sphere_stereo(p, r1), _sphere_stereo(q, r2)
    def fn(x: np.ndarray) -> np.ndarray:
        out = np.zeros((p + q, p + q))
        out[:p, :p] = gp(x[:p])
        out[p:, p:] = gq(x[p:])
        return out
    return fn


def _perturbed(n: int, amp: float) -> Callable[[np.ndarray], np.ndarray]:
    def fn(x: np.ndarray) -> np.ndarray:
        out = np.eye(n)
        for i in range(n):
            for j in range(i, n):
                v = amp * (0.3 * math.sin((i + 1) * x[j % n] + j)
                           + 0.2 * x[i] * x[j]
                           + 0.1 * x[(i + j) % n] ** 3)
                out[i, j] += v
                if i != j:
                    out[j, i] += v
        return out
    return fn


def preset_metric(name: str) -> ChartMetric:
    """Named chart presets.

    "euclidean:n", "sphere-stereo:n[:r]", "product-spheres:p:q[:r1[:r2]]",
    "perturbed:n[:amp]".  The first three carry the harmonic-Weyl tag (flat,
    conformally flat, locally symmetric); the perturbed family is generic.
    Radii default to 1 and must be positive and finite.
    """
    bits = name.strip().split(":")
    kind = bits[0]

    def radius(i: int) -> float:
        r = float(bits[i]) if len(bits) > i else 1.0
        if not 0 < r < math.inf:
            raise ValueError("radius must be positive and finite")
        return r

    if kind == "euclidean" and len(bits) == 2:
        n = int(bits[1])
        return ChartMetric(name, n, lambda x: np.eye(n), harmonic_weyl=True)
    if kind == "sphere-stereo" and len(bits) in (2, 3):
        n = int(bits[1])
        return ChartMetric(name, n, _sphere_stereo(n, radius(2)), harmonic_weyl=True)
    if kind == "product-spheres" and len(bits) in (3, 4, 5):
        p, q = int(bits[1]), int(bits[2])
        return ChartMetric(name, p + q, _product_spheres(p, q, radius(3), radius(4)),
                           harmonic_weyl=True)
    if kind == "perturbed" and len(bits) in (2, 3):
        n = int(bits[1])
        amp = float(bits[2]) if len(bits) > 2 else 0.05
        return ChartMetric(name, n, _perturbed(n, amp), harmonic_weyl=False)
    raise ValueError(f"bad chart preset {name!r}")


def grid_file_metric(path: str) -> ChartMetric:
    """Metric tabulated at the lattice offsets of one assembly (see ``dump_grid_file``).

    A point x is served only if it is the file grid's point c + h*k of a listed
    offset k, bit for bit.  At load every matrix must be finite and symmetric
    and every offset a distinct length-n integer vector.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("grid"), dict):
        raise ValueError(f"{path} is not a grid file (a JSON object with a grid object)")
    if "points" in data:
        raise ValueError(f"{path} is an old-format grid file (explicit points); "
                         "write it again with dump_grid_file")
    spec = data["grid"]
    n = check_dimension(_json_number(data["n"], int, "n"))
    center = [_json_number(c, float, "grid.center entry")
              for c in _json_list(spec["center"], "grid.center")]
    if len(center) != n:
        raise ValueError(f"grid file grid.center has {len(center)} entries, expected n = {n}")
    grid = GridSpec(center=center, h=_json_number(spec["h"], float, "grid.h"),
                    order=_json_number(spec["order"], int, "grid.order"))
    table: dict[tuple, np.ndarray] = {}
    for k, mat in zip(_json_list(data["offsets"], "offsets"),
                      _json_list(data["matrices"], "matrices"), strict=True):
        if (not (isinstance(k, list) and len(k) == n and all(type(c) is int for c in k))
                or tuple(k) in table):
            raise ValueError(f"grid file offset {k!r} is not a new length-{n} integer vector")
        table[tuple(k)] = check_symmetric(_json_matrix(mat), "grid file matrix")

    def fn(x: np.ndarray) -> np.ndarray:
        k = np.rint((x - grid.center) / grid.h)
        g = table.get(tuple(int(c) for c in k)) if np.array_equal(grid.point(k), x) else None
        if g is None:
            raise KeyError(f"grid file has no metric sample at {x.tolist()}")
        return g

    return ChartMetric(name=f"grid-file:{path}", n=n, fn=fn,
                       harmonic_weyl=bool(data.get("harmonic_weyl", False)),
                       default_grid=grid)


def _json_number(value, kind: type, what: str):
    """A JSON number as ``kind``; null, booleans, strings and containers are refused,
    and so is a non-integer where an integer is expected."""
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"grid file {what} must be {expected}, got {json.dumps(value)}")
    return kind(value)


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"grid file {what} must be a list, got {json.dumps(value)}")
    return value


def _json_matrix(value) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"grid file matrix is not numeric ({exc})") from None


def dump_grid_file(metric: ChartMetric, grid: GridSpec, path: str,
                   with_ricci_identity: bool = False) -> int:
    """Run one field assembly and write its metric table, addressed by offset, as JSON."""
    lattice = _Lattice(metric, grid)
    _assemble(lattice, with_ricci_identity)
    offsets = sorted(lattice.tables["g"])
    data = {"n": metric.n, "harmonic_weyl": metric.harmonic_weyl,
            "grid": {"center": grid.center.tolist(), "h": grid.h, "order": grid.order},
            "offsets": [list(k) for k in offsets],
            "matrices": [lattice.tables["g"][k].tolist() for k in offsets]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return len(offsets)


def _shift(k: tuple, m: int, s: int) -> tuple:
    """Offset k moved s steps along axis m."""
    return k[:m] + (k[m] + s,) + k[m + 1:]


class _Lattice:
    """The stencil points of one field assembly, addressed by integer offsets.

    ``g``, ``gamma``, ``decomp`` and ``w2`` give the validated metric,
    ``christoffel``, ``_decomp_coords`` and ``_w_norm_sq_at`` at an offset k (a
    tuple of ints), each computed once per offset and kept in ``tables``.  A
    point reached along two stencil paths is one key, and its coordinates come
    from the one formula ``grid.point(k)``.  A lattice lives for one assembly.
    """

    def __init__(self, metric: ChartMetric, grid: GridSpec):
        if metric.n < 4:
            raise ValueError("chart fields require dimension >= 4 (Weyl decomposition)")
        if grid.center.shape != (metric.n,):
            raise ValueError(f"center must have shape ({metric.n},)")
        self.metric, self.grid, self.n = metric, grid, metric.n
        self.origin = (0,) * metric.n
        self.tables: dict[str, dict] = {s: {} for s in ("g", "gamma", "decomp", "w2")}

    def _lookup(self, stage: str, k: tuple, compute: Callable[[], object]):
        table = self.tables[stage]
        if k not in table:
            table[k] = compute()
        return table[k]

    def g(self, k): return self._lookup("g", k, lambda: self.metric(self.grid.point(k)))
    def gamma(self, k): return self._lookup("gamma", k, lambda: christoffel(self, k))
    def decomp(self, k): return self._lookup("decomp", k, lambda: _decomp_coords(self, k))
    def w2(self, k): return self._lookup("w2", k, lambda: _w_norm_sq_at(self, k))

    def grad(self, f: Callable[[tuple], np.ndarray], k: tuple) -> np.ndarray:
        """d_m f at offset k, stacked over the axis m, by a central difference."""
        def along(s):
            return np.stack([f(_shift(k, m, s)) for m in range(self.n)])
        h = self.grid.h
        if self.grid.order == 2:
            return (along(1) - along(-1)) / (2.0 * h)
        return (-along(2) + 8.0 * along(1) - 8.0 * along(-1) + along(-2)) / (12.0 * h)

    def nabla(self, f: Callable[[tuple], np.ndarray], k: tuple) -> np.ndarray:
        """nabla_m T = d_m T - sum over slots a of Gamma^s_ma T_..s.. for T = f(k) of any rank."""
        T, gam = f(k), self.gamma(k)
        idx = "abcdefgh"[:T.ndim]
        return self.grad(f, k) - sum(np.einsum(f"sm{a},{idx.replace(a, 's')}->m{idx}", gam, T)
                                     for a in idx)


def christoffel(lattice: _Lattice, k: tuple) -> np.ndarray:
    """Gamma^c_ij = (1/2) g^{cl} (d_i g_jl + d_j g_il - d_l g_ij), indexed [c, i, j]."""
    gi = np.linalg.inv(lattice.g(k))
    dg = lattice.grad(lattice.g, k)
    term = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    return 0.5 * np.einsum('kl,ijl->kij', gi, term)


def curvature_tensor_at(lattice: _Lattice, k: tuple) -> np.ndarray:
    """(0,4) curvature in coordinates, projected onto its exact symmetry class.

    The projection removes the O(h^2) antisymmetry/pair-symmetry defects of
    the raw stencil value without touching its first-Bianchi content.
    """
    g = lattice.g(k)
    gam = lattice.gamma(k)
    dgam = lattice.grad(lattice.gamma, k)
    rup = (np.transpose(dgam, (0, 2, 3, 1)) - np.transpose(dgam, (2, 0, 3, 1))
           + np.einsum('sip,pjk->ijks', gam, gam) - np.einsum('sjp,pik->ijks', gam, gam))
    R = -np.einsum('ijks,ls->ijkl', rup, g)
    R = 0.25 * (R - np.transpose(R, (1, 0, 2, 3)) - np.transpose(R, (0, 1, 3, 2))
                + np.transpose(R, (1, 0, 3, 2)))
    return 0.5 * (R + np.transpose(R, (2, 3, 0, 1)))


def _decomp_coords(lattice: _Lattice, k: tuple):
    """R, Rc, S, E, W in coordinates at offset k."""
    R = curvature_tensor_at(lattice, k)
    split = weyl_split(R, lattice.g(k))
    return R, split.Rc, float(split.S), split.E, split.W


def _w_norm_sq_at(lattice: _Lattice, k: tuple) -> float:
    W = lattice.decomp(k)[4]
    gi = np.linalg.inv(lattice.g(k))
    return 0.25 * float(np.vdot(congruence_four(W, gi), W))


@dataclass(frozen=True)
class ChartCurvatureField:
    """Curvature data at the chart center in the orthonormalized frame."""

    metric: ChartMetric
    grid: GridSpec
    frame: np.ndarray                   # columns express frame vectors in coordinates
    R: CurvatureTensor
    Rc: np.ndarray
    S: float
    decomposition: CurvatureDecomposition
    nabla_r: CovDerivCurvature
    nabla_w: CovDerivCurvature
    nabla_rc: np.ndarray                # (m, i, j) frame components
    grad_s: np.ndarray                  # (m,) frame components
    delta_w: TwoFormOneForm
    P: TwoFormOneForm
    Q: TwoFormOneForm
    b_w: ThreeTwoTensor
    b_r: ThreeTwoTensor
    lap_w_norm_sq: float                # metric Laplacian of |W|^2
    grad_w_norm: np.ndarray             # frame gradient of |W|
    nabla_w_norm_sq: float              # |nabla W|^2
    ricci_identity_residual: float | None = None


def curvature_field(metric: ChartMetric, grid: GridSpec,
                    with_ricci_identity: bool = False) -> ChartCurvatureField:
    """Assemble the full curvature field of a chart metric at the grid center."""
    return _assemble(_Lattice(metric, grid), with_ricci_identity)


def _assemble(lattice: _Lattice, with_ricci_identity: bool) -> ChartCurvatureField:
    n, h, o = lattice.n, lattice.grid.h, lattice.origin
    # wrap tolerance for validated containers: discretization leaves O(h^2) defects
    wrap_tol = max(1e-8, 200.0 * h * h)
    g0 = lattice.g(o)
    gi0 = np.linalg.inv(g0)
    L = np.linalg.cholesky(g0)
    F = np.linalg.inv(L).T  # columns: frame vectors; F^T g0 F = Id
    gam0 = lattice.gamma(o)

    # decomp(k) is (R, Rc, S, E, W) in coordinates
    nR = lattice.nabla(lambda k: lattice.decomp(k)[0], o)
    nW = lattice.nabla(lambda k: lattice.decomp(k)[4], o)
    nRc = lattice.nabla(lambda k: lattice.decomp(k)[1], o)
    vS = F.T @ lattice.grad(lambda k: lattice.decomp(k)[2], o)

    def to_frame(T: np.ndarray) -> np.ndarray:
        for _ in range(T.ndim):
            T = np.tensordot(T, F, axes=([0], [0]))
        return T

    Rf, nRf, nWf, nRcf = map(to_frame, (lattice.decomp(o)[0], nR, nW, nRc))

    R_op = CurvatureTensor.from_operator(Operator2Form.from_four_tensor(Rf), tol=wrap_tol)
    frame_split = weyl_split(Rf)
    dec = decomposition(frame_split, tol=wrap_tol)
    g_id = np.eye(n)

    nabla_r = CovDerivCurvature.from_full(nRf)
    nabla_w = CovDerivCurvature.from_full(nWf)
    delta_w = TwoFormOneForm.from_full(np.einsum('mabcm->abc', nWf))
    P = TwoFormOneForm.from_full(nRcf - np.transpose(nRcf, (1, 0, 2)))
    Q = TwoFormOneForm.from_full(np.einsum('ki,j->ijk', g_id, vS)
                                 - np.einsum('kj,i->ijk', g_id, vS))
    b_w = second_bianchi(nabla_w)
    b_r = second_bianchi(nabla_r)

    w2 = lattice.w2
    d2f = np.zeros((n, n))
    f0 = w2(o)
    for a in range(n):
        d2f[a, a] = (w2(_shift(o, a, 1)) - 2.0 * f0 + w2(_shift(o, a, -1))) / (h * h)
        for b in range(a + 1, n):
            def w2_ab(sa, sb): return w2(_shift(_shift(o, a, sa), b, sb))
            v = (w2_ab(1, 1) - w2_ab(1, -1) - w2_ab(-1, 1) + w2_ab(-1, -1)) / (4.0 * h * h)
            d2f[a, b] = d2f[b, a] = v
    d1f = lattice.grad(w2, o)
    lap_w2 = float(np.einsum('ab,ab->', gi0, d2f)
                   - np.einsum('ab,sab,s->', gi0, gam0, d1f))

    grad_absw = F.T @ lattice.grad(lambda k: math.sqrt(max(w2(k), 0.0)), o)
    nw_norm_sq = float(np.sum(nabla_w.comps ** 2))
    ricci_res = _ricci_identity_residual(lattice, o) if with_ricci_identity else None

    return ChartCurvatureField(
        metric=lattice.metric, grid=lattice.grid, frame=F, R=R_op, Rc=frame_split.Rc,
        S=dec.S, decomposition=dec,
        nabla_r=nabla_r, nabla_w=nabla_w, nabla_rc=nRcf, grad_s=vS,
        delta_w=delta_w, P=P, Q=Q, b_w=b_w, b_r=b_r,
        lap_w_norm_sq=lap_w2, grad_w_norm=grad_absw, nabla_w_norm_sq=nw_norm_sq,
        ricci_identity_residual=ricci_res)


def _ricci_identity_residual(lattice: _Lattice, k: tuple) -> float:
    """Commutator of second covariant derivatives of Ricci against the curvature terms."""
    def nabla_rc(j): return lattice.nabla(lambda i: lattice.decomp(i)[1], j)
    n2 = lattice.nabla(nabla_rc, k)
    comm = n2 - np.transpose(n2, (1, 0, 2, 3))
    R, Rc = lattice.decomp(k)[:2]
    gi = np.linalg.inv(lattice.g(k))
    rhs = (np.einsum('abcs,st,td->abcd', R, gi, Rc)
           + np.einsum('abds,st,tc->abcd', R, gi, Rc))
    return float(np.abs(comm - rhs).max())


def weyl_derivative_pack(f: ChartCurvatureField) -> dict:
    """First-derivative tensors of the field: divergence, P/Q, second-Bianchi maps."""
    return {"delta_w": f.delta_w, "P": f.P, "Q": f.Q, "B_W": f.b_w, "B_R": f.b_r}


def identity_residual_report(f: ChartCurvatureField,
                             include_bochner: bool | None = None) -> dict[str, float]:
    """Named residuals of the differential identities at the chart center.

    The Bochner balance is asserted only for harmonic-Weyl presets (it is an
    identity only when the divergence of the Weyl part vanishes); requesting
    it on an untagged metric raises.
    """
    n = f.metric.n
    if include_bochner is None:
        include_bochner = f.metric.harmonic_weyl
    if include_bochner and not f.metric.harmonic_weyl:
        raise ValueError("Bochner residual requires a harmonic-Weyl preset")
    out: dict[str, float] = {}
    out["second_bianchi_r"] = f.b_r.norm()
    bw_pred = circ_prime(f.delta_w) * (1.0 / (n - 3))
    out["bianchi_map_w"] = (f.b_w - bw_pred).norm()
    bw2 = f.b_w.norm() ** 2
    dw2 = f.delta_w.norm() ** 2
    out["bianchi_norm_identity"] = abs(bw2 - dw2 / (n - 3))
    out["bianchi_grad_margin"] = 3.0 * f.nabla_w_norm_sq - bw2
    pq = f.P.comps + f.Q.comps / (2.0 * (n - 1))
    out["delta_w_pq"] = float(np.abs(f.delta_w.comps + (n - 3) / (n - 2) * pq).max())
    grad2 = float(np.sum(f.grad_w_norm ** 2))
    out["kato_classical_margin"] = f.nabla_w_norm_sq - grad2
    out["grad_abs_w_sq"] = grad2
    out["nabla_w_sq"] = f.nabla_w_norm_sq
    if f.metric.harmonic_weyl:
        out["kato_improved_margin"] = f.nabla_w_norm_sq - (n + 1) / (n - 1) * grad2
    if include_bochner:
        W = f.decomposition.weyl
        cubic = float(sum(cubic_parts(W.four())))
        rc_term = float(np.sum(kulkarni_nomizu(f.Rc, np.eye(n)).mat
                               * dot_product(W, W).mat))
        out["bochner"] = (f.lap_w_norm_sq - 2.0 * f.nabla_w_norm_sq
                          + 4.0 * cubic - 2.0 * rc_term)
    if f.ricci_identity_residual is not None:
        out["ricci_identity"] = f.ricci_identity_residual
    return out
