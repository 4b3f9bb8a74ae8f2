"""Finite-difference curvature calculus on a coordinate chart.

Christoffel symbols come from central differences of the metric, curvature
from differences of the Christoffels, and covariant derivatives of curvature
quantities from differences of the pointwise fields with Christoffel
correction.  Everything is expressed at the center point in the
Gram-orthonormalized coordinate frame (lower-triangular Cholesky convention).

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
    check_finite,
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
        if np.linalg.eigvalsh(g).min() <= 0:
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

    "euclidean:n", "sphere-stereo:n[:r]", "product-spheres:p:q:r1:r2",
    "perturbed:n[:amp]".  The first three carry the harmonic-Weyl tag (flat,
    conformally flat, locally symmetric); the perturbed family is generic.
    """
    bits = name.strip().split(":")
    kind = bits[0]
    if kind == "euclidean":
        n = int(bits[1])
        return ChartMetric(name, n, lambda x: np.eye(n), harmonic_weyl=True)
    if kind == "sphere-stereo":
        n = int(bits[1])
        r = float(bits[2]) if len(bits) > 2 else 1.0
        return ChartMetric(name, n, _sphere_stereo(n, r), harmonic_weyl=True)
    if kind == "product-spheres":
        p, q = int(bits[1]), int(bits[2])
        r1 = float(bits[3]) if len(bits) > 3 else 1.0
        r2 = float(bits[4]) if len(bits) > 4 else 1.0
        return ChartMetric(name, p + q, _product_spheres(p, q, r1, r2), harmonic_weyl=True)
    if kind == "perturbed":
        n = int(bits[1])
        amp = float(bits[2]) if len(bits) > 2 else 0.05
        return ChartMetric(name, n, _perturbed(n, amp), harmonic_weyl=False)
    raise ValueError(f"unknown chart preset {name!r}")


def grid_file_metric(path: str) -> ChartMetric:
    """Metric tabulated at explicit points; evaluation only at supplied nodes."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    n = int(data["n"])
    table: dict[tuple, np.ndarray] = {}
    for point, mat in zip(data["points"], data["matrices"]):
        key = tuple(round(float(c), 12) for c in point)
        table[key] = np.asarray(mat, dtype=float)
    def fn(x: np.ndarray) -> np.ndarray:
        key = tuple(round(float(c), 12) for c in x)
        if key not in table:
            raise KeyError(f"grid file has no metric sample at {list(key)}")
        return table[key]
    default_grid = None
    if "grid" in data:
        g = data["grid"]
        default_grid = GridSpec(center=np.asarray(g["center"], dtype=float),
                                h=float(g["h"]), order=int(g["order"]))
    return ChartMetric(name=f"grid-file:{path}", n=n, fn=fn,
                       harmonic_weyl=bool(data.get("harmonic_weyl", False)),
                       default_grid=default_grid)


def recording_metric(
        metric: ChartMetric) -> tuple[ChartMetric, list[tuple[np.ndarray, np.ndarray]]]:
    """Wrap a metric so every evaluation is recorded as a (point, matrix) pair."""
    log: list[tuple[np.ndarray, np.ndarray]] = []
    def fn(x: np.ndarray) -> np.ndarray:
        g = metric.fn(x)
        log.append((np.array(x, dtype=float), g))
        return g
    return ChartMetric(metric.name, metric.n, fn, metric.harmonic_weyl), log


def dump_grid_file(metric: ChartMetric, grid: GridSpec, path: str,
                   with_ricci_identity: bool = False) -> int:
    """Tabulate exactly the points a field assembly touches and write them as JSON."""
    rec, log = recording_metric(metric)
    curvature_field(rec, grid, with_ricci_identity=with_ricci_identity)
    seen: dict[tuple, list] = {}
    for x, g in log:
        key = tuple(round(float(c), 12) for c in x)
        if key not in seen:
            seen[key] = np.asarray(g).tolist()
    points = sorted(seen)
    data = {"n": metric.n, "harmonic_weyl": metric.harmonic_weyl,
            "grid": {"center": grid.center.tolist(), "h": grid.h, "order": grid.order},
            "points": [list(p) for p in points],
            "matrices": [seen[p] for p in points]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return len(points)


def _d1(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, m: int,
        h: float, order: int):
    e = np.zeros_like(x)
    e[m] = h
    if order == 2:
        return (f(x + e) - f(x - e)) / (2.0 * h)
    return (-f(x + 2 * e) + 8.0 * f(x + e) - 8.0 * f(x - e) + f(x - 2 * e)) / (12.0 * h)


def christoffel(metric: ChartMetric, x: np.ndarray, h: float, order: int = 2) -> np.ndarray:
    """Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), indexed [k, i, j]."""
    gi = np.linalg.inv(metric(x))
    dg = np.stack([_d1(metric, x, m, h, order) for m in range(metric.n)])
    term = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    return 0.5 * np.einsum('kl,ijl->kij', gi, term)


class _AssemblyMemo:
    """The pure per-point stages of one field assembly, each evaluated once per point.

    Calling the memo gives the validated metric, like the ChartMetric it wraps;
    ``gamma``, ``decomp`` and ``w_norm_sq`` give ``christoffel``,
    ``_decomp_coords`` and ``_w_norm_sq_at`` at the assembly's step and order.
    The key is the exact coordinates (``x.tobytes()``), so a hit returns the
    very value a recomputation would.  A memo lives for one assembly only.
    """

    def __init__(self, metric: ChartMetric, h: float, order: int):
        self.metric, self.n, self.h, self.order = metric, metric.n, h, order
        self._tables: dict[str, dict[bytes, object]] = {
            "g": {}, "gamma": {}, "decomp": {}, "w2": {}}

    def _lookup(self, stage: str, x: np.ndarray, compute: Callable[[], object]):
        table, key = self._tables[stage], x.tobytes()
        value = table.get(key)
        if value is None:
            value = table[key] = compute()
        return value

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._lookup("g", x, lambda: self.metric(x))

    def gamma(self, x: np.ndarray) -> np.ndarray:
        return self._lookup("gamma", x, lambda: christoffel(self, x, self.h, self.order))

    def decomp(self, x: np.ndarray) -> tuple:
        return self._lookup("decomp", x, lambda: _decomp_coords(self, x, self.h, self.order))

    def w_norm_sq(self, x: np.ndarray) -> float:
        return self._lookup("w2", x, lambda: _w_norm_sq_at(self, x, self.h, self.order))


def curvature_tensor_at(metric: _AssemblyMemo, x: np.ndarray, h: float,
                        order: int = 2) -> np.ndarray:
    """(0,4) curvature in coordinates, projected onto its exact symmetry class.

    The projection removes the O(h^2) antisymmetry/pair-symmetry defects of
    the raw stencil value without touching its first-Bianchi content.
    """
    g = metric(x)
    gam = metric.gamma(x)
    dgam = np.stack([_d1(metric.gamma, x, m, h, order) for m in range(metric.n)])
    rup = (np.transpose(dgam, (0, 2, 3, 1)) - np.transpose(dgam, (2, 0, 3, 1))
           + np.einsum('sip,pjk->ijks', gam, gam) - np.einsum('sjp,pik->ijks', gam, gam))
    R = -np.einsum('ijks,ls->ijkl', rup, g)
    R = 0.25 * (R - np.transpose(R, (1, 0, 2, 3)) - np.transpose(R, (0, 1, 3, 2))
                + np.transpose(R, (1, 0, 3, 2)))
    return 0.5 * (R + np.transpose(R, (2, 3, 0, 1)))


def _decomp_coords(metric: _AssemblyMemo, x: np.ndarray, h: float, order: int):
    """R, Rc, S, E, W in coordinates at x."""
    R = curvature_tensor_at(metric, x, h, order)
    split = weyl_split(R, metric(x))
    return R, split.Rc, float(split.S), split.E, split.W


def _w_norm_sq_at(metric: _AssemblyMemo, x: np.ndarray, h: float, order: int) -> float:
    _, _, _, _, W = metric.decomp(x)
    gi = np.linalg.inv(metric(x))
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
    n = metric.n
    if n < 4:
        raise ValueError("chart fields require dimension >= 4 (Weyl decomposition)")
    x0, h, order = grid.center, grid.h, grid.order
    if x0.shape != (n,):
        raise ValueError(f"center must have shape ({n},)")
    # wrap tolerance for validated containers: discretization leaves O(h^2) defects
    wrap_tol = max(1e-8, 200.0 * h * h)
    # every stencil point is reached many times; each stage runs once per point
    memo = _AssemblyMemo(metric, h, order)
    g0 = memo(x0)
    gi0 = np.linalg.inv(g0)
    L = np.linalg.cholesky(g0)
    F = np.linalg.inv(L).T  # columns: frame vectors; F^T g0 F = Id
    gam0 = memo.gamma(x0)

    R0, Rc0, _, _, W0 = memo.decomp(x0)

    def cov_deriv4(tensor_at: Callable[[np.ndarray], np.ndarray], T0: np.ndarray) -> np.ndarray:
        dT = np.stack([_d1(tensor_at, x0, m, h, order) for m in range(n)])
        return dT - (np.einsum('sma,sbcd->mabcd', gam0, T0)
                     + np.einsum('smb,ascd->mabcd', gam0, T0)
                     + np.einsum('smc,absd->mabcd', gam0, T0)
                     + np.einsum('smd,abcs->mabcd', gam0, T0))

    def R_at(x): return memo.decomp(x)[0]
    def W_at(x): return memo.decomp(x)[4]
    def Rc_at(x): return memo.decomp(x)[1]
    def S_at(x): return memo.decomp(x)[2]

    nR = cov_deriv4(R_at, R0)
    nW = cov_deriv4(W_at, W0)
    dRc = np.stack([_d1(Rc_at, x0, m, h, order) for m in range(n)])
    nRc = dRc - (np.einsum('sma,sb->mab', gam0, Rc0) + np.einsum('smb,as->mab', gam0, Rc0))
    dS = np.array([_d1(S_at, x0, m, h, order) for m in range(n)])

    def to_frame(T: np.ndarray) -> np.ndarray:
        out = T
        for _ in range(T.ndim):
            out = np.tensordot(out, F, axes=([0], [0]))
        return out

    Rf = to_frame(R0)
    nRf = to_frame(nR)
    nWf = to_frame(nW)
    nRcf = to_frame(nRc)
    vS = F.T @ dS

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

    w2_at = memo.w_norm_sq
    d2f = np.zeros((n, n))
    f0 = w2_at(x0)
    for a in range(n):
        ea = np.zeros(n); ea[a] = h
        d2f[a, a] = (w2_at(x0 + ea) - 2.0 * f0 + w2_at(x0 - ea)) / (h * h)
        for b in range(a + 1, n):
            eb = np.zeros(n); eb[b] = h
            v = (w2_at(x0 + ea + eb) - w2_at(x0 + ea - eb)
                 - w2_at(x0 - ea + eb) + w2_at(x0 - ea - eb)) / (4.0 * h * h)
            d2f[a, b] = d2f[b, a] = v
    d1f = np.array([_d1(w2_at, x0, m, h, order) for m in range(n)])
    lap_w2 = float(np.einsum('ab,ab->', gi0, d2f)
                   - np.einsum('ab,sab,s->', gi0, gam0, d1f))

    def absw_at(x): return math.sqrt(max(w2_at(x), 0.0))
    dabs = np.array([_d1(absw_at, x0, m, h, order) for m in range(n)])
    grad_absw = F.T @ dabs

    nw_norm_sq = float(np.sum(nabla_w.comps ** 2))

    ricci_res = None
    if with_ricci_identity:
        ricci_res = _ricci_identity_residual(memo, x0, h, order, gam0, R0, Rc0)

    return ChartCurvatureField(
        metric=metric, grid=grid, frame=F, R=R_op, Rc=frame_split.Rc, S=dec.S,
        decomposition=dec,
        nabla_r=nabla_r, nabla_w=nabla_w, nabla_rc=nRcf, grad_s=vS,
        delta_w=delta_w, P=P, Q=Q, b_w=b_w, b_r=b_r,
        lap_w_norm_sq=lap_w2, grad_w_norm=grad_absw, nabla_w_norm_sq=nw_norm_sq,
        ricci_identity_residual=ricci_res)


def _ricci_identity_residual(metric: _AssemblyMemo, x0: np.ndarray, h: float, order: int,
                             gam0: np.ndarray, R0: np.ndarray, Rc0: np.ndarray) -> float:
    """Commutator of second covariant derivatives of Ricci against the curvature terms."""
    n = metric.n

    def nabla_rc_at(x: np.ndarray) -> np.ndarray:
        gam = metric.gamma(x)
        Rc = metric.decomp(x)[1]
        dRc = np.stack([_d1(lambda y: metric.decomp(y)[1], x, m, h, order) for m in range(n)])
        return dRc - (np.einsum('sma,sb->mab', gam, Rc) + np.einsum('smb,as->mab', gam, Rc))

    T0 = nabla_rc_at(x0)
    dT = np.stack([_d1(nabla_rc_at, x0, m, h, order) for m in range(n)])
    n2 = dT - (np.einsum('sab,scd->abcd', gam0, T0)
               + np.einsum('sac,bsd->abcd', gam0, T0)
               + np.einsum('sad,bcs->abcd', gam0, T0))
    comm = n2 - np.transpose(n2, (1, 0, 2, 3))
    gi0 = np.linalg.inv(metric(x0))
    rhs = (np.einsum('abcs,st,td->abcd', R0, gi0, Rc0)
           + np.einsum('abds,st,tc->abcd', R0, gi0, Rc0))
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
