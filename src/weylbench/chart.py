"""Finite-difference curvature calculus on a coordinate chart.

Christoffel symbols come from central differences of the metric, curvature (as
(N, N) pair matrices) from differences of the Christoffels, and covariant derivatives
of curvature quantities from differences of the pointwise fields with Christoffel
correction.  Everything is expressed at the center point in the
Gram-orthonormalized coordinate frame (lower-triangular Cholesky convention).

Every stencil point of an assembly is an integer offset k from the center,
with coordinates ``GridSpec.point(k) = center + h * k``, and each stage is
tabulated once over its whole offset set in batched passes (``_Lattice``); W is
split from R once on the rows that read it, and again from the frame R at the center.

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

from .algebra import (bochner_curvature_term, circ_prime, curvature_action, decomposition,
                      kn_matrix, pq_pairs, second_bianchi, weyl_parts, weyl_split)
from .basis import (_in_passes, check_integer, check_pair_dimension, pair_basis, pair_divergence,
                    pair_slots, parse_float, parse_integer, read_only_cache)
from .serialization import json_array, json_fields, json_number, json_object, read_json_object
from .tensors import (EPS_ALG, CovDerivCurvature, CurvatureDecomposition, CurvatureTensor,
                      ThreeTwoTensor, TwoFormOneForm, check_finite,
                      check_symmetric, frobenius, within_tol)


@dataclass(frozen=True)
class ChartMetric:
    """Metric evaluator on a coordinate chart with an analytic tag.

    ``fn`` maps one point x of shape (n,) to its (n, n) metric.  The presets and grid
    files (``preset_metric``, ``grid_file_metric``) are a private subclass whose ``fn``
    also maps an (N, n) point stack to (N, n, n); ``table`` evaluates those in one call
    and any other metric one point at a time.  ``table`` checks the shape at every point,
    symmetry and positive definiteness (one Cholesky factorisation of the stack).
    Grid-file metrics carry the grid they were tabulated for in ``default_grid``.
    """

    name: str
    n: int
    fn: Callable[[np.ndarray], np.ndarray]
    harmonic_weyl: bool = False
    default_grid: "GridSpec | None" = None

    def table(self, xs: np.ndarray) -> np.ndarray:
        """The metric at each row x of xs, stacked and checked: one ``fn(xs)`` call for a
        package metric, one ``fn(x)`` call per row otherwise."""
        gs = np.empty((len(xs), self.n, self.n))
        for r, x in [(slice(None), xs)] if isinstance(self, _StackedMetric) else enumerate(xs):
            g = np.asarray(self.fn(x), dtype=float)
            if g.shape != gs[r].shape:
                raise ValueError(f"metric evaluator returned shape {g.shape}")
            gs[r] = g
        bad = ~np.isfinite(gs).all(axis=(1, 2))  # non-finite entries fail first
        gt = np.swapaxes(gs, 1, 2)
        if not (bad.any() or np.array_equal(gs, gt)):  # one exact test, then row by row
            skew = ~within_tol(gs - gt, gs, EPS_ALG, lead=1)  # the check_symmetric rule
            if skew.any():
                raise ValueError(f"metric not symmetric at {xs[skew.argmax()].tolist()}")
        if not (bad.any() or _factors(gs)):  # one Cholesky factorisation of the whole stack
            bad = np.array([not _factors(g) for g in gs])  # only then one per row, to name one
        if bad.any():
            raise ValueError(f"metric not positive definite at {xs[bad.argmax()].tolist()}")
        return gs


def _factors(g: np.ndarray) -> bool:
    """Whether every matrix of g, one (n, n) matrix or a stack, has a Cholesky factor: is
    numerically positive definite (only its lower triangle is read)."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class _StackedMetric(ChartMetric):
    """A preset or grid-file metric: ``fn`` broadcasts over the leading axes of its points,
    so ``table`` tabulates a whole stack in one call (``dataclasses.replace`` keeps the
    class).  Float overflow in ``fn`` is left to ``table``'s finite check."""


@dataclass(frozen=True)
class GridSpec:
    center: np.ndarray
    h: float = 1e-3
    order: int = 2

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        check_finite(h=self.h, center=self.center)
        if self.h <= 0:
            raise ValueError("step must be positive")
        object.__setattr__(self, "order", check_integer(self.order, "order", 2))
        if self.order not in (2, 4):
            raise ValueError("stencil order must be 2 or 4")

    def point(self, k) -> np.ndarray:
        """Coordinates of the stencil point at integer offset k."""
        return self.center + self.h * np.asarray(k, dtype=float)


def _stereo_spheres(*factors: tuple[int, float]) -> Callable[[np.ndarray], np.ndarray]:
    """Product of round spheres, one (dimension, radius) factor each, in stereographic
    coordinates: factor f contributes 4 r^2 / (1 + |u|^2)^2 times its diagonal block."""
    dims = [d for d, _ in factors]
    masks = np.repeat(np.eye(len(dims)), dims, axis=1)  # row f: 1 on factor f's coordinates
    blocks = [(slice(end - d, end), 4.0 * r * r, np.diag(mask))
              for (d, r), end, mask in zip(factors, np.cumsum(dims), masks)]
    @np.errstate(over="ignore", invalid="ignore")
    def fn(x: np.ndarray) -> np.ndarray:
        g = 0.0  # g + c * block leaves the bits of c in that block and zeros elsewhere
        for cut, scale, block in blocks:
            u = np.ascontiguousarray(x[..., cut])
            sq = np.matmul(u[..., None, :], u[..., :, None])  # a BLAS dot per row, as u @ u
            g = g + scale / np.float_power(1.0 + sq, 2) * block
        return g
    return fn


def _perturbed(n: int, amp: float) -> Callable[[np.ndarray], np.ndarray]:
    i, j = np.triu_indices(n)  # the upper-triangle entries, row by row
    f, c, e = i + 1, (i + j) % n, (i == j).astype(float)
    where = np.empty((n, n), dtype=int)  # matrix entry -> its upper-triangle value
    where[i, j] = where[j, i] = np.arange(len(i))
    @np.errstate(over="ignore", invalid="ignore")
    def fn(x: np.ndarray) -> np.ndarray:
        # np.float_power is libm pow, as Python's x ** 3 is; an array ** 3 rounds apart
        v = e + amp * (0.3 * np.sin(f * x[..., j] + j) + 0.2 * x[..., i] * x[..., j]
                       + 0.1 * np.float_power(x[..., c], 3))
        return v[..., where]
    return fn


def preset_metric(name: str) -> ChartMetric:
    """Named chart presets.

    "euclidean:n", "sphere-stereo:n[:r]", "product-spheres:p:q[:r1[:r2]]",
    "perturbed:n[:amp]".  The first three carry the harmonic-Weyl tag (flat, conformally
    flat, locally symmetric); the perturbed family is generic.  Radii default to 1 and
    must be positive and finite, amplitudes finite, p and q >= 1 and n (p + q) >= 4.
    """
    bits = name.strip().split(":")
    kind = bits[0]

    def dims(*fields: int) -> list[int]:  # the dimension fields; n, their sum, within budget
        sizes = [parse_integer(bits[i], f"chart preset {name!r} dimension", 1) for i in fields]
        check_pair_dimension(sum(sizes), f"chart preset {name!r}", 4)
        return sizes

    def radius(i: int) -> float:
        r = parse_float(bits[i], f"chart preset {name!r} radius") if len(bits) > i else 1.0
        if not 0 < r < math.inf:
            raise ValueError("radius must be positive and finite")
        return r

    if kind == "euclidean" and len(bits) == 2:
        n, = dims(1)
        return _StackedMetric(name, n, lambda x: np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n)),
                              harmonic_weyl=True)
    if kind == "sphere-stereo" and len(bits) in (2, 3):
        n, = dims(1)
        return _StackedMetric(name, n, _stereo_spheres((n, radius(2))), harmonic_weyl=True)
    if kind == "product-spheres" and len(bits) in (3, 4, 5):
        p, q = dims(1, 2)
        return _StackedMetric(name, p + q, _stereo_spheres((p, radius(3)), (q, radius(4))),
                              harmonic_weyl=True)
    if kind == "perturbed" and len(bits) in (2, 3):
        n, = dims(1)
        amp = parse_float(bits[2], f"chart preset {name!r} amplitude") if len(bits) > 2 else 0.05
        check_finite(amplitude=amp)
        return _StackedMetric(name, n, _perturbed(n, amp), harmonic_weyl=False)
    raise ValueError(f"bad chart preset {name!r}")


def grid_file_metric(path: str) -> ChartMetric:
    """Metric tabulated at the lattice offsets of one assembly (see ``dump_grid_file``).

    A point x is served only if it is the file grid's point c + h*k of a listed
    offset k, bit for bit.  At load the offsets must be distinct length-n integer
    vectors, one per matrix, the matrices a finite, symmetric (m, n, n) stack and the
    ``harmonic_weyl`` tag, false if absent, a JSON boolean.
    """
    what = f"grid file {path}"
    data = read_json_object(path, what)
    if "points" in data:
        raise ValueError(f"{path} is an old-format grid file (explicit points); "
                         "write it again with dump_grid_file")
    n, spec, offsets, matrices = json_fields(data, ("n", "grid", "offsets", "matrices"), what)
    center, h, order = json_fields(json_object(spec, f"{what} grid"), ("center", "h", "order"),
                                   f"{what} grid")
    n = check_pair_dimension(json_number(n, int, f"{what} n"), what, 4)
    center = json_array(center, float, f"{what} grid.center")
    if center.shape != (n,):
        raise ValueError(f"{what} grid.center has shape {center.shape}, expected ({n},)")
    grid = GridSpec(center=center, h=json_number(h, float, f"{what} grid.h"),
                    order=json_number(order, int, f"{what} grid.order"))
    offsets = json_array(offsets, int, f"{what} offsets")
    if offsets.shape[1:] != (n,):  # [] reads as shape (0,)
        raise ValueError(f"{what} offsets have shape {offsets.shape}, expected (m, {n}), m > 0")
    keys = list(map(tuple, offsets.tolist()))
    rows = dict(zip(keys, range(len(keys))))  # offset -> its row of mats (a repeat's last)
    if len(rows) < len(keys):
        first = next(k for r, k in enumerate(keys) if rows[k] != r)
        raise ValueError(f"{what} repeats the offset {list(first)}")
    mats = json_array(matrices, float, f"{what} matrix")
    if mats.ndim and len(mats) != len(keys):
        raise ValueError(f"{what} has {len(keys)} offsets and {len(mats)} matrices")
    if mats.shape != offsets.shape + (n,):
        raise ValueError(f"{what} matrices have shape {mats.shape}, expected {offsets.shape + (n,)}")
    mats = check_symmetric(mats, f"{what} matrix", lead=1)

    def fn(x: np.ndarray) -> np.ndarray:
        xs = x.reshape(-1, n)
        k = np.rint((xs - grid.center) / grid.h)
        k[(grid.point(k) != xs).any(axis=1)] = np.nan  # not the lattice point bit for bit
        # a float offset finds its integer key: (1.0, -2.0) == (1, -2), with the same hash
        found = [rows.get(key) for key in map(tuple, k.tolist())]
        if None in found:
            raise KeyError(f"grid file has no metric sample at {xs[found.index(None)].tolist()};"
                           f" the file holds the stencil of one assembly at step {grid.h} and"
                           f" order {grid.order} and serves only the assembly it was written"
                           " for (same step, order and center; the Ricci identity only if"
                           " dumped with it)")
        return mats[found].reshape(x.shape + (n,))

    tag = data.get("harmonic_weyl", False)
    if not isinstance(tag, bool):
        raise ValueError(f"{what} harmonic_weyl must be true or false, got {json.dumps(tag)}")
    return _StackedMetric(name=f"grid-file:{path}", n=n, fn=fn, harmonic_weyl=tag,
                          default_grid=grid)


def dump_grid_file(metric: ChartMetric, grid: GridSpec, path: str,
                   with_ricci_identity: bool = False) -> int:
    """Tabulate one field assembly and write its metric table, addressed by offset, as JSON."""
    lattice = _Lattice(metric, grid, with_ricci_identity)
    rows = np.lexsort(lattice.keys.T[::-1])  # offsets in sorted order
    data = {"n": metric.n, "harmonic_weyl": metric.harmonic_weyl,
            "grid": {"center": grid.center.tolist(), "h": grid.h, "order": grid.order},
            "offsets": lattice.keys[rows].tolist(), "matrices": lattice.g[rows].tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return len(rows)


@read_only_cache
def _offsets(n: int, order: int, with_ricci_identity: bool) -> tuple:
    """(steps, keys, near, row counts of w2, decomp and gamma) of every assembly of one
    shape (see ``_Lattice``), numbered once per process."""
    steps = (1, -1) if order == 2 else (2, 1, -1, -2)
    unit, a, b = np.eye(n, dtype=int), pair_basis(n).rows, pair_basis(n).cols
    moves = np.concatenate([s * unit for s in steps])
    numbered: dict[tuple, None] = {}  # every offset so far, in row order
    def star(K): return np.concatenate([K, (K[:, None] + moves).reshape(-1, n)])
    def number(K):  # number the offsets of K not numbered yet; return all offsets so far
        numbered.update(dict.fromkeys(zip(*K.T.tolist())))
        return np.array(list(numbered))
    around = star(np.zeros((1, n), dtype=int))  # the center (row 0) and its neighbours
    w2 = number(np.concatenate([around] + [sa * unit[a] + sb * unit[b]
                                           for sa in (1, -1) for sb in (1, -1)]))
    decomp = number(star(around)) if with_ricci_identity else w2
    gamma = number(star(decomp))
    keys = number(star(gamma))
    row = {k: r for r, k in enumerate(numbered)}
    near = zip(*(gamma[:, None] + moves).reshape(-1, n).T.tolist())
    near = np.array(list(map(row.__getitem__, near))).reshape(len(gamma), -1, n)
    return steps, keys, near, (len(w2), len(decomp), len(gamma))


class _Lattice:
    """The stencil points of one field assembly, each stage tabulated once over its offsets.

    The offsets nest, w2 ⊂ decomp ⊂ gamma ⊂ g (|W|^2_g is differenced at the center,
    R there and, with the Ricci identity, at its neighbours; Gamma where R is, g where
    Gamma is), each set a prefix of the rows: row r is offset ``keys[r]``, and ``near[r,
    j, m]`` the row of ``keys[r]`` moved ``steps[j]`` along axis m.  Tables: ``g``,
    ``gamma`` and ``decomp`` = (R, Rc, S) in coordinates, each stage on all its rows in the
    passes of ``basis._in_passes`` (6 n^3 and 6 n^4 entries a row, its neighbour gathers and
    products: one pass at n = 4, order 2), ``W``, split from R once on the w2 rows (R and W
    as (rows, N, N) pair matrices), and ``w2`` from W in one call.  The tables live for one
    assembly; the offsets depend only on (n, order, ricci identity) and are numbered once
    per shape (``_offsets``), so every assembly of a shape shares them.
    """

    def __init__(self, metric: ChartMetric, grid: GridSpec, with_ricci_identity: bool):
        if metric.n < 4:
            raise ValueError("chart fields require dimension >= 4 (Weyl decomposition)")
        if grid.center.shape != (metric.n,):
            raise ValueError(f"center must have shape ({metric.n},)")
        self.metric, self.grid, self.with_ricci_identity = metric, grid, with_ricci_identity
        self.n = n = metric.n
        self.steps, self.keys, self.near, (w2, decomp, gamma) = _offsets(
            n, grid.order, with_ricci_identity)
        self.g = metric.table(grid.point(self.keys))
        self.gi = np.linalg.inv(self.g[:gamma])  # g^-1 where Gamma, R and |W|^2 are formed
        k = np.arange(self.keys.min(), self.keys.max() + 1)  # after the table: its errors come first
        if not (np.diff(grid.center[:, None] + grid.h * k, axis=1) > 0).all():
            raise ValueError(f"step {grid.h} does not separate the stencil points at the center")
        self.gamma = _in_passes(lambda rows: christoffel(self, rows), gamma, 6 * n ** 3)
        self.decomp = _in_passes(lambda rows: _decomp_coords(self, rows), decomp, 6 * n ** 4)
        self.W = weyl_split(n, *(T[:w2] for T in self.decomp), self.g[:w2]).W
        self.w2 = _w_norm_sq_at(self, slice(w2))  # differences no table: one call

    def grad(self, T: np.ndarray, rows) -> np.ndarray:
        """d_m T at the given rows of table T, axis m after the row axis, by a central difference."""
        def along(s): return T[self.near[rows, self.steps.index(s)]]
        if self.grid.order == 2:
            return (along(1) - along(-1)) / (2.0 * self.grid.h)
        return (-along(2) + 8.0 * along(1) - 8.0 * along(-1) + along(-2)) / (12.0 * self.grid.h)

    def nabla(self, T: np.ndarray, rows) -> np.ndarray:
        """nabla_m T = d_m T - sum over slots of C_m acting on the slot, at rows of a table:
        C_m[a, s] = Gamma^s_ma on a vector slot (length n), and its derivation of 2-forms
        C_m o I (``kn_matrix``) on a pair slot (length N = n(n-1)/2 > n), built only for those."""
        Tr, C = T[rows], np.moveaxis(self.gamma[rows], 1, -1)  # a view: Gamma's sum order
        act = {k: C if k == self.n else kn_matrix(C, np.eye(self.n)) for k in set(Tr.shape[1:])}
        idx = "abcdefgh"[:Tr.ndim - 1]
        return self.grad(T, rows) - sum(np.einsum(f"zm{a}s,z{idx.replace(a, 's')}->zm{idx}",
                                                  act[k], Tr) for a, k in zip(idx, Tr.shape[1:]))


def christoffel(lattice: _Lattice, rows) -> np.ndarray:
    """Gamma^c_ij = (1/2) g^{cl} (d_i g_jl + d_j g_il - d_l g_ij), indexed [row, c, i, j]."""
    gi, dg = lattice.gi[rows], lattice.grad(lattice.g, rows)
    term = dg + np.transpose(dg, (0, 2, 1, 3)) - np.transpose(dg, (0, 2, 3, 1))
    return 0.5 * np.einsum('zkl,zijl->zkij', gi, term)


def curvature_tensor_at(lattice: _Lattice, rows) -> np.ndarray:
    """(0,4) curvature in coordinates as (rows, N, N) pair matrices.  R^s_abk is formed only at
    the pairs a < b (antisymmetric in (a, b) by construction) from d Gamma and two batched
    (rows, N, n, n) matmuls, then projected (antisymmetric in (k, l), symmetric in the pairs)
    to remove the O(h^2) defects of the raw value without touching its first-Bianchi content."""
    a, b = pair_basis(lattice.n).rows, pair_basis(lattice.n).cols  # the pairs a < b
    C = np.moveaxis(lattice.gamma[rows], 1, -1)  # C[z, i, j, s] = Gamma^s_ij
    D = np.moveaxis(lattice.grad(lattice.gamma, rows), 2, -1)  # D[z, i, j, k, s] = d_i Gamma^s_jk
    rup = D[:, a, b] - D[:, b, a] + C[:, b] @ C[:, a] - C[:, a] @ C[:, b]  # [z, ab, k, s]
    R = -(rup @ np.swapaxes(lattice.g[rows], 1, 2)[:, None])  # R_abkl = -R^s_abk g_ls
    R = 0.5 * (R[..., a, b] - R[..., b, a])
    return 0.5 * (R + np.swapaxes(R, 1, 2))


def _decomp_coords(lattice: _Lattice, rows):
    """R, Rc, S in coordinates at the given rows: R as pair matrices, Rc_ij = R_ipjq g^pq
    as the curvature action on g^-1 (W is split from them in ``_Lattice``)."""
    n, R, gi = lattice.n, curvature_tensor_at(lattice, rows), lattice.gi[rows]
    Rc = curvature_action(pair_slots(n, R), gi)
    return R, Rc, np.einsum('zij,zij->z', Rc, gi)


def _w_norm_sq_at(lattice: _Lattice, rows) -> np.ndarray:
    """|W|^2_g = (1/4) W_ijkl W^ijkl at the given rows of ``W``: (1/4) <W, G W G^T> of W's
    pair matrices, G = g^-1 o g^-1 (twice g^-1 on 2-forms, once for each order of a pair)."""
    W, G = lattice.W[rows], kn_matrix(lattice.gi[rows], lattice.gi[rows])
    return 0.25 * frobenius(G @ W @ np.swapaxes(G, -1, -2), W)


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
    return _assemble(_Lattice(metric, grid, with_ricci_identity))


def _assemble(lattice: _Lattice) -> ChartCurvatureField:
    n, h, c = lattice.n, lattice.grid.h, [0]  # row 0 is the center
    # wrap tolerance for validated containers: discretization leaves O(h^2) defects
    wrap_tol = max(1e-8, 200.0 * h * h)
    gi0 = lattice.gi[0]
    F = np.linalg.inv(np.linalg.cholesky(lattice.g[0])).T  # columns: frame vectors; F^T g0 F = Id
    L = 0.5 * kn_matrix(F, F)  # F on 2-forms: L[(ij), (ab)] = F_ia F_jb - F_ib F_ja

    R, Rc, S = lattice.decomp  # in coordinates; R (like W) as pair matrices
    nR, nW, nRc = (lattice.nabla(T, c)[0] for T in (R, lattice.W, Rc))
    def to_frame(T: np.ndarray) -> np.ndarray:  # F on each vector slot, L on each pair slot
        for size in T.shape:
            T = np.tensordot(T, F if size == n else L, axes=([0], [0]))
        return T
    Rf, nRf, nWf, nRcf, vS = map(to_frame, (R[0], nR, nW, nRc, lattice.grad(S, c)[0]))
    R_op = CurvatureTensor(n, Rf, tol=wrap_tol)
    split = weyl_parts(n, Rf)
    dec = decomposition(split, tol=wrap_tol)

    nabla_r, nabla_w = CovDerivCurvature(n, nRf), CovDerivCurvature(n, nWf)
    delta_w = TwoFormOneForm(n, pair_divergence(n, nWf))
    P, Q = (TwoFormOneForm(n, x) for x in pq_pairs(nRcf, vS))
    b_w, b_r = second_bianchi(nabla_w), second_bianchi(nabla_r)

    a, b = pair_basis(n).rows, pair_basis(n).cols
    w2, near, j = lattice.w2, lattice.near, lattice.steps.index
    d2f = np.diag((w2[near[0, j(1)]] - 2.0 * w2[0] + w2[near[0, j(-1)]]) / (h * h))
    def w2_ab(sa, sb): return w2[near[near[0, j(sa), a], j(sb), b]]  # at sa e_a + sb e_b
    d2f[a, b] = d2f[b, a] = (w2_ab(1, 1) - w2_ab(1, -1) - w2_ab(-1, 1)
                             + w2_ab(-1, -1)) / (4.0 * h * h)
    lap_w2 = float(np.einsum('ab,ab->', gi0, d2f)
                   - np.einsum('ab,sab,s->', gi0, lattice.gamma[0], lattice.grad(w2, c)[0]))

    grad_absw = to_frame(lattice.grad(np.sqrt(np.maximum(w2, 0.0)), c)[0])
    ricci_res = (float(_ricci_identity_residual(lattice, c)[0])
                 if lattice.with_ricci_identity else None)

    return ChartCurvatureField(
        metric=lattice.metric, grid=lattice.grid, frame=F, R=R_op, Rc=split.Rc,
        S=dec.S, decomposition=dec, nabla_r=nabla_r, nabla_w=nabla_w, nabla_rc=nRcf, grad_s=vS,
        delta_w=delta_w, P=P, Q=Q, b_w=b_w, b_r=b_r,
        lap_w_norm_sq=lap_w2, grad_w_norm=grad_absw, ricci_identity_residual=ricci_res,
        nabla_w_norm_sq=float(frobenius(nWf.reshape(-1), nWf.reshape(-1))))


def _ricci_identity_residual(lattice: _Lattice, rows) -> np.ndarray:
    """max |commutator of second covariant derivatives of Ricci - curvature terms| per row;
    nabla Rc is taken on the rows up to the last neighbour of the given ones (a prefix)."""
    R, Rc = lattice.decomp[:2]
    n2 = lattice.nabla(lattice.nabla(Rc, slice(lattice.near[rows].max() + 1)), rows)
    n, Rc, gi = lattice.n, Rc[rows], lattice.gi[rows]
    R = pair_slots(n, R[rows]).reshape((-1,) + (n,) * 4)  # R[z, a, c, b, d] = R_abcd
    rhs = (np.einsum('zacbs,zst,ztd->zabcd', R, gi, Rc)
           + np.einsum('zadbs,zst,ztc->zabcd', R, gi, Rc))
    return np.abs(n2 - np.transpose(n2, (0, 2, 1, 3, 4)) - rhs).reshape(len(R), -1).max(axis=1)


def weyl_derivative_pack(f: ChartCurvatureField) -> dict:
    """First-derivative tensors of the field: divergence, P/Q, second-Bianchi maps."""
    return {"delta_w": f.delta_w, "P": f.P, "Q": f.Q, "B_W": f.b_w, "B_R": f.b_r}


def identity_residual_report(f: ChartCurvatureField) -> dict[str, float]:
    """Named residuals of the differential identities at the chart center; the improved
    Kato margin and the Bochner balance, identities only where the Weyl part is
    divergence-free, are reported exactly for harmonic-Weyl presets."""
    n = f.metric.n
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
    grad2 = float(frobenius(f.grad_w_norm, f.grad_w_norm))
    out["kato_classical_margin"] = f.nabla_w_norm_sq - grad2
    out["grad_abs_w_sq"] = grad2
    out["nabla_w_sq"] = f.nabla_w_norm_sq
    if f.metric.harmonic_weyl:
        out["kato_improved_margin"] = f.nabla_w_norm_sq - (n + 1) / (n - 1) * grad2
        r1 = bochner_curvature_term(n, f.Rc, f.decomposition.weyl.mat)
        out["bochner"] = f.lap_w_norm_sq - 2.0 * f.nabla_w_norm_sq + 2.0 * float(r1)
    if f.ricci_identity_residual is not None:
        out["ricci_identity"] = f.ricci_identity_residual
    return out
