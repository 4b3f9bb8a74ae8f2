"""Finite-difference chart calculus: convergence and differential identities."""

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

from weylbench.algebra import decompose, weyl_split
from weylbench.basis import four_tensor_to_pair_matrix, pair_matrix_to_four_tensor
from weylbench.chart import (
    ChartMetric,
    GridSpec,
    _assemble,
    _decomp_coords,
    _Lattice,
    _offsets,
    _StackedMetric,
    _w_norm_sq_at,
    christoffel,
    curvature_field,
    dump_grid_file,
    grid_file_metric,
    identity_residual_report,
    preset_metric,
    weyl_derivative_pack,
)
from weylbench.models import model_curvature, parse_model_spec
from weylbench.tensors import inner

from reference import four_index_decomposition, four_index_field

CENTER4 = np.array([0.12, -0.07, 0.18, 0.05])


def test_euclidean_field_is_flat():
    m = preset_metric("euclidean:4")
    f = curvature_field(m, GridSpec(center=np.zeros(4), h=1e-3))
    assert abs(f.S) < 1e-12
    assert np.abs(f.R.mat).max() < 1e-12
    for value in identity_residual_report(f).values():
        assert abs(value) < 1e-12


def test_sphere_positive_sectional_and_scalar():
    # unit sphere: sectional curvature +1 in the orthonormal frame
    m = preset_metric("sphere-stereo:4")
    f = curvature_field(m, GridSpec(center=CENTER4, h=1e-3))
    assert f.R.component(0, 1, 0, 1) == pytest.approx(1.0, abs=1e-4)
    assert f.S == pytest.approx(12.0, abs=1e-4)


def test_sphere_scalar_convergence_order():
    m = preset_metric("sphere-stereo:4")
    errs = []
    for h in (2e-3, 1e-3):
        f = curvature_field(m, GridSpec(center=CENTER4, h=h))
        errs.append(abs(f.S - 12.0))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_sphere_weyl_vanishes():
    m = preset_metric("sphere-stereo:4")
    f = curvature_field(m, GridSpec(center=CENTER4, h=1e-3))
    assert float(np.abs(f.decomposition.weyl.mat).max()) < 1e-12


def test_sphere_radius_changes_scalar():
    m = preset_metric("sphere-stereo:4:2.0")
    f = curvature_field(m, GridSpec(center=CENTER4, h=1e-3))
    assert f.S == pytest.approx(3.0, abs=1e-4)


def test_order4_stencil_is_more_accurate():
    m = preset_metric("sphere-stereo:4")
    f2 = curvature_field(m, GridSpec(center=CENTER4, h=2e-3, order=2))
    f4 = curvature_field(m, GridSpec(center=CENTER4, h=2e-3, order=4))
    assert abs(f4.S - 12.0) < abs(f2.S - 12.0) / 50.0


def test_product_chart_matches_model_spectrum():
    m = preset_metric("product-spheres:2:2:1.0:1.0")
    center = np.array([0.07, -0.12, 0.1, 0.06])
    errs = []
    model_dec = decompose(model_curvature(parse_model_spec(
        "product:sphere:2:1.0,sphere:2:1.0")).R)
    expect = np.sort(np.linalg.eigvalsh(model_dec.weyl.mat))
    for h in (2e-3, 1e-3):
        f = curvature_field(m, GridSpec(center=center, h=h))
        eigs = np.sort(np.linalg.eigvalsh(f.decomposition.weyl.mat))
        errs.append(float(np.abs(eigs - expect).max()))
    assert errs[1] < 1e-5
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_halving_ratios_on_derivative_residuals():
    cases = {
        "product-spheres:2:2:1.0:1.0": (np.array([0.07, -0.12, 0.1, 0.06]),
                                        ("bianchi_map_w", "delta_w_pq")),
        "perturbed:4": (CENTER4, ("second_bianchi_r", "bianchi_map_w", "delta_w_pq")),
    }
    for name, (center, keys) in cases.items():
        m = preset_metric(name)
        r = {}
        for h in (2e-3, 1e-3):
            f = curvature_field(m, GridSpec(center=center, h=h))
            r[h] = identity_residual_report(f)
        for key in keys:
            ratio = r[2e-3][key] / r[1e-3][key]
            assert 3.5 <= ratio <= 4.5, (name, key, ratio)


def test_sphere_second_bianchi_residual_halving():
    m = preset_metric("sphere-stereo:4")
    vals = []
    for h in (2e-3, 1e-3):
        f = curvature_field(m, GridSpec(center=CENTER4, h=h))
        vals.append(f.b_r.norm())
    assert 3.5 <= vals[0] / vals[1] <= 4.5


def test_bianchi_norm_identity_on_chart():
    m = preset_metric("perturbed:5")
    center = np.array([0.1, -0.05, 0.08, 0.12, -0.03])
    f = curvature_field(m, GridSpec(center=center, h=1e-3))
    r = identity_residual_report(f)
    n = 5
    bw2 = f.b_w.norm() ** 2
    assert r["bianchi_norm_identity"] <= 1e-8 * max(1.0, bw2)
    assert r["bianchi_grad_margin"] >= 0.0


def test_kato_classical_on_generic_chart():
    m = preset_metric("perturbed:4")
    f = curvature_field(m, GridSpec(center=CENTER4, h=1e-3))
    r = identity_residual_report(f)
    assert r["kato_classical_margin"] > 0.0


def test_kato_improved_on_harmonic_presets():
    for name, center in (("sphere-stereo:4", CENTER4),
                         ("product-spheres:2:2:1.0:1.0", np.array([0.07, -0.12, 0.1, 0.06]))):
        f = curvature_field(preset_metric(name), GridSpec(center=center, h=1e-3))
        r = identity_residual_report(f)
        # parallel Weyl: both sides of the improved inequality vanish to the floor
        assert r["nabla_w_sq"] <= 1e-10
        assert r["grad_abs_w_sq"] <= 1e-10
        assert r["kato_improved_margin"] >= -1e-10


def test_bochner_residual_on_harmonic_presets():
    center = np.array([0.07, -0.12, 0.1, 0.06])
    for name in ("sphere-stereo:4", "product-spheres:2:2:1.0:1.0"):
        grid = GridSpec(center=center, h=1e-3)
        f = curvature_field(preset_metric(name), grid)
        r = identity_residual_report(f)
        # truncation + the eps/h^4 rounding floor of the scalar Laplacian
        envelope = 100.0 * (grid.h ** 2 + 1e-16 / grid.h ** 4) * max(1.0, abs(f.S)) ** 2
        assert abs(r["bochner"]) <= envelope


def test_bochner_refused_without_tag():
    m = preset_metric("perturbed:4")
    f = curvature_field(m, GridSpec(center=CENTER4, h=1e-3))
    assert "bochner" not in identity_residual_report(f)


def test_ricci_identity_residual_on_charts():
    m = preset_metric("sphere-stereo:4")
    f = curvature_field(m, GridSpec(center=CENTER4, h=1e-3), with_ricci_identity=True)
    assert f.ricci_identity_residual < 1e-6
    m = preset_metric("perturbed:4")
    vals = []
    for h in (2e-3, 1e-3):
        f = curvature_field(m, GridSpec(center=CENTER4, h=h), with_ricci_identity=True)
        vals.append(f.ricci_identity_residual)
    assert 3.0 <= vals[0] / vals[1] <= 5.0


def test_weyl_derivative_pack_keys():
    f = curvature_field(preset_metric("perturbed:4"), GridSpec(center=CENTER4, h=1e-3))
    pack = weyl_derivative_pack(f)
    assert set(pack) == {"delta_w", "P", "Q", "B_W", "B_R"}
    n = 4
    pq = pack["P"].comps + pack["Q"].comps / (2 * (n - 1))
    resid = np.abs(pack["delta_w"].comps + (n - 3) / (n - 2) * pq).max()
    assert resid < 1e-7


def test_chart_derived_weyl_passes_algebraic_checks():
    f = curvature_field(preset_metric("perturbed:4"), GridSpec(center=CENTER4, h=1e-3))
    W = f.decomposition.weyl
    from weylbench.algebra import ricci_contraction, sharp_product, dot_product
    assert np.abs(ricci_contraction(W)).max() < 1e-10
    quad = dot_product(W, W).mat + sharp_product(W, W).mat
    from weylbench.tensors import Operator2Form
    assert np.abs(ricci_contraction(
        Operator2Form(4, quad, require_self_adjoint=False))).max() < 1e-10


def test_positive_definiteness_enforced():
    bad = preset_metric("perturbed:4:10.0")  # huge amplitude goes indefinite
    with pytest.raises(ValueError):
        curvature_field(bad, GridSpec(center=2.0 * np.ones(4), h=1e-3))


def _indefinite_beyond(x0):
    """The identity metric, with its last eigenvalue -1 where x[0] > x0."""
    def fn(x):
        g = np.eye(4)
        g[3, 3] = -1.0 if x[0] > x0 else 1.0
        return g
    return fn


def test_one_indefinite_point_among_many_is_named():
    points = CENTER4 + 1e-3 * np.arange(-3, 4)[:, None] * np.eye(4)[0]
    m = ChartMetric("one-bad", 4, _indefinite_beyond(CENTER4[0] + 2.5e-3))
    with pytest.raises(ValueError, match=re.escape(f"positive definite at {points[-1].tolist()}")):
        m.table(points)
    with pytest.raises(ValueError, match=re.escape(f"positive definite at {points[-1].tolist()}")):
        m.table(points[-1:])
    assert np.array_equal(m.table(points[:-1]), np.stack([m.table(x[None])[0]
                                                          for x in points[:-1]]))


def test_assembly_names_its_one_indefinite_stencil_point():
    # at order 2 without the Ricci identity, offset (3, 0, 0, 0) is the only stencil
    # point more than 2.5 steps from the center along the first axis
    grid = GridSpec(center=CENTER4, h=1e-3)
    m = ChartMetric("one-bad", 4, _indefinite_beyond(CENTER4[0] + 2.5e-3))
    bad = grid.point((3, 0, 0, 0)).tolist()
    with pytest.raises(ValueError, match=re.escape(f"positive definite at {bad}")):
        curvature_field(m, grid)


#: boundary metrics of the Cholesky decision: positive definite with an eigenvalue near
#: underflow, exactly singular and diagonal, and A^T A of rank 3 (its last Cholesky pivot is
#: 1 - 1 = 0 in exact arithmetic, while its least eigvalsh eigenvalue reads about +5e-17)
_TINY = np.diag([1.0, 1.0, 1.0, 1e-300])
_SINGULAR = np.diag([1.0, 1.0, 0.0, 1.0])
_A3 = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
_NAN = np.eye(4)
_NAN[1, 2] = _NAN[2, 1] = np.nan


def _listed(mats, stacked: bool) -> ChartMetric:
    """mats[r] at the point r e_0: a package evaluator or a per-point one."""
    mats = np.array(mats)
    if stacked:
        return _StackedMetric("listed", 4, lambda x: mats[x[..., 0].astype(int)])
    return ChartMetric("listed", 4, lambda x: mats[int(x[0])])


def _row_points(count: int) -> np.ndarray:
    return np.arange(count)[:, None] * np.eye(4)[0]


@pytest.mark.parametrize("stacked", [True, False], ids=["package", "per-point"])
def test_tiny_positive_eigenvalue_is_accepted(stacked):
    table = _listed([np.eye(4), _TINY], stacked).table(_row_points(2))
    assert np.array_equal(table, np.stack([np.eye(4), _TINY]))


@pytest.mark.parametrize("stacked", [True, False], ids=["package", "per-point"])
@pytest.mark.parametrize("bad", [_SINGULAR, _A3.T @ _A3], ids=["singular-diagonal", "rank-3"])
@pytest.mark.parametrize("row", [0, 2, 4])
def test_first_singular_row_is_named(stacked, bad, row):
    mats = [np.eye(4)] * 6
    mats[row] = mats[5] = bad  # a later bad row is not the one named
    points = _row_points(len(mats))
    with pytest.raises(ValueError, match=re.escape(f"not positive definite at {points[row].tolist()}")):
        _listed(mats, stacked).table(points)


@pytest.mark.parametrize("stacked", [True, False], ids=["package", "per-point"])
def test_non_finite_row_is_named_before_a_singular_one(stacked):
    points = _row_points(3)
    with pytest.raises(ValueError, match=re.escape(f"not positive definite at {points[2].tolist()}")):
        _listed([np.eye(4), _SINGULAR, _NAN], stacked).table(points)


@pytest.mark.parametrize("value", [np.eye(3), np.ones(4), 1.0], ids=["3x3", "vector", "scalar"])
def test_wrong_shape_metric_is_refused(value):
    m = ChartMetric("bad-shape", 4, lambda x: value)
    with pytest.raises(ValueError, match="metric evaluator returned shape"):
        m.table(np.zeros((1, 4)))
    with pytest.raises(ValueError, match="metric evaluator returned shape"):
        curvature_field(m, GridSpec(center=CENTER4, h=1e-3))


def _perturbed_loop(n, amp):
    """The perturbed preset's evaluator as first written: one += per matrix entry."""
    def fn(x):
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


def _sphere_loop(n, radius):
    """The sphere-stereo evaluator with its set-up in every call, as it was first written."""
    def fn(x: np.ndarray) -> np.ndarray:
        conf = 4.0 * radius * radius / (1.0 + float(x @ x)) ** 2
        return conf * np.eye(n)
    return fn


def _product_loop(p, q, r1, r2):
    """The product-spheres evaluator as first written: two sphere blocks written into zeros."""
    gp, gq = _sphere_loop(p, r1), _sphere_loop(q, r2)
    def fn(x: np.ndarray) -> np.ndarray:
        out = np.zeros((p + q, p + q))
        out[:p, :p] = gp(x[:p])
        out[p:, p:] = gq(x[p:])
        return out
    return fn


def _evaluator_points(n):
    """500 chart points: zero, negative zero, signed zeros mixed with other coordinates,
    random points of every size up to |x| = 1e3, and points t e_0 and t e_(n-1) where
    Python's (1 + t*t) ** 2 (libm pow) and a multiply round apart."""
    rng = np.random.default_rng(n)
    points = rng.uniform(-1.0, 1.0, size=(500, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(500, 1))
    points[0], points[1], points[2] = 0.0, -0.0, 0.1 * (1.0 + np.arange(n)) / n
    points[3, ::2], points[4, 1::2] = -0.0, 0.0
    points[5] = 1e3 * np.sign(points[5])
    apart = [t for t in rng.uniform(-1.0, 1.0, size=50_000).tolist()
             if (1.0 + t * t) ** 2 != (1.0 + t * t) * (1.0 + t * t)][:10]
    assert len(apart) == 10
    points[-20:] = 0.0
    points[-20:-10, 0], points[-10:, -1] = apart, apart
    return points


@pytest.mark.parametrize("name, n, amp", [("perturbed:4", 4, 0.05), ("perturbed:5:0.3", 5, 0.3),
                                          ("perturbed:7", 7, 0.05)])
def test_perturbed_evaluator_matches_the_entrywise_loop(name, n, amp):
    _assert_matches_loop(preset_metric(name).fn, _perturbed_loop(n, amp), n)


def _assert_matches_loop(fast, loop, n):
    """fast equals loop bit for bit at each of the 500 points, on their whole stack and
    on the stack with two leading axes."""
    points = _evaluator_points(n)
    expected = np.stack([loop(x) for x in points])
    for x, g in zip(points, expected):
        assert fast(x).tobytes() == g.tobytes()
    assert fast(points).tobytes() == expected.tobytes()
    assert fast(points.reshape(20, 25, n)).tobytes() == expected.tobytes()


CONFORMAL_LOOPS = {
    "sphere-stereo:4": _sphere_loop(4, 1.0),
    "sphere-stereo:6:2.5": _sphere_loop(6, 2.5),
    "product-spheres:2:2:1.0:1.0": _product_loop(2, 2, 1.0, 1.0),
    "product-spheres:2:3:0.7:1.3": _product_loop(2, 3, 0.7, 1.3),
    "product-spheres:3:2": _product_loop(3, 2, 1.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(CONFORMAL_LOOPS))
def test_conformal_evaluators_match_their_reference_loops(name):
    m = preset_metric(name)
    _assert_matches_loop(m.fn, CONFORMAL_LOOPS[name], m.n)


@pytest.mark.parametrize("name", ["sphere-stereo:4", "product-spheres:2:2:1.0:1.0",
                                  "product-spheres:2:3", "perturbed:4", "perturbed:5"])
@pytest.mark.parametrize("axis", [0, -1])
def test_nan_point_is_refused_by_every_preset(name, axis):
    m = preset_metric(name)
    x = np.zeros(m.n)
    x[axis] = np.nan
    with pytest.raises(ValueError, match=re.escape(f"not positive definite at {x.tolist()}")):
        m.table(np.stack([np.zeros(m.n), x]))
    with pytest.raises(ValueError, match="not positive definite"):
        m.table(x[None])


@pytest.mark.parametrize("offset", [lambda x: 0.3, lambda x: 1e-7 * (1.0 + x.sum())],
                         ids=["constant", "tiny"])
def test_non_symmetric_metric_is_refused_by_name(offset):
    """An evaluator whose upper triangle carries an offset the lower one lacks is refused
    at the first such point, where the Cholesky test (lower triangle only) would let it
    through; an asymmetry within check_symmetric's rule is accepted."""
    def fn(x):
        return np.eye(4) + np.triu(np.full((4, 4), offset(x)))
    grid = GridSpec(center=CENTER4, h=1e-3)
    with pytest.raises(ValueError, match=re.escape(f"metric not symmetric at {CENTER4.tolist()}")):
        curvature_field(ChartMetric("skew", 4, fn), grid)
    xs = np.stack([np.zeros(4), CENTER4])
    with pytest.raises(ValueError, match=re.escape(f"metric not symmetric at {CENTER4.tolist()}")):
        ChartMetric("skew", 4, lambda x: fn(x) if x.any() else np.eye(4)).table(xs)
    near = ChartMetric("near", 4, lambda x: np.eye(4) + np.triu(np.full((4, 4), 1e-12), 1))
    assert near.table(xs)[0, 0, 1] == 1e-12


@pytest.mark.parametrize("name", ["euclidean:5", "sphere-stereo:5", "product-spheres:2:3",
                                  "perturbed:5", "grid-file"])
def test_per_point_table_equals_the_stacked_table(tmp_path, name):
    """A plain ChartMetric around a package evaluator (as a wrapper that counts points
    builds it) calls it once per point and gets the bits of the one stacked call, at the
    4,881 points of a perturbed:5 order-4 assembly with the Ricci identity."""
    grid = GridSpec(center=0.1 * (1.0 + np.arange(5)) / 5, h=1e-3, order=4)
    xs = grid.point(_offsets(5, 4, True)[1])
    if name == "grid-file":
        path = str(tmp_path / "g.json")
        assert dump_grid_file(preset_metric("perturbed:5"), grid, path,
                              with_ricci_identity=True) == len(xs)
        m = grid_file_metric(path)
    else:
        m = preset_metric(name)
    plain = ChartMetric(m.name, m.n, m.fn)
    assert type(m) is not ChartMetric and type(plain) is ChartMetric
    assert plain.table(xs).tobytes() == m.table(xs).tobytes()


@pytest.mark.parametrize("name", ["euclidean:4", "sphere-stereo:4", "product-spheres:2:2",
                                  "perturbed:4", "grid-file"])
def test_package_table_calls_its_evaluator_once(tmp_path, name):
    grid = GridSpec(center=CENTER4, h=1e-3)
    if name == "grid-file":
        dump_grid_file(preset_metric("perturbed:4"), grid, str(tmp_path / "g.json"))
        m = grid_file_metric(str(tmp_path / "g.json"))
    else:
        m = preset_metric(name)
    calls = []

    def fn(xs):
        calls.append(xs.shape)
        return m.fn(xs)

    counted = dataclasses.replace(m, fn=fn)
    assert type(counted) is type(m)
    f = curvature_field(counted, grid)
    assert calls == [(313, 4)]
    assert _field_bits(f) == _field_bits(curvature_field(m, grid))


@pytest.mark.parametrize("rows", [1, 3])
def test_stacked_evaluator_of_one_point_shape_is_refused(rows):
    m = dataclasses.replace(preset_metric("euclidean:4"), fn=lambda xs: np.eye(4))
    with pytest.raises(ValueError, match=re.escape("metric evaluator returned shape (4, 4)")):
        m.table(np.zeros((rows, 4)))


# (g, Gamma, decomposition, |W|^2_g) rows of one assembly, equal to the calls of
# ChartMetric.fn, christoffel, _decomp_coords and _w_norm_sq_at when each was
# evaluated once per stencil point; the W table has the |W|^2_g rows
@pytest.mark.parametrize("name, order, ricci, sizes", [
    ("perturbed:4", 2, False, (313, 121, 33, 33)),
    ("perturbed:5", 2, False, (671, 221, 51, 51)),
    ("perturbed:4", 4, False, (1225, 305, 41, 41)),
    ("perturbed:5", 2, True, (681, 231, 61, 51)),
    ("perturbed:5", 4, True, (4881, 1181, 201, 61)),
    ("perturbed:6", 4, True, (10497, 2073, 289, 85)),
])
def test_stage_sizes(name, order, ricci, sizes):
    n = int(name.split(":")[1])
    grid = GridSpec(center=0.1 * (1.0 + np.arange(n)) / n, h=1e-3, order=order)
    lattice = _Lattice(preset_metric(name), grid, ricci)
    assert (len(lattice.g), len(lattice.gamma), len(lattice.decomp[1]), len(lattice.w2)) == sizes
    # every decomposition output on all its rows; W split only on the rows that read it
    assert [len(t) for t in lattice.decomp] == [sizes[2]] * 3 and len(lattice.W) == sizes[3]
    assert len(lattice.keys) == len({tuple(k) for k in lattice.keys.tolist()}) == sizes[0]
    # the numbering kept for the shape is the one a fresh walk gives
    cached, fresh = _offsets(n, order, ricci), _offsets.__wrapped__(n, order, ricci)
    assert lattice.keys is cached[1] and lattice.near is cached[2]
    assert cached[0] == fresh[0] and cached[3] == fresh[3]
    for kept, walked in zip(cached[1:3], fresh[1:3]):
        assert kept.dtype == walked.dtype and kept.tobytes() == walked.tobytes()


def test_assemblies_of_one_shape_share_read_only_offsets():
    one = _Lattice(preset_metric("perturbed:4"), GridSpec(center=CENTER4, h=1e-3), False)
    two = _Lattice(preset_metric("sphere-stereo:4"), GridSpec(center=-CENTER4, h=2e-3), False)
    assert one.keys is two.keys and one.near is two.near
    assert not np.array_equal(one.g, two.g)
    for shape in ((5, 2, False), (4, 4, False), (4, 2, True)):
        other = _offsets(*shape)
        assert other[1] is not one.keys and other[2] is not one.near
    for table in (one.keys, one.near):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            table += 0


@pytest.mark.parametrize("name, order", [("perturbed:4", 2), ("perturbed:5", 4),
                                         ("product-spheres:2:3", 2)])
def test_stage_rows_do_not_depend_on_the_batch(name, order):
    """Each stage over all its rows in one pass, in the lattice's passes and one row at a
    time gives the same bits (the Ricci identity's rows included), and so does the W
    table's one split of all its rows."""
    m = preset_metric(name)
    grid = GridSpec(center=0.1 * (1.0 + np.arange(m.n)) / m.n, h=1e-3, order=order)
    lattice = _Lattice(m, grid, with_ricci_identity=True)
    assert np.array_equal(lattice.g, np.stack([lattice.metric.table(x[None])[0]
                                               for x in grid.point(lattice.keys)]))
    stages = [(christoffel, len(lattice.gamma), (lattice.gamma,)),
              (_decomp_coords, len(lattice.decomp[1]), lattice.decomp),
              (_w_norm_sq_at, len(lattice.w2), (lattice.w2,))]
    for stage, count, tables in stages:
        whole = stage(lattice, slice(count))
        whole = whole if isinstance(whole, tuple) else (whole,)
        for table, part in zip(tables, whole):
            assert table.tobytes() == part[:len(table)].tobytes(), stage.__name__
        for r in range(count):
            one = stage(lattice, [r])
            one = one if isinstance(one, tuple) else (one,)
            for part, row in zip(whole, one):
                assert part[r].tobytes() == row[0].tobytes(), (stage.__name__, r)
    R, Rc, S = lattice.decomp
    for r in range(len(lattice.W)):
        one = weyl_split(lattice.n, R[[r]], Rc[[r]], S[[r]], lattice.g[[r]]).W
        assert lattice.W[r].tobytes() == one[0].tobytes(), r


def test_w_norm_sq_is_one_call_per_assembly(monkeypatch):
    """|W|^2_g differences no table, so it runs once over all its rows (85 at perturbed:6,
    order 4, with the Ricci identity), not in passes of the differencing stages."""
    calls = []

    def counted(lattice, rows):
        calls.append(rows)
        return _w_norm_sq_at(lattice, rows)

    monkeypatch.setattr("weylbench.chart._w_norm_sq_at", counted)
    grid = GridSpec(center=0.1 * (1.0 + np.arange(6)) / 6, h=1e-3, order=4)
    lattice = _Lattice(preset_metric("perturbed:6"), grid, with_ricci_identity=True)
    assert calls == [slice(85)] and len(lattice.w2) == 85


@pytest.mark.parametrize("name, order", [("perturbed:4", 2), ("perturbed:5", 4)])
def test_shared_inverse_table_does_not_depend_on_the_batch(name, order):
    """The one g^-1 table of an assembly, over the Christoffel rows, holds the bits of
    inverting a slice of them, a single row included."""
    n = int(name.split(":")[1])
    grid = GridSpec(center=0.1 * (1.0 + np.arange(n)) / n, h=1e-3, order=order)
    lattice = _Lattice(preset_metric(name), grid, with_ricci_identity=True)
    g = lattice.g[:len(lattice.gamma)]
    assert lattice.gi.shape == g.shape
    for rows in [slice(1), slice(3, 17), slice(None, None, 7), slice(len(g) - 1, None)]:
        assert lattice.gi[rows].tobytes() == np.linalg.inv(g[rows]).tobytes(), rows


def test_grid_file_round_trip(tmp_path):
    m = preset_metric("sphere-stereo:4")
    grid = GridSpec(center=CENTER4, h=2e-3)
    path = str(tmp_path / "sphere_grid.json")
    count = dump_grid_file(m, grid, path)
    assert count > 100
    gm = grid_file_metric(path)
    assert gm.harmonic_weyl
    # the file carries the grid it was tabulated for
    assert gm.default_grid is not None
    assert np.allclose(gm.default_grid.center, CENTER4)
    assert gm.default_grid.h == 2e-3
    # the file holds the assembly's own metric table: every output keeps its bits
    f_direct = curvature_field(m, grid)
    f_file = curvature_field(gm, grid)
    assert _field_bits(f_file) == _field_bits(f_direct)
    assert ({k: float(v).hex() for k, v in identity_residual_report(f_file).items()}
            == {k: float(v).hex() for k, v in identity_residual_report(f_direct).items()})


def test_grid_file_round_trip_with_ricci_identity(tmp_path):
    m = preset_metric("perturbed:4")
    grid = GridSpec(center=CENTER4, h=1e-3, order=4)
    path = str(tmp_path / "perturbed_grid.json")
    count = dump_grid_file(m, grid, path, with_ricci_identity=True)
    f_file = curvature_field(grid_file_metric(path), grid, with_ricci_identity=True)
    f_direct = curvature_field(m, grid, with_ricci_identity=True)
    assert _field_bits(f_file) == _field_bits(f_direct)
    assert f_file.ricci_identity_residual == f_direct.ricci_identity_residual
    # the file lists exactly the points the assembly evaluates
    counted, seen = _counting("perturbed:4")
    curvature_field(counted, grid, with_ricci_identity=True)
    assert count == len(seen)


def test_grid_file_missing_point(tmp_path):
    m = preset_metric("euclidean:4")
    path = str(tmp_path / "euclid_grid.json")
    dump_grid_file(m, GridSpec(center=np.zeros(4), h=1e-3), path)
    gm = grid_file_metric(path)
    with pytest.raises(KeyError):
        curvature_field(gm, GridSpec(center=np.full(4, 0.5), h=1e-3))
    # the first missing row of a stack is named; a row off the file's lattice is missing
    held, off, far = np.zeros(4), np.full(4, 0.5e-3), np.full(4, 0.5)
    for xs, missing in [((held, far, off), far), ((held, off, far), off)]:
        with pytest.raises(KeyError, match=re.escape(f"no metric sample at {missing.tolist()};")):
            gm.table(np.stack(xs))
    assert np.array_equal(gm.table(np.stack([held, held])), np.stack([np.eye(4)] * 2))


def _first_offset(value):
    return lambda data: dict(data, offsets=[value] + data["offsets"][1:])


@pytest.mark.parametrize("edit, message", [
    (lambda data: dict(data, offsets=[[0] * 4] * 2 + data["offsets"][2:]),
     "repeats the offset [0, 0, 0, 0]"),
    (_first_offset([0.0] * 4), "offsets entries must be integers, got 0.0"),
    (_first_offset([True, 0, 0, 0]), "offsets entries must be integers, got true"),
    (_first_offset([2 ** 63, 0, 0, 0]), "offsets entries must lie within the int64 range"),
    (_first_offset([0, 0, 0]), "offsets entries are ragged"),
    (lambda data: dict(data, offsets=[k[:3] for k in data["offsets"]]),
     "offsets have shape (313, 3), expected (m, 4), m > 0"),
    (lambda data: dict(data, offsets=[], matrices=[]), "offsets have shape (0,)"),
    (lambda data: dict(data, matrices=[]), "has 313 offsets and 0 matrices"),
    (lambda data: dict(data, matrices=[np.eye(3).tolist()] * 313),
     "matrices have shape (313, 3, 3), expected (313, 4, 4)"),
    (lambda data: dict(data, matrices=[np.eye(3).tolist()] + data["matrices"][1:]),
     "matrix entries are ragged"),
    (lambda data: dict(data, matrices=[np.full((4, 4), math.nan).tolist()] + data["matrices"][1:]),
     "matrix must be finite"),
    (lambda data: dict(data, matrices=[np.triu(np.ones((4, 4))).tolist()] + data["matrices"][1:]),
     "matrix must be symmetric within tolerance 1e-10"),
], ids=["repeated-offset", "float-offset", "bool-offset", "int64-overflow-offset",
        "short-offset", "short-offsets", "empty", "no-matrices", "small-matrices",
        "one-small-matrix", "nan-matrix", "asymmetric-matrix"])
def test_bad_grid_file_is_refused_at_load_by_name(tmp_path, edit, message):
    """Each defect of a grid file is refused when the file is read, before any assembly
    asks it for a point, by one ValueError that names the file."""
    path = str(tmp_path / "g.json")
    dump_grid_file(preset_metric("euclidean:4"), GridSpec(center=CENTER4, h=1e-3), path)
    with open(path, encoding="utf-8") as fh:
        data = edit(json.load(fh))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    with pytest.raises(ValueError) as info:
        grid_file_metric(path)
    assert str(info.value).startswith(f"grid file {path} ") and message in str(info.value)


def test_nan_metric_is_not_positive_definite():
    bad = np.eye(4)
    bad[1, 2] = bad[2, 1] = np.nan  # refused by the finite check, before any factorisation
    m = ChartMetric("nan", 4, lambda x: bad)
    with pytest.raises(ValueError, match="positive definite"):
        m.table(np.zeros((1, 4)))


@pytest.mark.parametrize("name", ["euclidean:4:7", "sphere-stereo:4:-1", "sphere-stereo:4:0",
                                  "sphere-stereo:4:nan", "sphere-stereo:4:inf",
                                  "sphere-stereo:4:1:2", "product-spheres:2:2:1.0:-1.0",
                                  "product-spheres:2:2:1:1:1", "perturbed:4:0.05:1",
                                  "euclidean", "perturbed"])
def test_preset_parsing_is_strict(name):
    with pytest.raises(ValueError):
        preset_metric(name)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(center=np.zeros(4), h=-1.0)
    with pytest.raises(ValueError):
        GridSpec(center=np.zeros(4), h=1e-3, order=3)
    with pytest.raises(ValueError):
        preset_metric("moebius:4")


@pytest.mark.parametrize("h, center", [(np.nan, np.zeros(4)), (np.inf, np.zeros(4)),
                                       (1e-3, np.array([0.0, np.nan, 0.0, 0.0])),
                                       (1e-3, np.array([0.0, 0.0, -np.inf, 0.0]))])
def test_grid_spec_rejects_non_finite(h, center):
    with pytest.raises(ValueError, match="finite"):
        GridSpec(center=center, h=h)


def _counting(name):
    """The preset with the exact bytes of every evaluated point recorded."""
    m = preset_metric(name)
    seen = []

    def fn(x):
        seen.append(x.tobytes())
        return m.fn(x)

    return ChartMetric(m.name, m.n, fn, m.harmonic_weyl), seen


@pytest.mark.parametrize("name, order, ricci, center, points", [
    ("sphere-stereo:4", 2, False, np.array([0.025, 0.05, 0.075, 0.1]), 313),
    ("perturbed:5", 4, True, 0.1 * (1.0 + np.arange(5)) / 5, 4881),
], ids=["sphere-stereo-4-order2", "perturbed-5-order4-ricci"])
def test_field_evaluates_each_stencil_point_once(name, order, ricci, center, points):
    m, seen = _counting(name)
    f = curvature_field(m, GridSpec(center=center, h=1e-3, order=order),
                        with_ricci_identity=ricci)
    assert len(seen) == len(set(seen)) == points
    assert f.metric is m


def test_grid_dump_evaluates_each_stencil_point_once(tmp_path):
    m, seen = _counting("perturbed:4")
    count = dump_grid_file(m, GridSpec(center=CENTER4, h=1e-3), str(tmp_path / "g.json"),
                           with_ricci_identity=True)
    assert len(seen) == len(set(seen)) >= count > 300


@pytest.mark.parametrize("name", ["perturbed:4", "perturbed:5", "product-spheres:2:2:1.0:1.0"])
def test_coordinate_weyl_norm_matches_frame_norm(name):
    """|W|^2_g from the coordinate split equals the frame split's operator norm."""
    m = preset_metric(name)
    grid = GridSpec(center=0.1 * (1.0 + np.arange(m.n)) / m.n, h=1e-3)
    f = curvature_field(m, grid)
    lattice = _Lattice(m, grid, with_ricci_identity=False)
    coords = _w_norm_sq_at(lattice, [0])[0]  # row 0 is the center
    frame = inner(f.decomposition.weyl, f.decomposition.weyl)
    assert frame > 1e-6
    assert coords == pytest.approx(frame, rel=1e-12)


def _conformal_errors(name, h, order):
    """Relative errors of W's conformal invariance between a preset g and e^{2 phi} g (a
    per-point ChartMetric), phi = 0.2 sin(x1 + 2 x2) + 0.1 x3^2 - 0.15 xn, at the center
    0.05 (1, ..., n): the frame W against e^{-2 phi} W at the center, the coordinate W
    table against e^{2 phi(x)} W on its rows, and |W|_g^{n/2} sqrt(det g) on those rows."""
    def phi(x):
        return 0.2 * np.sin(x[0] + 2.0 * x[1]) + 0.1 * x[2] ** 2 - 0.15 * x[-1]
    m = preset_metric(name)
    tilde = ChartMetric(f"conformal:{name}", m.n, lambda x: np.exp(2.0 * phi(x)) * m.fn(x))
    grid = GridSpec(center=0.05 * np.arange(1.0, m.n + 1), h=h, order=order)
    base, conformal = _Lattice(m, grid, False), _Lattice(tilde, grid, False)
    rows = slice(len(base.W))
    W = _assemble(base).decomposition.weyl.mat
    frame = _assemble(conformal).decomposition.weyl.mat - np.exp(-2.0 * phi(grid.center)) * W
    scaled = np.exp(2.0 * np.array([phi(x) for x in grid.point(base.keys[rows])]))[:, None, None]
    def integrand(lattice):
        return lattice.w2 ** (m.n / 4) * np.sqrt(np.linalg.det(lattice.g[rows]))
    return (np.abs(frame).max() / np.abs(W).max(),
            np.abs(conformal.W - scaled * base.W).max() / np.abs(scaled * base.W).max(),
            np.abs(integrand(conformal) - integrand(base)).max() / integrand(base).max())


@pytest.mark.parametrize("name", ["perturbed:4", "perturbed:5", "perturbed:6",
                                  "product-spheres:2:3"])
def test_weyl_split_is_conformally_invariant(name):
    """For e^{2 phi} g the (0,4) Weyl tensor is e^{2 phi} W pointwise, so |W|^{n/2} dV is
    unchanged: an oracle with no golden for the coordinate split under the metric, its W
    table and |W|^2_g (the frame W alone misses a fault in the last two, since _assemble
    splits the frame R again).  At order 2 and h = 4, 2, 1 (x 1e-3) the frame and table
    errors halve with ratios 3.96-4.20 and the integrand's second halving reads 3.98-4.23,
    gated in [3.5, 4.5]; its first halving reaches 4.91 on perturbed:5 and is not gated.
    At order 4 and h = 4e-3 every error is at most 6.5e-9: the 5e-8 bound leaves a factor
    of about 8."""
    errs = np.array([_conformal_errors(name, h, 2) for h in (4e-3, 2e-3, 1e-3)])
    ratios = errs[:-1] / errs[1:]
    assert ((3.5 <= ratios[:, :2]) & (ratios[:, :2] <= 4.5)).all(), ratios
    assert 3.5 <= ratios[1, 2] <= 4.5, ratios
    assert max(_conformal_errors(name, 4e-3, 4)) <= 5e-8


@pytest.mark.parametrize("ricci", [False, True])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("name", ["perturbed:4", "perturbed:5", "perturbed:6", "sphere-stereo:4",
                                  "sphere-stereo:5:2.0", "product-spheres:2:2"])
def test_chart_matches_the_four_index_reference(name, order, ricci):
    """The pair-matrix coordinate stage (R at the index pairs a < b, Rc through R's slot
    matrices) and frame stage (one nabla and one frame change for vector and 2-form slots)
    give the four-index route's tables and fields, each within 1e-13 of its scale, and no
    lattice table carries four vector slots.  Each stage is held against the reference from
    the same inputs: tables rounded apart differ in their finite differences by round-off / h
    (up to 7.8e-13 in the order-4 Ricci identity), so the frame stage starts from the
    lattice's own coordinate tables."""
    m = preset_metric(name)
    n = m.n
    lattice = _Lattice(m, GridSpec(center=0.1 * (1.0 + np.arange(n)) / n, h=1e-3,
                                   order=order), ricci)
    assert all(t.ndim < 5 for t in (lattice.g, lattice.gamma, *lattice.decomp, lattice.W,
                                    lattice.w2))
    R, Rc, S, W = four_index_decomposition(lattice)
    for key, table, want in zip("R Rc S W".split(), (*lattice.decomp, lattice.W),
                                (four_tensor_to_pair_matrix(n, R), Rc, S, W)):
        err = np.abs(table - want[:len(table)]).max()
        assert err <= 1e-13 * max(1.0, np.abs(want).max()), (key, err)

    R, Rc, S = lattice.decomp
    ref = four_index_field(lattice, pair_matrix_to_four_tensor(n, R), Rc, S,
                           pair_matrix_to_four_tensor(n, lattice.W))
    f = _assemble(lattice)
    got = {"R": f.R.mat, "W": f.decomposition.weyl.mat, "E": f.decomposition.E, "Rc": f.Rc,
           "nabla_r": f.nabla_r.comps, "nabla_w": f.nabla_w.comps, "nabla_rc": f.nabla_rc,
           "delta_w": f.delta_w.comps, "P": f.P.comps, "Q": f.Q.comps, "b_w": f.b_w.comps,
           "b_r": f.b_r.comps, "lap_w_norm_sq": f.lap_w_norm_sq}
    if ricci:
        got["ricci_identity"] = f.ricci_identity_residual
    assert got.keys() == ref.keys()
    for key, want in ref.items():
        err = np.abs(np.asarray(got[key]) - want).max()
        assert err <= 1e-13 * max(1.0, np.abs(want).max()), (key, err)


def _field_bits(f):
    report = identity_residual_report(f)
    return (f.R.mat.tobytes(), f.decomposition.weyl.mat.tobytes(),
            f.nabla_w.comps.tobytes(), f.nabla_r.comps.tobytes(), float(f.S).hex(),
            {k: float(v).hex() for k, v in report.items()})


def test_memo_lives_for_one_assembly():
    m, seen = _counting("perturbed:4")
    # h then h/2 on one metric object, as `chart --halving` does
    fields = [curvature_field(m, GridSpec(center=CENTER4, h=h)) for h in (2e-3, 1e-3)]
    fresh = [curvature_field(preset_metric("perturbed:4"), GridSpec(center=CENTER4, h=h))
             for h in (2e-3, 1e-3)]
    assert all(f.metric is m for f in fields)
    assert [_field_bits(f) for f in fields] == [_field_bits(f) for f in fresh]
    # a repeated assembly evaluates its points again: metric values are not kept
    # between calls; only the offset numbering, which depends on the shape alone, is
    once, hits = len(seen), _offsets.cache_info().hits
    curvature_field(m, GridSpec(center=CENTER4, h=1e-3))
    curvature_field(m, GridSpec(center=CENTER4, h=1e-3))
    assert len(seen) - once == 2 * len(set(seen[once:]))
    assert _offsets.cache_info().hits == hits + 2


# float.hex of the residuals and S at CENTER4, h = 1e-3, order 2, captured at
# commit b36b3fe, where every stage was recomputed at each visit of a stencil
# point; evaluating each point once must reproduce every bit.  The four values
# built from |W|^2_g (grad_abs_w_sq of both presets, kato_classical_margin of
# perturbed:4 and bochner of sphere-stereo:4) were re-captured when
# _w_norm_sq_at moved from a six-operand einsum to congruence_four: the
# contraction is summed in another order, which moves them by 1 to 2,905 ulps
# (at most 3.4e-13 relative); every other entry keeps its b36b3fe bits.
# product-spheres:2:2:1.0:1.0 was captured at commit d040230, before its
# evaluator stopped building its blocks from per-call sphere evaluations.
# The W-derived entries (bianchi_*, delta_w_pq, nabla_w_sq, grad_abs_w_sq, kato_*
# and bochner) were re-captured when the coordinate Weyl split moved to pair
# matrices (weyl_split with the row's g, |W|^2_g as (1/4) <W, G W G^T>, nabla W on
# the pair expansion): W is now exactly antisymmetric in each pair and its sums run
# in another order.  Where truncation dominates (perturbed:4, product-spheres) the
# values moved by at most 2.9e-5 relative; the sphere-stereo:4 entries below
# 1e-20 sit at the round-off floor and moved freely.  S, second_bianchi_r and
# ricci_identity kept their bits then.  The entries that moved were re-captured again
# when the chart kept R as pair matrices end to end (nabla R and nabla W differenced
# as pair matrices, the frame change L^T T L, the frame Ricci trace by pair_ricci,
# the Ricci identity's R rows expanded from pair matrices): every entry of at least
# 1e-20 moved by at most 1.5e-9 relative (S, second_bianchi_r and ricci_identity
# included), and grad_abs_w_sq, built from |W|^2_g alone, keeps its bits.  All but the
# product's S, grad_abs_w_sq and second_bianchi_r and sphere-stereo:4's S were re-captured
# once more when R^s_abk came to be formed at the pairs a < b only and Rc through R's
# slot matrices: R and W move by round-off (about 1e-16 of their scale), which the
# differences amplify by 1/h.  Entries of at least 1e-20 moved by at most 3.3e-6 relative
# (the cancelling residuals of perturbed:4: bianchi_map_w, delta_w_pq), S by 1 ulp, except
# sphere-stereo:4's bianchi_map_w (1.1e-12, the differenced round-off of a zero W: 9.1%).
# The product's bochner was re-captured when the Bochner curvature term came from one
# kernel (lap - 2|nabla W|^2 + 2 r1 instead of adding 4 <W, W^2 + W#> and -2 <Rc o g, W^2>
# one by one): 0x1.d79ecd5720000p-15 -> 0x1.d79ecd571050ap-15, 7.7e-12 relative.
# The norms of the (triple, pair) components moved by one ulp or less when they became
# sqrt(frobenius) instead of a BLAS dot (np.linalg.norm), and so did the residuals built
# on them: perturbed:4's bianchi_grad_margin ...d131p-9 -> ...d130p-9, second_bianchi_r
# ...0958p-30 -> ...0959p-30 and bianchi_norm_identity 0x1.dc2d6p-44 -> 0x1.dc2d7p-44
# (a difference of near-equal squares), and the product's bianchi_map_w ...389ap-20 ->
# ...389bp-20 and bianchi_norm_identity ...f42ap-38 -> ...f42cp-38.
GOLDEN_HEX = {
    "perturbed:4": {
        "S": "0x1.a8464b65bb727p-4",
        "bianchi_grad_margin": "0x1.1cb2d8763d130p-9",
        "bianchi_map_w": "0x1.6aab063d000f0p-32",
        "bianchi_norm_identity": "0x1.dc2d700000000p-44",
        "delta_w_pq": "0x1.366afd8000000p-31",
        "grad_abs_w_sq": "0x1.e8fb4282345a5p-14",
        "kato_classical_margin": "0x1.73decb086ea1bp-11",
        "nabla_w_sq": "0x1.b0fe3358b52d0p-11",
        "ricci_identity": "0x1.3ac01b4e80000p-32",
        "second_bianchi_r": "0x1.01e3cf76a0959p-30",
    },
    "product-spheres:2:2:1.0:1.0": {
        "S": "0x1.ffff8ca6995f9p+1",
        "bianchi_grad_margin": "0x1.13c89a5d1e84ep-35",
        "bianchi_map_w": "0x1.8c1ee65a1389bp-20",
        "bianchi_norm_identity": "0x1.31db04125f42cp-38",
        "bochner": "0x1.d79ecd571050ap-15",
        "delta_w_pq": "0x1.947688145b516p-21",
        "grad_abs_w_sq": "0x1.01bdb1174a0c1p-37",
        "kato_classical_margin": "0x1.31dabe2aedb70p-38",
        "kato_improved_margin": "-0x1.2e66c4f652c90p-41",
        "nabla_w_sq": "0x1.9aab102cc0e79p-37",
        "second_bianchi_r": "0x0.0p+0",
    },
    "sphere-stereo:4": {
        "S": "0x1.7fffaccf44182p+3",
        "bianchi_grad_margin": "0x1.e1c9c712944acp-81",
        "bianchi_map_w": "0x1.3acb67e6d288fp-40",
        "bianchi_norm_identity": "0x1.589bcabb38cbcp-84",
        "bochner": "0x1.fa44363bc831bp-82",
        "delta_w_pq": "0x1.7601d194ab26ep-22",
        "grad_abs_w_sq": "0x1.0f127b9adbf95p-84",
        "kato_classical_margin": "0x1.4ee402e02dca3p-82",
        "kato_improved_margin": "0x1.21b6439bb3cb4p-82",
        "nabla_w_sq": "0x1.92a8a1c6e4c88p-82",
        "second_bianchi_r": "0x1.12cea6bee6a34p-18",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_HEX))
def test_residuals_match_golden_bits(name):
    f = curvature_field(preset_metric(name), GridSpec(center=CENTER4, h=1e-3),
                        with_ricci_identity=name == "perturbed:4")
    report = identity_residual_report(f)
    report["S"] = f.S
    assert {k: float(v).hex() for k, v in report.items()} == GOLDEN_HEX[name]


# sha256 of the chart decomposition's bytes (the weyl, e_part and s_part pair matrices,
# then E, S and Rc) at CENTER6[:n], h = 1e-3, re-captured when the chart's R moved
# to the frame as the pair matrix L^T R L instead of by four tensordots (the fields
# move by at most 4.4e-16 of their scale; see test_chart_matches_the_four_index_reference),
# and again when R came to be formed at the index pairs a < b and Rc through its slot
# matrices (the coordinate tables move by at most 1.2e-16 of their scale there)
CENTER6 = [0.12, -0.07, 0.18, 0.05, -0.11, 0.09]
DECOMPOSITION_SHA256 = {
    (5, 2): "664e271f6625907a7e0a4636f4bf02d92fd4863593f0587356cd97aae9ea2c03",
    (5, 4): "81bccbfad5bc9148d7192c07c393547021e497b26962e905ad049d6c92bf2954",
    (6, 2): "b1a76641d81146cedbe13352c193270f178806dc5fff10a010c808129a8e2569",
    (6, 4): "6a78a2091e0df5a1903820910b1aa680adcf9bd447f0aa7520da96eea6b02b33",
}


@pytest.mark.parametrize("n, order", sorted(DECOMPOSITION_SHA256))
def test_frame_decomposition_matches_golden_bytes(n, order):
    f = curvature_field(preset_metric(f"perturbed:{n}"),
                        GridSpec(center=CENTER6[:n], h=1e-3, order=order))
    d = f.decomposition
    parts = (d.weyl.mat, d.e_part.mat, d.s_part.mat, d.E, np.float64(d.S), f.Rc)
    digest = hashlib.sha256(b"".join(np.ascontiguousarray(p).tobytes() for p in parts))
    assert digest.hexdigest() == DECOMPOSITION_SHA256[(n, order)]
