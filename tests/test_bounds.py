"""Bounds, rigidity constants, oracle maximization, and pinch verdicts."""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from weylbench.bounds import (
    _columns,
    _project_feasible,
    _ratio,
    audit_cubic_bounds,
    audit_eigen_bound,
    audit_eigen_equality,
    berger_component_bound,
    constants,
    cubic_bound_eval,
    eigen_bound,
    gap_verdict_integral,
    pinch_verdict_dim4,
    pinch_verdict_norm,
    pinch_verdict_pointwise,
    quadratic_coefficients,
    spectral_extremes,
    wcubic_ascents,
    wcubic_closed_form,
    wcubic_oracle,
    weyl_bound_terms,
)
from weylbench import basis, bounds
from weylbench.algebra import decompose
from weylbench.chart import GridSpec
from weylbench.models import model_curvature, parse_model_spec
from weylbench.sampling import (random_curvature, random_traceless_symmetric, random_weyl,
                                random_weyl_batch, traceless_from_uniform)
from weylbench.suite import run_identity_suite
from weylbench.tensors import (CurvatureTensor, Operator2Form, PureCurvatureMatrix, ThreeTwoTensor,
                               symmetrized)

rng = np.random.default_rng(13)


# ------------------------------------------------------- spectral extremes

def test_spectral_extremes_zero():
    W = CurvatureTensor(5, np.zeros((10, 10)))
    ext = spectral_extremes(W, np.zeros((5, 5)))
    assert ext.omega_mag == ext.omega_max == ext.ell == 0.0


def test_spectral_extremes_equality_family():
    n, t = 6, 0.4
    E = np.diag([t] * (n - 1) + [-(n - 1) * t])
    W = CurvatureTensor(n, np.zeros((15, 15)))
    ext = spectral_extremes(W, E)
    assert ext.ell == pytest.approx((n - 1) * t, rel=1e-13)
    e_norm = float(np.linalg.norm(E))
    assert ext.ell == pytest.approx(math.sqrt((n - 1) / n) * e_norm, rel=1e-13)


def test_spectral_extremes_product_weyl():
    dec = decompose(model_curvature(parse_model_spec(
        "product:sphere:2:1.0,sphere:2:1.0")).R)
    ext = spectral_extremes(dec.weyl, dec.E)
    assert ext.omega_max == pytest.approx(2 / 3, rel=1e-13)
    assert ext.omega_mag == pytest.approx(2 / 3, rel=1e-13)


def test_eigen_bound_family():
    for m in range(2, 11):
        t = 0.3
        T = np.diag([t] * (m - 1) + [-(m - 1) * t])
        lam, bound = eigen_bound(T)
        assert lam == pytest.approx(bound, rel=1e-12)


def test_eigen_bound_audit():
    assert audit_eigen_bound(2000, seed=3) <= 1e-12


def test_eigen_audit_reports_the_equality_case_apart():
    """m = 2 attains the bound, so its excess is round-off of either sign; it is
    audited two-sided on its own and the excess covers m = 3..10, strictly below."""
    for seed in range(30):
        assert audit_eigen_bound(2, seed=seed) < -1e-4, seed
        assert audit_eigen_equality(2, seed) <= 1e-15, seed
    assert audit_eigen_equality(0, 0) == 0.0
    with pytest.raises(ValueError, match="samples"):
        audit_eigen_equality(-1, 0)


# ------------------------------------------------------------ Berger bound

def test_berger_component_bound_zero():
    W = CurvatureTensor(5, np.zeros((10, 10)))
    cb = berger_component_bound(W)
    assert cb.max_component == 0.0 and cb.bound == 0.0


def test_berger_component_bound_product():
    dec = decompose(model_curvature(parse_model_spec(
        "product:sphere:2:1.0,sphere:2:1.0")).R)
    cb = berger_component_bound(dec.weyl)
    assert cb.bound == pytest.approx(8 / 9, rel=1e-12)
    assert cb.max_component <= cb.bound + 1e-12


def test_berger_component_bound_random():
    for n in (5, 6):
        for _ in range(20):
            cb = berger_component_bound(random_weyl(rng, n))
            assert cb.max_component <= cb.bound + 1e-10


def test_berger_rejects_traced():
    with pytest.raises(ValueError):
        berger_component_bound(random_curvature(rng, 5))


# ------------------------------------------------------------ cubic bounds

def test_cubic_bound_eval_zero():
    W = CurvatureTensor(5, np.zeros((10, 10)))
    cb = cubic_bound_eval(W)
    assert cb.lhs == cb.eig_bound == cb.norm_bound == 0.0


def test_cubic_bound_eval_random_n5():
    for _ in range(20):
        cb = cubic_bound_eval(random_weyl(rng, 5))
        assert cb.lhs <= cb.eig_bound + 1e-9
        assert cb.lhs <= cb.norm_bound + 1e-9
        assert cb.lhs == pytest.approx(3.0 * cb.lhs_dot_only, rel=1e-9)
        assert cb.eig_bound_signed is not None
        assert cb.lhs <= cb.eig_bound_signed + 1e-9


@pytest.mark.parametrize("spec, ratio", [("product:sphere:3:1.0,sphere:3:1.0", 1.0),
                                         ("fubini-study:3", 0.375)])
def test_eigenvalue_cubic_bound_ratio_reads_exactly_on_the_models(spec, ratio):
    """<W, W^2 + W#> and |W|^2 are summed in one order, so the Weyl part of S^3 x S^3
    meets the eigenvalue bound exactly and CP^3 reads exactly 3/8 of it."""
    W = decompose(model_curvature(parse_model_spec(spec)).R).weyl
    t = weyl_bound_terms(W.n, W.mat)
    assert t["lhs"] / t["eig_bound"] == ratio


def test_cubic_bound_dimension_guard():
    with pytest.raises(ValueError):
        cubic_bound_eval(random_weyl(rng, 4))


def test_cubic_bound_audit_small():
    for n in (5, 6):
        worst = audit_cubic_bounds(n, 200, seed=1)
        assert worst["component"] <= 1e-10
        assert worst["eig"] <= 1e-10
        assert worst["norm"] <= 1e-10
        if n == 5:
            assert worst["eig_signed"] <= 1e-10
            assert worst["dim5_identity"] <= 1e-10


def test_cubic_bound_audit_does_not_depend_on_the_pass_budget(monkeypatch):
    """One sample a kernel pass, the default passes and one pass give the same worst
    excesses, bit for bit, at n = 5..8."""
    for n in (5, 6, 7, 8):
        runs = []
        for entries in (1, basis.CHUNK_ENTRIES, 2 ** 40):
            monkeypatch.setattr(basis, "CHUNK_ENTRIES", entries)
            runs.append({k: float(v).hex() for k, v in audit_cubic_bounds(n, 200, 3).items()})
        assert runs[0] == runs[1] == runs[2]


#: traced peak of one warm 64-sample n = 8 audit pass: 1.83 MB measured with the kernels'
#: bounded passes (4.94 MB when ``cubic_parts`` and ``kn_identity`` held whole batches)
AUDIT_PEAK_BYTES = 2.1e6


def test_cubic_bound_audit_peak_memory_is_bounded():
    """The n = 8 audit's transient stacks stay within the bounded passes: tracemalloc's peak
    over one 64-sample pass (caches warm) stays under AUDIT_PEAK_BYTES."""
    audit_cubic_bounds(8, 64, seed=0)
    tracemalloc.start()
    try:
        audit_cubic_bounds(8, 64, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < AUDIT_PEAK_BYTES


def test_cubic_bound_audit_refuses_a_dimension_past_the_pair_budget(monkeypatch):
    """n = 17 needs 136 x 136 pair matrices, past basis.MAX_PAIR_MATRIX_BYTES: refused by
    name before a sample is drawn."""
    from weylbench import sampling

    def no_draw(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(sampling, "random_weyl_batch", no_draw)
    with pytest.raises(ValueError, match="n = 17 "):
        audit_cubic_bounds(17, 1, seed=0)


@pytest.mark.parametrize("small", [np.uint8(17), np.int16(17)])
def test_pair_dimension_is_sized_in_python_ints(small):
    """A numpy integer n is checked as the int it holds: n = 17 is refused by name (a uint8
    N * N would wrap below the budget, or overflow in the audit), and 16 comes back an int."""
    with pytest.raises(ValueError, match="^x: dimension n = 17 needs 136 x 136"):
        basis.check_pair_dimension(small, "x", 2)
    with pytest.raises(ValueError, match="^cubic bound audit: dimension n = 17 "):
        audit_cubic_bounds(small, 2, 0)
    fits = basis.check_pair_dimension(np.uint8(16), "x", 2)
    assert fits == 16 and type(fits) is int


def test_eigen_audits_do_not_depend_on_the_pass_budget(monkeypatch):
    """One sample a pass, the default passes (two for m = 9 and 10 at 1,000 samples) and one
    pass draw the same stream and give the same worst excesses, bit for bit."""
    runs = []
    for entries in (1, basis.CHUNK_ENTRIES, 2 ** 40):
        monkeypatch.setattr(basis, "CHUNK_ENTRIES", entries)
        runs.append((audit_eigen_bound(1000, 5).hex(), audit_eigen_equality(1000, 5).hex()))
    assert runs[0] == runs[1] == runs[2]


#: audit_eigen_bound and audit_eigen_equality at seed 7, by sample count, as float.hex:
#: recorded while audit_eigen_bound still ran eigen_bound_terms on the m = 2 draws it drops
EIGEN_AUDIT_HEX = {0: ("-inf", "0x0.0p+0"),
                   2: ("-0x1.6915f111336a7p-5", "0x1.de888c8e3c9e3p-53"),
                   512: ("-0x1.d576047d0385ap-15", "0x1.d75a83aed7119p-52"),
                   5000: ("-0x1.cce4ead77472cp-17", "0x1.066f2309732e9p-51")}


@pytest.mark.parametrize("samples", sorted(EIGEN_AUDIT_HEX))
def test_eigen_audits_keep_their_values_without_evaluating_dropped_draws(samples, monkeypatch):
    """audit_eigen_bound draws its m = 2 samples in their passes but evaluates only m = 3..10,
    and audit_eigen_equality only m = 2; both keep the recorded values, bit for bit."""
    sizes, terms = [], bounds.eigen_bound_terms

    def spy(T):
        sizes.append(T.shape[-1])
        return terms(T)

    monkeypatch.setattr(bounds, "eigen_bound_terms", spy)
    assert audit_eigen_bound(samples, 7).hex() == EIGEN_AUDIT_HEX[samples][0]
    assert sorted(set(sizes)) == (list(range(3, 11)) if samples else [])
    sizes.clear()
    assert audit_eigen_equality(samples, 7).hex() == EIGEN_AUDIT_HEX[samples][1]
    assert set(sizes) == ({2} if samples else set())


#: traced peak of the eigenvalue audits at 20,000 samples: 2.21 MB measured with each m's
#: draws in ``basis._chunks`` passes (64.5 MB when every m drew all its samples at once)
EIGEN_AUDIT_PEAK_BYTES = 2.6e6


def test_eigen_audit_peak_memory_is_bounded():
    """audit_eigen_bound and audit_eigen_equality at 20,000 samples (caches warm) stay under
    EIGEN_AUDIT_PEAK_BYTES of tracemalloc's peak: their draws run in bounded passes."""
    audit_eigen_bound(64, seed=0)
    tracemalloc.start()
    try:
        audit_eigen_bound(20_000, seed=0)
        audit_eigen_equality(20_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < EIGEN_AUDIT_PEAK_BYTES


# -------------------------------------------------- constrained cubic ratio

def test_wcubic_closed_form_values():
    assert wcubic_closed_form(1.0, 3) == pytest.approx(0.5)
    assert wcubic_closed_form(1.0, 2) == pytest.approx(0.0)
    assert wcubic_closed_form(2.0, 10) == pytest.approx(16 / 9)
    with pytest.raises(ValueError):
        wcubic_closed_form(-1.0, 3)
    with pytest.raises(ValueError):
        wcubic_closed_form(1.0, 1)


def test_wcubic_attained_at_structured_point():
    s, n = 1.0, 3
    x = np.array([s, -s / 2, -s / 2])
    ratio = np.sum(x ** 3) / np.sum(x ** 2)
    assert ratio == pytest.approx(wcubic_closed_form(s, n), rel=1e-14)
    assert np.sum(x ** 3) == pytest.approx(3 / 4)
    assert np.sum(x ** 2) == pytest.approx(3 / 2)


@pytest.mark.parametrize("n,s,expect", [(3, 1.0, 0.5), (5, 1.0, 0.75), (2, 1.0, 0.0)])
def test_wcubic_oracle_known_values(n, s, expect):
    res = wcubic_oracle(s, n, budget=40_000, seed=0)
    tol = 1e-6 if n == 2 else 1e-4
    assert res.value == pytest.approx(expect, abs=tol)


def test_wcubic_oracle_never_exceeds_closed_form():
    for n in (2, 3, 4, 6, 8):
        for s in (0.5, 1.0, 2.0):
            res = wcubic_oracle(s, n, budget=30_000, seed=2)
            closed = wcubic_closed_form(s, n)
            assert res.value <= closed + 1e-9
            assert res.value >= closed - 1e-4


def test_wcubic_structured_candidate_attains():
    # one cap entry, the rest equal: attains the closed form to rounding
    for n in (3, 5, 9):
        s = 1.3
        x = np.full(n, -s / (n - 1))
        x[0] = s
        ratio = float(np.sum(x ** 3) / np.sum(x ** 2))
        assert abs(ratio - wcubic_closed_form(s, n)) < 1e-12


# ------------------------------------------------ exact feasible projection

EPS = np.finfo(float).eps


def bisection_projection_reference(x, s):
    """Row-wise projection onto {sum x = 0, x_i <= s} by 100 bisection steps on
    the shift (the earlier implementation of ``_project_feasible``)."""
    x = np.atleast_2d(x)
    lo = x.min(axis=1) - s - 1.0
    hi = x.max(axis=1)
    for _ in range(100):
        mu = 0.5 * (lo + hi)
        total = np.minimum(x - mu[:, None], s).sum(axis=1)
        above = total > 0
        lo = np.where(above, mu, lo)
        hi = np.where(above, hi, mu)
    return np.minimum(x - (0.5 * (lo + hi))[:, None], s)


def _projection_rows(n, s, gen):
    """Random rows over five scales plus adversarial ones: ties, feasible rows
    (the structured stationary points among them), rows far above the cap."""
    rows = [gen.normal(size=(40, n)) * scale * s for scale in (1e-3, 0.1, 1.0, 10.0, 1e4)]
    feasible = bisection_projection_reference(gen.normal(size=(10, n)) * s, s)
    structured = [np.where(np.arange(n) < q, s, -q * s / (n - q)) for q in range(1, n)]
    ties = [np.full(n, c * s) for c in (-3.0, 0.0, 0.5, 1.0, 7.0)]
    ties += [np.repeat([4.0 * s, -s], [q, n - q]) for q in range(1, n)]
    ties.append(np.repeat([s + 1e-15, s - 1e-15], [1, n - 1]))
    above = [np.abs(gen.normal(size=(10, n))) * 1e6 * s + s,
             np.full((1, n), 1e8 * s)]
    return np.vstack(rows + [feasible, np.array(structured), np.array(ties)] + above)


def _row_scale(x, s):
    return np.maximum(1.0, np.maximum(np.abs(x).max(axis=1), s))


def project_rows(x, s):
    """``_project_feasible`` of each row of x, held as one column of the table."""
    x = np.atleast_2d(x)
    return _project_feasible(x.T, s, _columns([x.shape[1]] * len(x))).T


@pytest.mark.parametrize("n", range(2, 13))
def test_projection_matches_bisection_reference(n):
    gen = np.random.default_rng([21, n])
    for s in (0.5, 1.0, 1.3, 2.0):
        x = _projection_rows(n, s, gen)
        diff = np.abs(project_rows(x, s) - bisection_projection_reference(x, s)).max(axis=1)
        assert (diff <= 1e-14 * _row_scale(x, s)).all(), diff.max()


@pytest.mark.parametrize("n", range(2, 13))
def test_projection_is_feasible_and_idempotent(n):
    gen = np.random.default_rng([22, n])
    for s in (0.5, 1.0, 1.3, 2.0):
        x = _projection_rows(n, s, gen)
        y = project_rows(x, s)
        # each of the n entries x_i + theta rounds once at the row scale, and
        # theta carries the cumulative-sum rounding of up to n terms
        ulps = 2 * n * EPS * _row_scale(x, s)
        assert y.max() <= s
        assert (np.abs(y.sum(axis=1)) <= ulps).all()
        assert (np.abs(project_rows(y, s) - y).max(axis=1) <= ulps).all()


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_projection_is_one_shift_per_row_then_the_cap(n):
    """Each row of the input, one column of the table, is shifted once and then capped."""
    gen = np.random.default_rng([23, n])
    s = 1.3
    x = _projection_rows(n, s, gen)
    y = project_rows(x, s)
    free = y < s
    # the shift mu with y = min(x - mu, s), read off any entry below the cap
    mu = np.where(free, x - y, np.nan)
    mu_row = np.nanmedian(mu, axis=1)
    scale = _row_scale(x, s)
    spread = np.nanmax(mu, axis=1) - np.nanmin(mu, axis=1)
    assert (spread <= 4 * EPS * scale).all()
    assert (np.abs(np.minimum(x - mu_row[:, None], s) - y).max(axis=1) <= 4 * EPS * scale).all()


def test_projection_of_a_stack_equals_rowwise():
    """A table of columns projects each column as it would alone."""
    gen = np.random.default_rng(24)
    for n in (2, 4, 7, 12):
        x = _projection_rows(n, 1.0, gen).T
        stacked = _project_feasible(x, 1.0, _columns([n] * x.shape[1]))
        for j in range(x.shape[1]):
            assert np.array_equal(_project_feasible(x[:, [j]], 1.0, _columns([n]))[:, 0],
                                  stacked[:, j])


def test_projection_ignores_the_padding_and_returns_it_as_zero():
    """Columns of 2..12 entries over padding of any finite or +inf value: each column's
    entries come back bit for bit as the column alone, and its padding as 0."""
    gen = np.random.default_rng(27)
    counts = gen.integers(2, 13, size=200)
    x = gen.normal(size=(12, 200)) * 10.0 ** gen.integers(-3, 5, size=200)
    real = np.arange(12)[:, None] < counts
    garbage = np.where(gen.random((12, 200)) < 0.5, np.inf, gen.normal(size=(12, 200)) * 1e300)
    for s in (0.5, 1.0, 1.3):
        y = _project_feasible(np.where(real, x, garbage), s, _columns(counts))
        assert np.array_equal(y, _project_feasible(x * real, s, _columns(counts)))
        assert (y[~real] == 0.0).all()
        for j, n in enumerate(counts):
            alone = _project_feasible(x[:n, [j]], s, _columns([n]))[:, 0]
            assert np.array_equal(y[:n, j], alone)
            assert np.array_equal(alone, take_along_projection_reference(x[:n, j], s)[0])


def take_along_projection_reference(x, s):
    """The sort-and-cumsum projection as first written, row-wise with ``take_along_axis`` and
    ``keepdims``: the column table's indexed form must reproduce it bit for bit."""
    x = np.atleast_2d(x)
    n = x.shape[1]
    u = s - np.sort(x, axis=1)
    k = np.arange(1, n + 1)
    excess = np.cumsum(u, axis=1) - n * s
    rho = np.count_nonzero(u * k > excess, axis=1, keepdims=True)
    return np.minimum(x + np.take_along_axis(excess, rho - 1, axis=1) / rho, s)


@pytest.mark.parametrize("n", range(2, 13))
def test_projection_is_bitwise_the_take_along_reference(n):
    gen = np.random.default_rng([25, n])
    for s in (0.5, 1.0, 1.3, 2.0):
        # _projection_rows carries rows at the cap, tied entries and rows far above it
        x = _projection_rows(n, s, gen)
        assert np.array_equal(project_rows(x, s), take_along_projection_reference(x, s))
        row = gen.normal(size=n) * s
        out = _project_feasible(row[:, None], s, _columns([n]))
        assert out.shape == (n, 1)
        assert np.array_equal(out.T, take_along_projection_reference(row, s))


# ----------------------------------------------------- the ratio's cubes

def test_ratio_cubes_against_exact_sums():
    from fractions import Fraction

    gen = np.random.default_rng(26)
    for n in (2, 3, 5, 8, 12):
        s = 1.3
        x = _project_feasible(gen.uniform(-1.0, 1.0, size=(n, 60)) * s, s, _columns([n] * 60))
        _, q, p = _ratio(x)
        # the cubes are products, not np.power: a return to x ** 3 moves these bits; the
        # sums run down each column in row order
        assert np.array_equal(p, np.add.reduce(x * x * x, axis=0))
        assert np.array_equal(q, np.add.reduce(x * x, axis=0))
        for column, got in zip(x.T, p):
            assert got == np.cumsum(column * column * column)[-1]  # in row order
            exact = sum(Fraction(float(v)) ** 3 for v in column)
            # two roundings per cube and n - 1 in the sum: (n + 1) half-ulps of sum |x|^3
            bound = (n + 1) * (EPS / 2) * float(sum(abs(Fraction(float(v))) ** 3 for v in column))
            assert abs(Fraction(float(got)) - exact) <= Fraction(bound) * (1 + 1e-12)


# ------------------------------------------------- the lockstep ascent

@pytest.mark.parametrize("budget", [0, 64, 130, 2000, 100_000])
def test_lockstep_gives_each_dimension_its_single_ascent(budget):
    """For n = 2..12 and random dimension tuples (repeats and any order), each n's lockstep
    result is bit for bit its single-dimension ascent: value, best_x, evaluations and
    converged.  At seed 3 and budget 100,000, n = 2 stops before the others: if its columns
    kept stepping, its value would move."""
    gen = np.random.default_rng([28, budget])
    for seed in range(4):
        for dims in (tuple(range(2, 13)),
                     tuple(int(n) for n in gen.integers(2, 13, size=gen.integers(1, 13)))):
            for n, got in zip(dims, wcubic_ascents(dims, budget, seed), strict=True):
                alone = wcubic_oracle(1.0, n, budget=budget, seed=seed)
                assert got.value == alone.value, (dims, n, seed)
                assert np.array_equal(got.best_x, alone.best_x), (dims, n, seed)
                assert (got.evaluations, got.converged) == (alone.evaluations, alone.converged)


#: profiler call and c_call events of a warm oracle, counted with sys.setprofile: 758 for
#: the lockstep of n = 2..8 at budget 2,000 and seed 0, where seven single ascents read
#: 7,641, and 1,020 for one default n = 8 ascent at seed 0, 1,754 before the column table.
#: Python 3.11.7 and numpy 2.4.6: numpy's Python wrappers enter the count, so another
#: version moves it.  The gates leave a 9.5% and a 9.8% margin.
ORACLE_DISPATCH_EVENTS = {"lockstep n = 2..8": 830, "n = 8": 1120}


@pytest.mark.parametrize("case", sorted(ORACLE_DISPATCH_EVENTS))
def test_oracle_dispatch_is_bounded(case):
    """The Python and C calls of a warm oracle stay under ORACLE_DISPATCH_EVENTS: a count,
    not a time, so the gate does not depend on the host's speed."""
    run = {"lockstep n = 2..8": lambda: wcubic_ascents(range(2, 9), 2000, 0),
           "n = 8": lambda: wcubic_oracle(1.0, 8)}[case]
    run()
    events = [0]

    def count(frame, event, arg):
        events[0] += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    assert events[0] < ORACLE_DISPATCH_EVENTS[case], events[0]


def test_lockstep_refuses_no_dimension_and_n_above_12():
    for dims in ((), (5, 13)):
        with pytest.raises(ValueError, match="oracle supports 2 <= n <= 12"):
            wcubic_ascents(dims, 0, 0)


# ------------------------------------- enumerative second oracle (test side)

def wcubic_enumerated(s, n):
    """Budget-free maximum of sum x^3 / sum x^2 on {sum x = 0, x <= s}.

    At a KKT point every free coordinate solves 3x^2 q - 2x p = lambda q^2, so
    the free coordinates take at most two values.  Enumerate the patterns: k
    entries at the cap, a at u, the other m = n - k - a at
    v = -(k s + a u) / m, and maximise the ratio in the one unknown u over
    its stationary points and the ends of u <= s, v <= s.
    """
    from numpy.polynomial import Polynomial as P

    best = -math.inf
    for k in range(n):
        for a in range(n - k):
            m = n - k - a
            u = P([0.0, 1.0])
            v = -(k * s + a * u) / m
            cubic = k * s ** 3 + a * u ** 3 + m * v ** 3
            square = k * s ** 2 + a * u ** 2 + m * v ** 2
            if a == 0:
                candidates = [0.0]  # no unknown: v = -k s / m
            else:
                numerator = cubic.deriv() * square - cubic * square.deriv()
                lo, hi = -(k + m) * s / a, s
                candidates = [lo, hi] + [r.real for r in np.roots(numerator.coef[::-1])
                                         if abs(r.imag) <= 1e-9 and lo <= r.real <= hi]
            for c in candidates:
                q = square(c)
                if q > 1e-12 * s * s:
                    best = max(best, cubic(c) / q)
    return best


@pytest.mark.parametrize("n", range(2, 13))
def test_enumerated_maximum_equals_closed_form(n):
    for s in (0.5, 1.0, 1.3, 2.0):
        closed = wcubic_closed_form(s, n)
        assert wcubic_enumerated(s, n) == pytest.approx(closed, rel=1e-12, abs=1e-12 * s)


@pytest.mark.parametrize("n", range(2, 11))
def test_wcubic_oracle_within_enumerated_maximum(n):
    for s in (0.5, 1.0, 2.0):
        enum = wcubic_enumerated(s, n)
        value = wcubic_oracle(s, n, seed=5).value
        assert enum - 1e-4 <= value <= enum + 1e-9, (n, s, value, enum)


@pytest.mark.parametrize("n", range(2, 13))
def test_wcubic_oracle_is_exactly_homogeneous_in_the_cap(n):
    # the ascent runs at cap 1 and never sees s, which only scales its result; `weylbench
    # bounds` relies on this to serve its three caps from one ascent per n
    for seed, budget in itertools.product(range(3), (0, 2000, 100_000)):
        unit = wcubic_oracle(1.0, n, budget=budget, seed=seed)
        for s in (0.25, 0.5, 2.0, 4.0, 0.3, 3.0, 1e-12, 1e200):
            res = wcubic_oracle(s, n, budget=budget, seed=seed)
            where = (n, seed, budget, s)
            assert res.value == s * unit.value, where
            assert np.array_equal(res.best_x, s * unit.best_x), where
            assert (res.evaluations, res.converged) == (unit.evaluations, unit.converged), where


@pytest.mark.parametrize("s", [1e-12, 1e-10, 1e77, 1e100, 1e200])
def test_wcubic_oracle_is_scale_free(s):
    # the ascent runs at cap 1: no guard or square under- or overflows at extreme caps
    res = wcubic_oracle(s, 5, seed=0)
    assert res.converged
    assert res.value == pytest.approx(wcubic_closed_form(s, 5), rel=1e-14)
    assert res.best_x.max() <= s and abs(res.best_x.sum()) <= 1e-14 * s


#: (n, cap, seed) where an earlier ascent ran to the 100k budget: fixed-length steps halved
#: on rejection (n = 4 and 11), or the cap-face direction with that halving (n = 8)
STALLED_UNDER_HALVING = ([(4, s, 2892652273) for s in (0.5, 1.0, 2.0)]
                         + [(11, 1.0, seed) for seed in (3, 5, 26, 30, 34)] + [(8, 1.0, 3)])


@pytest.mark.parametrize("n,s,seed", STALLED_UNDER_HALVING)
def test_wcubic_oracle_converges_where_halving_stalled(n, s, seed):
    res = wcubic_oracle(s, n, seed=seed)
    assert res.converged and res.evaluations < 100_000, res.evaluations
    assert res.value == pytest.approx(wcubic_closed_form(s, n), rel=1e-14)


def test_wcubic_oracle_converges_within_150_steps():
    for n in range(2, 13):
        for seed in range(8):
            res = wcubic_oracle(1.0, n, seed=seed)
            assert res.converged and res.evaluations <= 64 * 150, (n, seed, res.evaluations)
            assert res.value == pytest.approx(wcubic_closed_form(1.0, n), rel=1e-14, abs=1e-15)


def test_wcubic_closed_form_is_finite_at_the_largest_caps():
    """s (n-2)/(n-1) is s times the ratio, so a cap near the largest double stays finite and
    agrees with the oracle; at power-of-two caps both orders of the product give one double."""
    for n in (3, 5, 8, 12):
        closed = wcubic_closed_form(1e308, n)
        assert math.isfinite(closed)
        assert wcubic_oracle(1e308, n).value == pytest.approx(closed, rel=1e-14)
    for n in range(2, 13):
        for s in (0.25, 0.5, 1.0, 2.0, 4.0):
            assert wcubic_closed_form(s, n) == s * (n - 2) / (n - 1)


def test_one_traceless_draw_map_keeps_both_earlier_forms():
    """traceless_from_uniform, the draw map of the eigenvalue audit and of
    random_traceless_symmetric, gives the bits of the batched in-place einsum trace it
    replaced, and those of the per-matrix np.trace below m = 8; from m = 8 np.trace sums
    the diagonal pairwise, so the two differ at round-off there."""
    for seed in (0, 1, 7, 123):
        for m in range(2, 11):
            for count in (1, 2, 64):
                t = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(count, m, m))
                old = (t + np.transpose(t, (0, 2, 1))) / 2.0
                old -= np.einsum('bii->b', old)[:, None, None] / m * np.eye(m)
                assert np.array_equal(traceless_from_uniform(t), old)
            sym = symmetrized(np.random.default_rng(seed).uniform(-1.0, 1.0, size=(m, m)))
            got = random_traceless_symmetric(np.random.default_rng(seed), m)
            old = sym - np.trace(sym) / m * np.eye(m)
            assert np.array_equal(got, old) if m < 8 else np.allclose(got, old, rtol=0, atol=1e-15)


# ------------------------------------------------ oracle and audit boundaries

@pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_wcubic_rejects_bad_cap(cap):
    for call in (wcubic_closed_form, wcubic_oracle):
        with pytest.raises(ValueError, match="finite|positive"):
            call(cap, 5)


def test_wcubic_oracle_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        wcubic_oracle(1.0, 5, budget=-1)
    # no budget leaves the 64 random starts, none of them the maximiser: the
    # lower check can fail, and only the ascent reaches s(n-2)/(n-1)
    for n in range(4, 11):
        res = wcubic_oracle(1.0, n, budget=0)
        assert res.evaluations == 64 and not res.converged
        assert res.value < wcubic_closed_form(1.0, n) - 1e-4, n
        assert wcubic_oracle(1.0, n).value == pytest.approx(wcubic_closed_form(1.0, n),
                                                            rel=1e-14)


def test_audits_reject_negative_samples():
    with pytest.raises(ValueError, match="samples"):
        audit_cubic_bounds(5, -1, seed=0)
    with pytest.raises(ValueError, match="samples"):
        audit_eigen_bound(-1, seed=0)


#: a call of each bounds function with an integral-valued float or a numpy bool, which
#: ``INTEGER_ARGUMENTS`` does not draw, and the argument its ValueError names
NON_INTEGER_CALLS = {
    "audit_cubic_bounds": (lambda: audit_cubic_bounds(5, 2.0, 0), "samples"),
    "audit_cubic_bounds_n": (lambda: audit_cubic_bounds(5.0, 2, 0),
                             "cubic bound audit: dimension n"),
    "audit_cubic_bounds_bool": (lambda: audit_cubic_bounds(5, np.True_, 0), "samples"),
    "audit_eigen_bound": (lambda: audit_eigen_bound(3.0, 0), "samples"),
    "audit_eigen_equality": (lambda: audit_eigen_equality(np.float64(3.0), 0), "samples"),
    "wcubic_oracle": (lambda: wcubic_oracle(1.0, 5.0), "n"),
    "wcubic_oracle_budget": (lambda: wcubic_oracle(1.0, 5, budget=100.0), "budget"),
    "wcubic_closed_form": (lambda: wcubic_closed_form(1.0, 5.0), "n"),
    "GridSpec.order": (lambda: GridSpec(np.zeros(4), order=2.0), "order"),
    "constants": (lambda: constants(6.0), "n"),
    "gap_verdict_integral": (lambda: gap_verdict_integral(0.1, 0.1, 16.0, 6.0), "n"),
    "integral_rigidity_d": (lambda: bounds.integral_rigidity_d(0.1, 0.1, 16.0, 6.0), "n"),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_CALLS))
def test_bounds_refuse_non_integer_arguments_by_name(name):
    call, argument = NON_INTEGER_CALLS[name]
    with pytest.raises(ValueError, match=f"^{argument} must be an integer, got "):
        call()


def test_bounds_run_numpy_integers_as_plain_ints():
    """A uint8 n runs as the int it holds: n (n - 2)(n - 3) = 1080 at n = 12 would wrap."""
    assert constants(np.uint8(12)) == constants(12)
    assert gap_verdict_integral(0.1, 0.1, 16.0, np.uint8(12)) == gap_verdict_integral(
        0.1, 0.1, 16.0, 12)
    assert wcubic_closed_form(1.0, np.uint8(5)) == wcubic_closed_form(1.0, 5)
    assert audit_eigen_equality(np.uint8(3), np.int64(2)) == audit_eigen_equality(3, 2)
    assert type(GridSpec(np.zeros(4), order=np.int64(4)).order) is int


#: every integer argument of the public API: a call with the argument set to v, the
#: argument's floor and the name its ValueError gives
INTEGER_ARGUMENTS = {
    "Operator2Form.n": (lambda v: Operator2Form(v, np.zeros((1, 1))), 2, "dimension"),
    "ThreeTwoTensor.n": (lambda v: ThreeTwoTensor(v, np.zeros((1, 3))), 3, "dimension"),
    "PureCurvatureMatrix.n": (lambda v: PureCurvatureMatrix(v, np.zeros((2, 2))), 2,
                              "dimension"),
    "run_identity_suite.dimensions": (lambda v: run_identity_suite((4, v), 1), 4,
                                      "identity suite: dimension n"),
    "run_identity_suite.trials": (lambda v: run_identity_suite((4,), v), 0, "trials"),
    "run_identity_suite.workers": (lambda v: run_identity_suite((4,), 1, workers=v), 1,
                                   "workers"),
    "run_identity_suite.seed": (lambda v: run_identity_suite((4,), 1, seed=v), 0, "seed"),
    "audit_cubic_bounds.n": (lambda v: audit_cubic_bounds(v, 1, 0), 5,
                             "cubic bound audit: dimension n"),
    "audit_cubic_bounds.samples": (lambda v: audit_cubic_bounds(5, v, 0), 0, "samples"),
    "audit_cubic_bounds.seed": (lambda v: audit_cubic_bounds(5, 1, v), 0, "seed"),
    "audit_eigen_bound.samples": (lambda v: audit_eigen_bound(v, 0), 0, "samples"),
    "audit_eigen_bound.seed": (lambda v: audit_eigen_bound(1, v), 0, "seed"),
    "audit_eigen_equality.samples": (lambda v: audit_eigen_equality(v, 0), 0, "samples"),
    "audit_eigen_equality.seed": (lambda v: audit_eigen_equality(1, v), 0, "seed"),
    "wcubic_ascents.dims": (lambda v: wcubic_ascents((4, v), 0, 0), 2, "n"),
    "wcubic_ascents.budget": (lambda v: wcubic_ascents((4,), v, 0), 0, "budget"),
    "wcubic_ascents.seed": (lambda v: wcubic_ascents((4,), 0, v), 0, "seed"),
    "wcubic_oracle.n": (lambda v: wcubic_oracle(1.0, v, budget=0), 2, "n"),
    "wcubic_oracle.budget": (lambda v: wcubic_oracle(1.0, 5, budget=v), 0, "budget"),
    "wcubic_oracle.seed": (lambda v: wcubic_oracle(1.0, 5, budget=0, seed=v), 0, "seed"),
    "wcubic_closed_form.n": (lambda v: wcubic_closed_form(1.0, v), 2, "n"),
    "GridSpec.order": (lambda v: GridSpec(np.zeros(4), order=v), 2, "order"),
    "constants.n": (lambda v: constants(v), 4, "n"),
    "gap_verdict_integral.n": (lambda v: gap_verdict_integral(0.1, 0.1, 16.0, v), 5, "n"),
    "integral_rigidity_d.n": (lambda v: bounds.integral_rigidity_d(0.1, 0.1, 16.0, v), 5, "n"),
}


@pytest.mark.parametrize("case", ["float", "bool", "below", "numpy"])
@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_are_refused_by_name(argument, case):
    """2.5, True, the int below the floor and a numpy integer below it (a uint8 one below a
    positive floor, an int8 -1 below a floor of 0) are each refused by one ValueError that
    names the argument, before any work."""
    call, low, name = INTEGER_ARGUMENTS[argument]
    value = {"float": 2.5, "bool": True, "below": low - 1,
             "numpy": np.uint8(low - 1) if low else np.int8(-1)}[case]
    refusal = (f"must be >= {low}" if case in ("below", "numpy")
               else f"must be an integer, got {value!r}")
    with pytest.raises(ValueError, match=f"^{name} {refusal}$"):
        call(value)


# ---------------------------------------------------------------- constants

def test_constants_s_n():
    assert constants(4).s_n == pytest.approx(1 / 6)
    assert constants(5).s_n == pytest.approx(3 / 16)
    assert constants(6).s_n == pytest.approx(0.2)


def test_constants_n6_double_root():
    tab = constants(6)
    assert tab.alpha == pytest.approx(0.6, abs=1e-12)
    assert tab.a1 == pytest.approx(6.0, rel=1e-12)
    assert tab.a2 == pytest.approx(1.2 * math.sqrt(5 / 6), rel=1e-12)
    A, B, C = quadratic_coefficients(6)
    assert abs(A * tab.alpha ** 2 + B * tab.alpha + C) <= 1e-10 * abs(C)


def test_constants_alpha_exceeds_lower_bound():
    for n in (6, 7, 8, 12, 50):
        tab = constants(n)
        assert tab.alpha > (n - 3) / (2 * (n - 1))
        A, B, C = quadratic_coefficients(n)
        assert abs(A * tab.alpha ** 2 + B * tab.alpha + C) <= 1e-10 * abs(C)


def test_constants_large_n_asymptotics():
    n = 10_000
    tab = constants(n)
    assert abs(tab.alpha / n - 0.25) < 0.005
    assert abs(tab.a1 / n - 1.25) < 0.025
    assert abs(tab.a2 / n - 0.25) < 0.005
    assert 1.225 <= tab.a1 / n <= 1.275


def test_constants_case5():
    # dimension five runs the general formula at alpha = 1/2, bit for bit the
    # coefficients (8/sqrt10, 2/sqrt5) against 3/16
    tab = constants(5)
    assert tab.alpha == 0.5
    assert tab.c_n == 8 / math.sqrt(10)
    assert tab.a1 == 8 / math.sqrt(10)
    assert tab.a2 == 2 / math.sqrt(5)
    assert tab.s_n == 3 / 16
    assert set(tab.as_dict()) == {"n", "s_n", "alpha", "a1", "a2", "c_n"}


def test_constants_n4_alpha_fields_absent():
    tab = constants(4)
    assert tab.alpha is None and tab.a1 is None and tab.a2 is None and tab.c_n is None
    with pytest.raises(ValueError):
        constants(3)


# ----------------------------------------------------------------- verdicts

def test_pointwise_verdict_trivial():
    W = CurvatureTensor(5, np.zeros((10, 10)))
    v = pinch_verdict_pointwise(W, np.zeros((5, 5)), S=5.0)
    assert v.satisfied and v.condition_value == 0.0 and v.threshold == 1.0


def test_pointwise_verdict_model_s3xs2():
    pkg = model_curvature(parse_model_spec("product:sphere:3:1.0,sphere:2:1.0"))
    dec = decompose(pkg.R)
    v = pinch_verdict_pointwise(dec.weyl, dec.E, pkg.S)
    assert v.which == "pointwise"
    assert v.details["signed_variant"] is True
    # omega = 1 (the isolated 2-sphere plane), ell = 3/5, S/n = 8/5
    assert v.condition_value == pytest.approx(8 / 3 * 1.0 + 0.6, rel=1e-12)
    assert not v.satisfied


def test_pointwise_verdict_space_form():
    pkg = model_curvature(parse_model_spec("sphere:6:1.0"))
    dec = decompose(pkg.R)
    v = pinch_verdict_pointwise(dec.weyl, dec.E, pkg.S)
    assert v.condition_value == pytest.approx(0.0, abs=1e-10)
    assert v.threshold == pytest.approx(5.0)
    assert v.satisfied


def test_pointwise_verdict_guards():
    with pytest.raises(ValueError):
        pinch_verdict_pointwise(random_weyl(rng, 4), np.zeros((4, 4)), 1.0)


@pytest.mark.parametrize("verdict", [pinch_verdict_pointwise, pinch_verdict_norm])
def test_pinch_verdicts_share_the_input_guard(verdict):
    with pytest.raises(ValueError, match="trace-free"):
        verdict(random_curvature(rng, 5), np.zeros((5, 5)), 100.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        verdict(random_weyl(rng, 5), np.zeros((3, 3)), 100.0)


def test_norm_verdict_borderline_and_violation():
    n = 5
    W = random_weyl(rng, n)
    w_norm = float(np.linalg.norm(W.mat))
    c5 = 8 / math.sqrt(10)
    S = n * c5 * w_norm
    v = pinch_verdict_norm(W, np.zeros((n, n)), S)
    assert v.satisfied  # borderline counts as satisfied
    E = random_traceless_symmetric(rng, 6)
    W6 = random_weyl(rng, 6)
    S6 = 6 * (5.0 * float(np.linalg.norm(W6.mat))) * 0.5  # half of what is needed
    v6 = pinch_verdict_norm(W6, E, S6)
    assert not v6.satisfied


@pytest.mark.parametrize("n", [5, 6, 8])
def test_pinch_verdicts_refuse_a_traced_e(n):
    """Both verdicts take E through the one traceless guard."""
    W = random_weyl(rng, n)
    for verdict in (pinch_verdict_pointwise, pinch_verdict_norm):
        with pytest.raises(ValueError, match="E must be traceless"):
            verdict(W, 0.1 * np.eye(n), 50.0)
        verdict(W, 0.1 * random_traceless_symmetric(rng, n), 50.0)


def test_dim4_verdict_borderline_product():
    v = pinch_verdict_dim4(2 / 3, 4.0)
    assert v.which == "dim4_selfdual"
    assert v.condition_value == pytest.approx(4.0, rel=1e-12)
    assert v.satisfied


def test_dim4_verdict_arithmetic():
    assert pinch_verdict_dim4(0.0, 1.0).satisfied
    assert not pinch_verdict_dim4(1.0, 5.0).satisfied


def test_gap_verdict_trivial_and_borderline():
    v = gap_verdict_integral(0.0, 0.0, 1.0, 6)
    assert v.satisfied and v.which == "integral"
    tab = constants(6)
    border = tab.s_n * 1.0 / tab.a1
    v2 = gap_verdict_integral(border, 0.0, 1.0, 6)
    assert not v2.satisfied  # the borderline forces nothing
    v3 = gap_verdict_integral(border * 0.999, 0.0, 1.0, 6)
    assert v3.satisfied


def test_gap_verdict_case5_arithmetic():
    v = gap_verdict_integral(0.1, 0.1, 16.0, 5)
    assert v.which == "integral"
    expect = 0.8 / math.sqrt(10) + 0.2 / math.sqrt(5)
    assert v.condition_value == pytest.approx(expect, rel=1e-12)
    assert v.threshold == pytest.approx(3.0)
    assert v.satisfied
    assert v.details == {"a1": 8 / math.sqrt(10), "a2": 2 / math.sqrt(5), "s_n": 3 / 16}


def test_gap_verdict_guards():
    with pytest.raises(ValueError):
        gap_verdict_integral(0.1, 0.1, -1.0, 6)
    with pytest.raises(ValueError):
        gap_verdict_integral(0.1, 0.1, 1.0, 4)


def test_integral_rigidity_d_consistency():
    from weylbench.bounds import integral_rigidity_d, table_c
    d = integral_rigidity_d(0.3, 0.2, 2.0, 6)
    expect = (2 * table_c(6) * 0.3 + 2 * math.sqrt(5 / 6) * 0.2) / 2.0
    assert d == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        integral_rigidity_d(0.1, 0.1, 0.0, 6)


@pytest.mark.parametrize("args, message", [
    ((-1.0, 0.5, 2.0, 6), "norms must be nonnegative"),
    ((0.5, -1e-300, 2.0, 6), "norms must be nonnegative"),
    ((0.1, 0.1, -1.0, 6), "Yamabe invariant input must be positive"),
    ((0.1, 0.1, 1.0, 4), "n must be >= 5"),
    ((math.nan, 0.1, 1.0, 6), "finite"),
])
def test_integral_rigidity_d_and_the_gap_verdict_share_one_guard(args, message):
    """integral_rigidity_d refuses what gap_verdict_integral refuses, with its message
    (a negative norm once gave d = -4.54)."""
    from weylbench.bounds import integral_rigidity_d

    for integral in (integral_rigidity_d, gap_verdict_integral):
        with pytest.raises(ValueError, match=message):
            integral(*args)


@pytest.mark.parametrize("n", [10 ** 60, 10 ** 310])
def test_constants_beyond_the_float_range_are_refused(n):
    """A dimension whose alpha overflows (10^60) or that is itself beyond the float range
    (10^310) is refused by name; a large finite one still gets its table."""
    with pytest.raises(ValueError, match=f"n = {n} overflow"):
        constants(n)
    assert constants(10 ** 6).alpha > 0


def test_verdict_refuses_a_non_finite_condition_or_threshold():
    from weylbench.bounds import PinchVerdict

    for value, threshold in ((math.inf, 1.0), (0.0, math.nan), (-math.inf, math.inf)):
        with pytest.raises(ValueError, match="norm verdict overflows"):
            PinchVerdict(condition_value=value, threshold=threshold, satisfied=False,
                         which="norm")
    with pytest.raises(ValueError, match="dim4_selfdual verdict overflows"):
        pinch_verdict_dim4(1e308, 1e308)


# ------------------------------------------------------ non-finite inputs

def _weyl_with_nan(n):
    """A Weyl tensor with one NaN in a disjoint-pair entry; the Ricci trace stays finite."""
    from weylbench.basis import disjoint_pair_mask

    mat = random_weyl(rng, n).mat.copy()
    a, b = np.argwhere(disjoint_pair_mask(n))[0]
    mat[a, b] = mat[b, a] = np.nan
    return CurvatureTensor(n, mat)


def _nan_batch(monkeypatch):
    """Make the Weyl sampler put a NaN into the first pair matrix of every batch."""
    from weylbench import sampling

    original = sampling.random_weyl_batch

    def nan_batch(rng, n, count):
        mats = original(rng, n, count)
        mats[0, 0, 1] = mats[0, 1, 0] = np.nan
        return mats

    monkeypatch.setattr(sampling, "random_weyl_batch", nan_batch)


def test_audit_cubic_bounds_keeps_nan(monkeypatch):
    _nan_batch(monkeypatch)
    for n in (5, 6):
        worst = audit_cubic_bounds(n, 70, seed=0)
        assert math.isnan(worst["eig"]) and math.isnan(worst["norm"])
        assert math.isnan(worst["component"])


def test_weyl_bound_terms_keep_each_sample_beside_a_nan_one():
    """A non-finite pair matrix gets NaN terms; the other samples keep their bits."""
    mats = random_weyl_batch(np.random.default_rng(4), 6, 5)
    clean = weyl_bound_terms(6, mats)
    for value in (np.nan, np.inf):
        odd = mats.copy()
        odd[2, 0, 1] = odd[2, 1, 0] = value
        with np.errstate(invalid="ignore"):
            terms = weyl_bound_terms(6, odd)
        for key in ("omega", "omega_max", "eig_bound", "lhs"):
            assert np.isnan(terms[key][2])
            keep = [0, 1, 3, 4]
            assert terms[key][keep].tobytes() == clean[key][keep].tobytes()


def test_audit_eigen_bound_keeps_nan(monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) * np.nan)
    assert math.isnan(audit_eigen_bound(10, seed=0))


def test_audits_with_no_samples():
    assert audit_eigen_bound(0, seed=0) == -math.inf
    assert set(audit_cubic_bounds(5, 0, seed=0).values()) == {-math.inf}


def test_trace_free_guards_reject_nan():
    with pytest.raises(ValueError):
        cubic_bound_eval(_weyl_with_nan(5))
    with pytest.raises(ValueError):
        berger_component_bound(_weyl_with_nan(6))
    with pytest.raises(ValueError):
        spectral_extremes(_weyl_with_nan(5), np.zeros((5, 5)))
    with pytest.raises(ValueError):
        eigen_bound(np.array([[0.0, np.nan], [np.nan, 0.0]]))


@pytest.mark.parametrize("bad", [(math.nan, 0.1, 16.0), (0.1, math.inf, 16.0),
                                 (0.1, 0.1, math.nan), (0.1, 0.1, math.inf)])
def test_gap_verdict_rejects_non_finite(bad):
    for n in (5, 6):
        with pytest.raises(ValueError, match="finite"):
            gap_verdict_integral(*bad, n)


def test_guards_reject_nan_operator_built_without_validation():
    # containers refuse NaN now, so build the operator with the relaxed
    # constructor to reach each function's own trace-free guard
    from weylbench.basis import disjoint_pair_mask

    for n, call in ((5, cubic_bound_eval), (6, berger_component_bound),
                    (5, lambda W: spectral_extremes(W, np.zeros((5, 5))))):
        mat = random_weyl(rng, n).mat.copy()
        a, b = np.argwhere(disjoint_pair_mask(n))[0]
        mat[a, b] = mat[b, a] = np.nan  # the Ricci contraction stays finite
        with pytest.raises(ValueError, match="trace-free"):
            call(Operator2Form(n, mat, require_self_adjoint=False))


@pytest.mark.parametrize("S", [math.nan, math.inf, -math.inf])
def test_pinch_verdicts_reject_non_finite_scalar(S):
    W = random_weyl(rng, 5)
    for verdict in (pinch_verdict_pointwise, pinch_verdict_norm):
        with pytest.raises(ValueError, match="finite"):
            verdict(W, np.zeros((5, 5)), S)


@pytest.mark.parametrize("bad", [(math.nan, 0.1, 2.0), (0.1, math.inf, 2.0),
                                 (0.1, 0.1, math.nan), (0.1, 0.1, math.inf)])
def test_integral_rigidity_d_rejects_non_finite(bad):
    from weylbench.bounds import integral_rigidity_d

    with pytest.raises(ValueError, match="finite"):
        integral_rigidity_d(*bad, 6)
