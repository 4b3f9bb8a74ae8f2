"""The batched identity suite: samples, chunk independence, guards and provenance."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from weylbench import basis, sampling, suite
from weylbench.algebra import circ_prime_full, kn_four, second_bianchi_full, weyl_parts
from weylbench.basis import four_tensor_to_pair_matrix, pair_matrix_to_four_tensor
from weylbench.sampling import (
    curvature_derivative_from_uniform,
    curvature_derivative_pairs_from_uniform,
    curvature_from_uniform,
    pure_from_uniform,
    random_curvature,
    random_curvature_derivative_full,
    random_symmetric,
    random_weyl,
    random_weyl_batch,
    symmetrized,
    two_form_one_form_from_uniform,
    uniform,
)
from weylbench.suite import run_identity_suite
from weylbench.tensors import max_abs

from reference import cyclic_average, full5_to_triple_pair

DIMENSIONS = (4, 5, 6, 7, 8)

IDENTITY_FAMILIES = (
    "selfadjoint", "weyl_ricci_free", "weyl_bianchi_free", "pythagoras",
    "rc_quadratic_weyl", "rc_quadratic_contraction", "tri_symmetry",
    "productw_orth", "productw_diag", "productw_sharp", "productw_reindex",
    "circ_prime_norm", "bianchi_rc_part", "bianchi_s_part", "bianchi_weyl_part",
    "sectional_split", "ricci_cubed", "ricci_curvature_form", "pure_cubic_identity",
)

ALL_KEYS = sorted([f"{family}_n{n}" for family in IDENTITY_FAMILIES + ("u_norm", "u_cubic")
                   for n in DIMENSIONS] + ["sharp_cubic_n4", "sharp_cubic_n5"])


def test_residual_keys_are_the_107_of_the_suite():
    rep = run_identity_suite(trials=1, seed=2)
    assert len(ALL_KEYS) == 107
    assert sorted(rep.residuals) == ALL_KEYS
    assert sorted(rep.worst) == ALL_KEYS
    assert sorted(rep.stats) == [f"sharp_cubic_deviation_n{n}" for n in (6, 7, 8)]


@pytest.mark.parametrize("n", DIMENSIONS)
def test_stacked_draws_are_the_per_trial_samplers_samples(n):
    """A chunk's samples equal, bit for bit, those of the per-trial samplers
    called in the suite's order on the same stream."""
    count = 3
    rng = np.random.default_rng([5, n])
    mR, mk, a, mA, mC, v, mD, subset, mw = suite._identity_draws(rng, n, count)
    weyl_mats = random_weyl_batch(rng, n, 2)
    ref = np.random.default_rng([5, n])
    for b in range(count):
        assert np.array_equal(curvature_from_uniform(n, mR)[b], random_curvature(ref, n).mat)
        assert np.array_equal(symmetrized(mk)[b], random_symmetric(ref, n))
        assert np.array_equal(a[b], ref.uniform(-1.0, 1.0, size=n))
        assert np.array_equal(two_form_one_form_from_uniform(mA)[b],
                              two_form_one_form_from_uniform(uniform(ref, n, n, n)))
        assert np.array_equal(symmetrized(mC)[b], symmetrized(uniform(ref, n, n, n)))
        assert np.array_equal(v[b], ref.uniform(-1.0, 1.0, size=n))
        assert np.array_equal(mD[b], four_tensor_to_pair_matrix(
            n, random_curvature_derivative_full(ref, n)))
        size = ref.integers(1, n)
        assert np.array_equal(np.flatnonzero(subset[b]), np.sort(ref.permutation(n)[:size]))
        assert np.array_equal(pure_from_uniform(mw)[b], pure_from_uniform(uniform(ref, n, n)))
    for b in range(2):
        W = random_weyl(ref, n)
        assert np.array_equal(weyl_mats[b], W.mat)
    assert rng.uniform() == ref.uniform()


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("lead", [(), (1,), (2,), (3,)])
def test_derivative_draws_map_straight_to_the_pair_matrices(n, lead):
    """The derivative pair map is the five-index draw map read into pair matrices, bit
    for bit, for one trial and for stacks of 1, 2 and 3."""
    s = np.random.default_rng([17, n, len(lead)]).uniform(-1.0, 1.0, size=lead + (n,) * 5)
    expect = four_tensor_to_pair_matrix(n, curvature_derivative_from_uniform(s))
    got = curvature_derivative_pairs_from_uniform(s)
    assert got.shape == expect.shape == lead + (n,) + (n * (n - 1) // 2,) * 2
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("n", DIMENSIONS)
def test_bianchi_families_are_the_full_kernels_at_the_components(n):
    """Each second-Bianchi family is, bit for bit, the relative max over the (triple,
    pair) components of its five-index residual, formed by the full kernels: on
    kn_four and the n^5 scalar image for the rc and s parts, and on the expansion of
    the Weyl parts' pair matrices for the Weyl part."""
    mC, v, D = suite._identity_draws(np.random.default_rng([11, n]), n, 3)[4:7]
    g = np.eye(n)

    def family(bianchi, circ, scale):
        return suite._rel(max_abs(full5_to_triple_pair(n, bianchi - circ), 1), scale)

    C = symmetrized(mC)
    P = C - np.swapaxes(C, -3, -2)
    rc = family(second_bianchi_full(kn_four(C, g)), circ_prime_full(P), max_abs(P, 1))
    Qf = np.einsum('ki,...j->...ijk', g, v) - np.einsum('kj,...i->...ijk', g, v)
    D_s = np.einsum('...m,abcd->...mabcd', v, kn_four(g, g))
    s = family(second_bianchi_full(D_s), -circ_prime_full(Qf), max_abs(Qf, 1))
    W = pair_matrix_to_four_tensor(n, weyl_parts(n, D).W)
    bw = second_bianchi_full(W)
    weyl = family(bw, circ_prime_full(np.einsum('...mabcm->...abc', W)) / (n - 3),
                  max_abs(full5_to_triple_pair(n, bw), 1))
    got = suite._second_bianchi_residuals(n, mC, v, D)
    for value, expect in zip(got, (rc, s, weyl)):
        assert value.tobytes() == expect.tobytes()
    assert not s.any()


#: traced peak of a warm n = 8 suite of two trials: 1.217 MB measured with the derivative
#: draws mapped to pair matrices group by group and the product families' tables freed before
#: the second-Bianchi families run (2.62 MB when a chunk held its (B, n^5) draw stack to the
#: end and every family's tables at once); the gate leaves a 23% margin
SUITE_PEAK_BYTES = 1.5e6


def test_identity_suite_peak_memory_is_bounded():
    """run_identity_suite((8,), 2, seed=0) (caches warm) stays under SUITE_PEAK_BYTES of
    tracemalloc's peak."""
    run_identity_suite((8,), 2, seed=0)
    tracemalloc.start()
    try:
        run_identity_suite((8,), 2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SUITE_PEAK_BYTES


#: profiler call and c_call events of a warm run_identity_suite((n,), 2, seed=0), counted
#: with sys.setprofile: 1,591 at n = 4 and 1,714 at n = 8 with the draws written in place,
#: one curvature guard for R and its parts, one tail Weyl stream and one fold per chunk
#: (2,313 and 2,528 before).  Python 3.11.7 and numpy 2.4.6: numpy's Python wrappers enter
#: the count, so another version moves it.  The gates leave a 10% margin (9.7% at n = 8).
SUITE_DISPATCH_EVENTS = {4: 1750, 8: 1880}


@pytest.mark.parametrize("n", sorted(SUITE_DISPATCH_EVENTS))
def test_identity_suite_dispatch_is_bounded(n):
    """The Python and C calls of a warm two-trial suite stay under SUITE_DISPATCH_EVENTS:
    a count, not a time, so the gate does not depend on the host's speed."""
    run_identity_suite((n,), 2, seed=0)
    events = [0]

    def count(frame, event, arg):
        events[0] += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        run_identity_suite((n,), 2, seed=0)
    finally:
        sys.setprofile(None)
    assert events[0] < SUITE_DISPATCH_EVENTS[n]


def test_results_do_not_depend_on_the_chunk_size(monkeypatch):
    """One trial a chunk (CHUNK_ENTRIES = 1), one chunk a dimension (2**40) and the
    default chunks give the same residuals, stats and provenance at every n, in the same
    key order.  At n = 4 and 60 trials the 66 tail samples (60 sharp-cubic, 6 u-tensor)
    run by default in two chunks of 33, the second holding samples of both."""
    assert list(basis._chunks(60 + 6, 4 ** 5)) == [(0, 33), (33, 33)]
    for dimensions, trials in ((DIMENSIONS, 5), ((4,), 60)):
        monkeypatch.undo()
        reports = [run_identity_suite(dimensions=dimensions, trials=trials, seed=13)]
        for entries in (1, 2 ** 40):
            monkeypatch.setattr(basis, "CHUNK_ENTRIES", entries)
            reports.append(run_identity_suite(dimensions=dimensions, trials=trials, seed=13))
        default = reports[0]
        for rep in reports[1:]:
            for table in ("residuals", "stats", "worst"):  # key order included
                assert list(getattr(rep, table).items()) == list(getattr(default, table).items())


@pytest.mark.parametrize("n", DIMENSIONS)
def test_chunks_split_the_trials_evenly_within_the_entry_budget(n, monkeypatch):
    cap = max(1, basis.CHUNK_ENTRIES // n ** 5)
    assert cap == {4: 64, 5: 20, 6: 8, 7: 3, 8: 2}[n]
    for total in (1, 2, 3, 9, 10, 37, 100, 1000):
        firsts, sizes = zip(*basis._chunks(total, n ** 5))
        assert firsts == tuple(np.cumsum((0,) + sizes[:-1])) and sum(sizes) == total
        assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1
        assert len(sizes) == -(-total // cap)  # the fewest chunks the budget allows
    assert list(basis._chunks(0, n ** 5)) == []
    assert list(basis._chunks(2, n ** 5)) == [(0, 2)]  # trials = 2: one chunk a dimension
    monkeypatch.setattr(basis, "CHUNK_ENTRIES", 1)
    assert list(basis._chunks(3, n ** 5)) == [(0, 1), (1, 1), (2, 1)]
    monkeypatch.setattr(basis, "CHUNK_ENTRIES", 2 ** 40)
    assert list(basis._chunks(1000, n ** 5)) == [(0, 1000)]


def test_worst_residual_replays_from_its_trial_index():
    """For a key whose worst trial is k, trials = k + 1 reproduces the residual bit
    for bit, and trials = k stays below it."""
    seed, trials = 3, 8
    rep = run_identity_suite(dimensions=(4, 5), trials=trials, seed=seed)
    keys = [key for key in rep.residuals if key.rsplit("_n", 1)[0] in IDENTITY_FAMILIES
            and rep.worst[key][1] >= 1]
    assert len(keys) >= 10
    for key in keys[:10]:
        n, k = rep.worst[key]
        assert key.endswith(f"_n{n}") and 1 <= k < trials
        assert run_identity_suite(dimensions=(n,), trials=k + 1, seed=seed).residuals[key] \
            == rep.residuals[key]
        assert run_identity_suite(dimensions=(n,), trials=k, seed=seed).residuals[key] \
            < rep.residuals[key]


GOLDEN = json.loads((Path(__file__).parent / "data" / "identity_suite_seed3_trials2.json")
                    .read_text(encoding="utf-8"))
MOVED_FAMILIES = ("productw_reindex", "u_norm", "u_cubic", "bianchi_weyl_part", "productw_diag",
                  "rc_quadratic_contraction", "ricci_curvature_form")


def test_residuals_keep_their_golden_bits():
    """Every residual and stat of trials=2, seed=3 against its committed float.hex.
    Only the seven families whose formulation changed differ from the earlier
    values (kept under moved_from)."""
    rep = run_identity_suite(trials=2, seed=3)
    assert {k: v.hex() for k, v in rep.residuals.items()} == GOLDEN["residuals"]
    assert {k: v.hex() for k, v in rep.stats.items()} == GOLDEN["stats"]
    assert sorted(GOLDEN["moved_from"]) == sorted(
        f"{family}_n{n}" for family in MOVED_FAMILIES for n in DIMENSIONS)


def test_a_repeated_dimension_merges_to_the_single_report():
    once = run_identity_suite(dimensions=(4,), trials=3)
    twice = run_identity_suite(dimensions=(4, 4), trials=3)
    assert (twice.residuals, twice.stats, twice.worst) == (once.residuals, once.stats, once.worst)


def test_worker_count_keeps_the_provenance():
    """``workers`` does not move the report: it is checked and otherwise unused."""
    serial = run_identity_suite(dimensions=(4, 6, 5), trials=3, seed=1)
    two = run_identity_suite(dimensions=(4, 6, 5), trials=3, seed=1, workers=2)
    for table in ("residuals", "stats", "worst"):  # key order included
        assert list(getattr(two, table).items()) == list(getattr(serial, table).items())


def test_suite_runs_from_a_script_on_stdin():
    """A ``python -`` script that asks for two workers exits at once with the in-process
    residuals: nothing re-imports its ``<stdin>`` main module in a child process."""
    script = ("import json\nfrom weylbench.suite import run_identity_suite\n"
              "rep = run_identity_suite(dimensions=(4, 5), trials=2, workers=2)\n"
              "print(json.dumps(rep.residuals))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-"], input=script, capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    in_process = run_identity_suite(dimensions=(4, 5), trials=2)
    assert proc.stdout == json.dumps(in_process.residuals) + "\n"


def test_guard_raises_on_a_bianchi_violating_curvature(monkeypatch):
    monkeypatch.setattr(suite, "curvature_from_uniform", lambda n, m: symmetrized(m))
    with pytest.raises(ValueError, match="first Bianchi identity violated"):
        run_identity_suite(dimensions=(5,), trials=3)


def test_guard_raises_on_a_weyl_part_that_is_not_trace_free(monkeypatch):
    real = suite.weyl_parts
    # the curvature's own split keeps W = R
    monkeypatch.setattr(suite, "weyl_parts", lambda n, R: real(n, R)._replace(W=R))
    with pytest.raises(ValueError, match="sectional split requires a trace-free"):
        run_identity_suite(dimensions=(5,), trials=3)


def test_guard_raises_on_a_u_tensor_sample_that_is_not_trace_free(monkeypatch):
    def curvature_pairs(n, m):
        four = pair_matrix_to_four_tensor(n, symmetrized(m))
        return four_tensor_to_pair_matrix(n, four - cyclic_average(four))

    monkeypatch.setattr(sampling, "weyl_matrix", curvature_pairs)
    with pytest.raises(ValueError, match="u-contraction requires a trace-free"):
        run_identity_suite(dimensions=(6,), trials=2)
