"""Worst-case bookkeeping of the identity suite report."""

import math

import numpy as np
import pytest

from weylbench.suite import SuiteReport, _run_dimension, run_identity_suite


def report():
    return SuiteReport(seed=0, trials=1, dimensions=(4,), tolerance=1e-10)


def test_record_keeps_the_maximum():
    rep = report()
    for k, v in enumerate((1e-13, -3e-12, 2e-12)):
        rep.record("x", v, (4, k))
    assert rep.residuals["x"] == 3e-12
    assert type(rep.residuals["x"]) is float and rep.worst["x"] == (4, 1)
    assert rep.passed and rep.failures() == {}


def test_nan_after_a_value_fails():
    rep = report()
    rep.record("x", 1e-12, (4, 0))
    rep.record("x", math.nan, (4, 1))
    rep.record("x", 1e-13, (4, 2))
    assert math.isnan(rep.residuals["x"]) and rep.worst["x"] == (4, 1)
    assert not rep.passed
    assert list(rep.failures()) == ["x"]


def test_nan_first_fails():
    rep = report()
    rep.record("x", math.nan, (4, 0))
    rep.record("x", 5e-11, (4, 1))
    rep.record("y", 1e-12, (4, 0))
    assert not rep.passed
    assert list(rep.failures()) == ["x"]


def test_run_dimension_takes_one_tuple():
    residuals, stats, worst = _run_dimension((4, 1, 0, 1e-10))
    assert residuals and all(np.isfinite(v) for v in residuals.values())
    assert "sharp_cubic_n4" in residuals and stats == {}
    assert worst == {key: (4, 0) for key in residuals}


def test_negative_trials_are_refused():
    with pytest.raises(ValueError, match="trials must be >= 0"):
        run_identity_suite(dimensions=(4,), trials=-1)
    assert run_identity_suite(dimensions=(4,), trials=0).residuals == {}


@pytest.mark.parametrize("workers", [0, -2])
def test_nonpositive_workers_are_refused(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_identity_suite(dimensions=(4, 5), trials=1, workers=workers)


def test_fold_keeps_the_first_nan_the_first_maximum_and_the_key_order():
    """Several keys folded at once: a NaN after the maximum is the provenance and is never
    replaced, a tie keeps its first maximum (within a fold and against an earlier one), a key
    raised in a later fold moves its provenance there, and new keys enter in the order given.
    Folding the keys one at a time with ``record`` gives the same report."""
    nan = math.nan
    folds = [({"tie": [2.0, -2.0, 1.0, 2.0], "nan_late": [1.0, -7.0, nan, nan],
               "later": [0.1, 0.2, 0.2, 0.0]}, (4, 0)),
             ({"fresh": [3.0, 1.0, 3.0, 0.0], "later": [0.0, 0.5, -0.5, 0.1],
               "nan_late": [9.0, 1.0, 1.0, 1.0], "tie": [2.0, 0.0, 0.0, 0.0]}, (4, 4))]
    rep, one_at_a_time = report(), report()
    for families, where in folds:
        rep.fold(families, where)
        for name, values in families.items():
            one_at_a_time.record(name, np.array(values), where)
    assert list(rep.residuals) == ["tie", "nan_late", "later", "fresh"]
    assert list(rep.worst.items()) == [("tie", (4, 0)), ("nan_late", (4, 2)),
                                       ("later", (4, 5)), ("fresh", (4, 4))]
    assert math.isnan(rep.residuals["nan_late"])
    assert [rep.residuals[k] for k in ("tie", "later", "fresh")] == [2.0, 0.5, 3.0]
    assert list(one_at_a_time.worst.items()) == list(rep.worst.items())
    assert list(one_at_a_time.residuals) == list(rep.residuals)


@pytest.mark.parametrize("kwargs, name", [
    ({"trials": "2"}, "trials"), ({"trials": 2.0}, "trials"),
    ({"trials": np.float64(2.0)}, "trials"), ({"trials": np.True_}, "trials"),
    ({"dimensions": ("4",)}, "identity suite: dimension n"),
    ({"dimensions": (4, 5.0)}, "identity suite: dimension n"),
    ({"dimensions": (np.True_,)}, "identity suite: dimension n")])
def test_non_integer_suite_arguments_are_refused(kwargs, name):
    """Strings, integral-valued floats and numpy bools, which the integer-argument table of
    tests/test_bounds.py does not draw."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        run_identity_suite(**{"dimensions": (4,), "trials": 1, **kwargs})


def test_numpy_integer_suite_arguments_are_plain_ints():
    """numpy integers run as the ints they hold (a uint8 n would wrap in n ** 5 and in the
    pair-matrix budget check)."""
    rep = run_identity_suite(dimensions=(np.uint8(5), np.int64(4)), trials=np.int32(2), seed=1)
    ref = run_identity_suite(dimensions=(5, 4), trials=2, seed=1)
    assert type(rep.trials) is int and rep.dimensions == (5, 4)
    assert all(type(n) is int for n in rep.dimensions)
    assert (rep.residuals, rep.stats, rep.worst) == (ref.residuals, ref.stats, ref.worst)
