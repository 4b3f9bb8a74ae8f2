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
