import math

import pytest

from catalog import COMPUTED, END_TO_END, PER_LAYER, UNITS
from measure import Ops, check_metric_name, error_digits, median, min_samples, percentile


def test_percentile_needs_ten_samples_beyond():
    assert min_samples(0.5) == 20
    assert min_samples(0.9) == 100
    with pytest.raises(ValueError):
        percentile(list(range(99)), 0.9)
    with pytest.raises(ValueError):
        percentile(list(range(200)), 0.1)
    samples = list(range(1, 101))
    p90 = percentile(samples, 0.9)
    assert p90 == 90
    assert sum(1 for s in samples if s > p90) == 10
    assert percentile(samples[::-1], 0.5) == 50


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        median([])


@pytest.mark.parametrize("name", ["setup_s", "apply_rhs_per_s.nrhs16", "kernels.eval_block.s",
                                  "a-b_c.9"])
def test_metric_name_accepted(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "ms%", "x" * 65, None])
def test_metric_name_rejected(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_catalog_names_valid_and_unique():
    names = END_TO_END + PER_LAYER
    for n in names:
        check_metric_name(n)
    assert len(names) == len(set(names)) == len(UNITS)
    assert COMPUTED <= set(PER_LAYER)


@pytest.mark.parametrize("err, digits", [(1e-6, 6.0), (1e-30, 17.0), (1.0, 0.0), (5.0, 0.0),
                                         (math.inf, 0.0), (math.nan, 0.0)])
def test_error_digits_stays_finite(err, digits):
    assert error_digits(err) == pytest.approx(digits)


def test_ops_counts_exceptions_and_failed_checks():
    ops = Ops()
    assert ops.run("ok", lambda: 1) == (True, 1)
    ok, _ = ops.run("boom", lambda: 1 / 0)
    assert not ok and ops.correct          # an exception returns no wrong answer
    ops.check("bad", False, "wrong")
    assert (ops.attempted, ops.failed, ops.correct) == (2, 2, False)
