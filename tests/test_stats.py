import math

import numpy as np
import pytest

from kcmkit.stats import median, wilson_ci


@pytest.mark.parametrize("n", [1, 7, 100, 300, 500, 2000])
def test_wilson_zero_successes_starts_at_zero(n):
    lo, hi = wilson_ci(0, n)
    assert lo == 0.0
    assert 0.0 < hi < 1.0


@pytest.mark.parametrize("n", [1, 7, 100, 300, 500, 2000])
def test_wilson_full_successes_ends_at_one(n):
    lo, hi = wilson_ci(n, n)
    assert hi == 1.0
    assert 0.0 < lo < 1.0


def test_wilson_interior_contains_estimate_and_mirrors():
    lo, hi = wilson_ci(30, 100)
    assert 0.0 < lo < 0.3 < hi < 1.0
    mlo, mhi = wilson_ci(70, 100)
    assert mlo == pytest.approx(1.0 - hi, abs=1e-15)
    assert mhi == pytest.approx(1.0 - lo, abs=1e-15)


def test_wilson_rejects_bad_counts():
    with pytest.raises(ValueError):
        wilson_ci(0, 0)
    with pytest.raises(ValueError):
        wilson_ci(5, 4)


@pytest.mark.parametrize("count", [1, 2, 5, 6, 99, 100])
@pytest.mark.parametrize("scale", [1e-300, 1e-8, 1.0, 1e8, 1e300])
def test_median_has_np_median_bytes(count, scale):
    # np.median imports numpy.ma on its first call; the replacement must
    # give the same float, down to the last bit
    gen = np.random.default_rng(count)
    for _ in range(20):
        x = gen.standard_normal(count) * scale
        assert repr(median(x)) == repr(float(np.median(x)))
        assert repr(median(list(x))) == repr(float(np.median(x)))


@pytest.mark.parametrize("values", [
    [math.inf], [1.0, math.inf], [-math.inf, math.inf], [math.inf] * 2,
    [-math.inf, 0.0, 2.0], [1.0, math.nan], [math.nan], [math.nan, math.inf],
    [3.0, -1.0, math.nan, 2.0], [0.0, -0.0], [-0.0, -0.0],
    [1.7976931348623157e308, 1.7976931348623157e308],
    [5e-324, 5e-324, 0.0], [0.1, 0.2]])
def test_median_special_values_match_np_median(values):
    with np.errstate(all="ignore"):
        want = float(np.median(values))
    assert repr(median(values)) == repr(want)


def test_median_does_not_reorder_its_input():
    x = np.array([3.0, 1.0, 2.0])
    assert median(x) == 2.0
    assert x.tolist() == [3.0, 1.0, 2.0]
