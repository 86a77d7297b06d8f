import pytest

from kcmkit.stats import wilson_ci


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
