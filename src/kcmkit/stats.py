"""Small statistics helpers shared across modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


Z95 = 1.959963984540054   # two-sided 95% quantile of the standard normal


@dataclass(frozen=True)
class ScanEstimate:
    """A Monte Carlo estimate with its 95% confidence interval.

    `censored` marks a search that hit its cap before resolving.
    """

    value: float
    ci: tuple[float, float]
    censored: bool = False

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.ci[1] - self.ci[0])


def wilson_ci(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion.

    The interval reaches 0 exactly at zero successes and 1 exactly at full
    successes, where the closed form only gets there up to rounding.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (Z95 / denom) * math.sqrt(phat * (1 - phat) / trials
                                     + z2 / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def median(values) -> float:
    """Sample median with np.median's arithmetic, so with its bytes: the
    middle value, or (x[m-1] + x[m]) / 2 for an even count, of the sorted
    values; NaN when a value is NaN or there are none. np.median averages
    by a sum that starts at +0.0, so a median of -0.0 reads 0.0 here too.
    Unlike np.median, it does not import numpy.ma (15-18 ms on first use)."""
    x = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if x.size == 0 or math.isnan(x[-1]):
        return math.nan
    m = x.size // 2
    if x.size % 2:
        return 0.0 + float(x[m])
    return (0.0 + float(x[m - 1]) + float(x[m])) / 2
