"""Summary statistics and confidence intervals.

Figures 9 and 10 in the paper report average download times over at least 10
runs with 95% confidence interval error bars.  The helpers here compute the
mean, variance and a Student-t confidence interval for a sample, packaged in
a small dataclass the experiment drivers can print directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "SummaryStats",
    "summarize",
    "confidence_interval",
    "mean_confidence_interval",
]


@dataclass(frozen=True)
class SummaryStats:
    """Summary of a numeric sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def ci_half_width(self) -> float:
        """Half-width of the confidence interval (the error-bar length)."""
        return (self.ci_high - self.ci_low) / 2.0


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Student-t confidence interval for the mean of ``values``.

    For a single observation (or zero sample variance) the interval collapses
    to the point estimate.
    """
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("confidence_interval requires at least one observation")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(data.mean())
    if data.size == 1:
        return mean, mean
    sem = float(data.std(ddof=1)) / float(np.sqrt(data.size))
    if sem == 0.0:
        return mean, mean
    # Imported here, not at module level: scipy takes ~1 s to import and
    # only the Student-t quantile needs it.
    from scipy import stats as scipy_stats

    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=data.size - 1))
    half = t_crit * sem
    return mean - half, mean + half


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """Return ``(mean, ci_low, ci_high)`` for ``values``."""
    data = np.asarray(values, dtype=float)
    low, high = confidence_interval(data, confidence)
    return float(data.mean()), low, high


def summarize(values: Sequence[float], confidence: float = 0.95) -> SummaryStats:
    """Return a :class:`SummaryStats` for ``values``."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("summarize requires at least one observation")
    low, high = confidence_interval(data, confidence)
    std = float(data.std(ddof=1)) if data.size > 1 else 0.0
    return SummaryStats(
        count=int(data.size),
        mean=float(data.mean()),
        std=std,
        minimum=float(data.min()),
        maximum=float(data.max()),
        ci_low=low,
        ci_high=high,
        confidence=confidence,
    )
