"""Statistics for honest benchmark reporting.

The paper's complaint is not that researchers report no statistics, but that
the statistics reported (a mean, sometimes a standard deviation) hide what is
actually going on: multi-modal latency distributions, order-of-magnitude
sensitivity to the working-set size, and results whose run-to-run variation
dwarfs the differences being claimed.  The functions here are the ones the
reporting layer uses to surface those effects:

* :func:`summarize` / :class:`SummaryStatistics` -- mean, spread, relative
  standard deviation (the right-hand axis of Figure 1), confidence intervals;
* :func:`confidence_interval` -- a Student-t interval for small repetition
  counts;
* :func:`fragility_index` -- how much a metric moves for a small change of a
  control parameter (the paper's "just a few megabytes" observation);
* :func:`dynamic_range` -- how far apart the best and worst values of a
  sweep lie;
* :func:`overlapping_confidence_intervals` -- honest comparison of two
  systems.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class SummaryStatistics:
    """Summary of a sample of repeated measurements."""

    n: int
    mean: float
    stddev: float
    minimum: float
    maximum: float
    median: float
    ci95_low: float
    ci95_high: float

    @property
    def relative_stddev_percent(self) -> float:
        """Standard deviation as a percentage of the mean (Figure 1's right axis)."""
        if self.mean == 0:
            return 0.0
        return 100.0 * self.stddev / abs(self.mean)

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of the 95% confidence interval."""
        return (self.ci95_high - self.ci95_low) / 2.0

    @property
    def relative_ci95_percent(self) -> float:
        """CI half-width as a percentage of the mean."""
        if self.mean == 0:
            return 0.0
        return 100.0 * self.ci95_halfwidth / abs(self.mean)

    def format(self, unit: str = "") -> str:
        """Readable one-line summary."""
        unit_suffix = f" {unit}" if unit else ""
        return (
            f"{self.mean:.1f}{unit_suffix} +/- {self.ci95_halfwidth:.1f} (95% CI), "
            f"sd={self.stddev:.1f} ({self.relative_stddev_percent:.1f}% of mean), "
            f"n={self.n}, range [{self.minimum:.1f}, {self.maximum:.1f}]"
        )


# Two-sided 97.5% quantiles of Student's t for small degrees of freedom.
_T_TABLE_975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145,
    15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    25: 2.060, 30: 2.042, 40: 2.021, 60: 2.000, 120: 1.980,
}


def _t_quantile_975(dof: int) -> float:
    """97.5% t quantile; uses scipy when available, else a lookup table."""
    if dof <= 0:
        return float("nan")
    try:
        from scipy import stats as scipy_stats

        return float(scipy_stats.t.ppf(0.975, dof))
    except Exception:  # pragma: no cover - scipy is normally available
        keys = sorted(_T_TABLE_975)
        for key in keys:
            if dof <= key:
                return _T_TABLE_975[key]
        return 1.96


def summarize(values: Sequence[float]) -> SummaryStatistics:
    """Compute :class:`SummaryStatistics` for a sample (requires >= 1 value)."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    data = [float(v) for v in values]
    n = len(data)
    mean = statistics.fmean(data)
    stddev = statistics.stdev(data) if n > 1 else 0.0
    low, high = confidence_interval(data)
    return SummaryStatistics(
        n=n,
        mean=mean,
        stddev=stddev,
        minimum=min(data),
        maximum=max(data),
        median=statistics.median(data),
        ci95_low=low,
        ci95_high=high,
    )


def confidence_interval(values: Sequence[float], confidence: float = 0.95) -> Tuple[float, float]:
    """Student-t confidence interval for the mean of ``values``.

    With a single sample the interval collapses to the point estimate.
    """
    if not values:
        raise ValueError("cannot compute a confidence interval of an empty sample")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    data = [float(v) for v in values]
    n = len(data)
    mean = statistics.fmean(data)
    if n == 1:
        return (mean, mean)
    stddev = statistics.stdev(data)
    if confidence == 0.95:
        t = _t_quantile_975(n - 1)
    else:
        try:
            from scipy import stats as scipy_stats

            t = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, n - 1))
        except Exception:  # pragma: no cover
            t = _t_quantile_975(n - 1)
    half = t * stddev / math.sqrt(n)
    return (mean - half, mean + half)


def _percentile(sorted_values: Sequence[float], p: float) -> float:
    if not sorted_values:
        raise ValueError("empty sample")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (p / 100.0) * (len(sorted_values) - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return sorted_values[lower]
    frac = rank - lower
    return sorted_values[lower] * (1 - frac) + sorted_values[upper] * frac


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of ``values`` (``p`` in [0, 100])."""
    if not (0.0 <= p <= 100.0):
        raise ValueError("p must be in [0, 100]")
    return _percentile(sorted(float(v) for v in values), p)


def fragility_index(
    metric_by_parameter: Sequence[Tuple[float, float]],
) -> float:
    """How violently a metric reacts to small parameter changes.

    ``metric_by_parameter`` is a sequence of ``(parameter, metric)`` points
    (e.g. file size vs throughput).  The index is the maximum absolute
    relative change of the metric between *adjacent* parameter values:

    ``max |m[i+1] - m[i]| / max(m[i+1], m[i])``

    An index near 0 means the metric is stable across the sweep; an index
    near 1 means somewhere in the sweep the metric collapses (or explodes)
    between neighbouring parameter values -- the Figure 1 cliff has an index
    of ~0.9.
    """
    points = sorted((float(p), float(m)) for p, m in metric_by_parameter)
    if len(points) < 2:
        return 0.0
    worst = 0.0
    for (_, left), (_, right) in zip(points, points[1:]):
        denom = max(abs(left), abs(right))
        if denom == 0:
            continue
        worst = max(worst, abs(right - left) / denom)
    return worst


def dynamic_range(values: Sequence[float]) -> float:
    """Ratio between the largest and smallest positive value (1.0 below two)."""
    positive = [value for value in values if value > 0]
    if len(positive) < 2:
        return 1.0
    return max(positive) / min(positive)


def overlapping_confidence_intervals(a: Sequence[float], b: Sequence[float], confidence: float = 0.95) -> bool:
    """True when the two samples' confidence intervals overlap.

    Overlapping intervals mean the honest conclusion is "no demonstrated
    difference" -- the comparison report uses this to refuse to declare
    winners that the data does not support.
    """
    low_a, high_a = confidence_interval(a, confidence)
    low_b, high_b = confidence_interval(b, confidence)
    return not (high_a < low_b or high_b < low_a)
