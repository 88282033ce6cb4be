"""Statistics for honest benchmark reporting.

The paper's complaint is not that researchers report no statistics, but that
the statistics reported (a mean, sometimes a standard deviation) hide what is
actually going on: multi-modal latency distributions, order-of-magnitude
sensitivity to the working-set size, and results whose run-to-run variation
dwarfs the differences being claimed.  The functions here are the ones the
reporting layer uses to surface those effects:

* :func:`summarize` / :class:`SummaryStatistics` -- mean, spread, relative
  standard deviation (the right-hand axis of Figure 1), confidence intervals;
* :func:`confidence_interval` / :func:`bootstrap_ci` -- parametric and
  non-parametric intervals for small repetition counts;
* :func:`bimodality_coefficient` -- a quick sample-based bi-modality check to
  complement histogram mode counting;
* :func:`fragility_index` -- how much a metric moves for a small change of a
  control parameter (the paper's "just a few megabytes" observation);
* :func:`dynamic_range` -- how far apart the best and worst values of a
  sweep lie;
* :func:`required_repetitions` -- how many repetitions are needed for a target
  confidence-interval width;
* :func:`welch_t_test` / :func:`overlapping_confidence_intervals` -- honest
  comparison of two systems.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple


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


def bootstrap_ci(
    values: Sequence[float],
    stat: Callable[[Sequence[float]], float] = statistics.fmean,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for an arbitrary statistic."""
    if not values:
        raise ValueError("cannot bootstrap an empty sample")
    if resamples <= 0:
        raise ValueError("resamples must be positive")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    data = [float(v) for v in values]
    rng = random.Random(seed)
    n = len(data)
    estimates = []
    for _ in range(resamples):
        resample = [data[rng.randrange(n)] for _ in range(n)]
        estimates.append(stat(resample))
    estimates.sort()
    alpha = (1.0 - confidence) / 2.0
    lo_index = max(0, int(math.floor(alpha * resamples)) - 1)
    hi_index = min(resamples - 1, int(math.ceil((1.0 - alpha) * resamples)) - 1)
    return (estimates[lo_index], estimates[hi_index])


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Sample standard deviation divided by the mean (0 for constant samples)."""
    if len(values) < 2:
        return 0.0
    mean = statistics.fmean(values)
    if mean == 0:
        return 0.0
    return statistics.stdev(values) / abs(mean)


def detect_outliers_iqr(values: Sequence[float], k: float = 1.5) -> List[int]:
    """Indices of values outside ``[Q1 - k*IQR, Q3 + k*IQR]`` (Tukey's rule)."""
    if len(values) < 4:
        return []
    data = sorted((float(v), i) for i, v in enumerate(values))
    ordered = [v for v, _ in data]
    q1 = _percentile(ordered, 25.0)
    q3 = _percentile(ordered, 75.0)
    iqr = q3 - q1
    low = q1 - k * iqr
    high = q3 + k * iqr
    return sorted(i for v, i in data if v < low or v > high)


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


def bimodality_coefficient(values: Sequence[float]) -> float:
    """Sarle's bimodality coefficient (sample-size corrected).

    Values above ~0.555 (the value for a uniform distribution) suggest the
    sample may be bi- or multi-modal.  Used as a cheap cross-check of the
    histogram-based mode counting when raw samples are available.
    """
    n = len(values)
    if n < 4:
        return 0.0
    mean = statistics.fmean(values)
    std = statistics.pstdev(values)
    if std == 0:
        return 0.0
    skew = sum(((v - mean) / std) ** 3 for v in values) / n
    kurt = sum(((v - mean) / std) ** 4 for v in values) / n - 3.0
    numerator = skew ** 2 + 1.0
    denominator = kurt + 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
    if denominator == 0:
        return 0.0
    return numerator / denominator


BIMODALITY_THRESHOLD = 5.0 / 9.0


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


def required_repetitions(
    values: Sequence[float],
    target_relative_ci: float = 0.05,
    confidence: float = 0.95,
    max_repetitions: int = 1000,
) -> int:
    """Estimate how many repetitions are needed for a target CI half-width.

    Given a pilot sample, returns the smallest ``n`` such that the predicted
    ``t * s / sqrt(n)`` is at most ``target_relative_ci * mean``.
    """
    if len(values) < 2:
        raise ValueError("need at least two pilot measurements")
    if not (0.0 < target_relative_ci < 1.0):
        raise ValueError("target_relative_ci must be in (0, 1)")
    mean = statistics.fmean(values)
    stddev = statistics.stdev(values)
    if mean == 0 or stddev == 0:
        return len(values)
    target_halfwidth = abs(mean) * target_relative_ci
    for n in range(2, max_repetitions + 1):
        t = _t_quantile_975(n - 1) if confidence == 0.95 else _t_quantile_975(n - 1)
        if t * stddev / math.sqrt(n) <= target_halfwidth:
            return n
    return max_repetitions


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Welch's unequal-variance t-test; returns ``(t_statistic, p_value)``.

    Falls back to a normal approximation for the p-value if scipy is missing.
    """
    if len(a) < 2 or len(b) < 2:
        raise ValueError("both samples need at least two values")
    mean_a, mean_b = statistics.fmean(a), statistics.fmean(b)
    var_a, var_b = statistics.variance(a), statistics.variance(b)
    na, nb = len(a), len(b)
    se = math.sqrt(var_a / na + var_b / nb)
    if se == 0:
        return (0.0, 1.0) if mean_a == mean_b else (math.inf, 0.0)
    t = (mean_a - mean_b) / se
    dof_num = (var_a / na + var_b / nb) ** 2
    dof_den = (var_a / na) ** 2 / (na - 1) + (var_b / nb) ** 2 / (nb - 1)
    dof = dof_num / dof_den if dof_den > 0 else na + nb - 2
    try:
        from scipy import stats as scipy_stats

        p = float(2.0 * scipy_stats.t.sf(abs(t), dof))
    except Exception:  # pragma: no cover
        p = 2.0 * (1.0 - _normal_cdf(abs(t)))
    return (t, p)


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def overlapping_confidence_intervals(a: Sequence[float], b: Sequence[float], confidence: float = 0.95) -> bool:
    """True when the two samples' confidence intervals overlap.

    Overlapping intervals mean the honest conclusion is "no demonstrated
    difference" -- the comparison report uses this to refuse to declare
    winners that the data does not support.
    """
    low_a, high_a = confidence_interval(a, confidence)
    low_b, high_b = confidence_interval(b, confidence)
    return not (high_a < low_b or high_b < low_a)


def speedup_with_uncertainty(
    baseline: Sequence[float], candidate: Sequence[float], resamples: int = 2000, seed: int = 0
) -> Tuple[float, float, float]:
    """Speedup of ``candidate`` over ``baseline`` with a bootstrap 95% interval.

    Returns ``(speedup, low, high)`` where speedup is the ratio of means.
    """
    if not baseline or not candidate:
        raise ValueError("both samples must be non-empty")
    base_mean = statistics.fmean(baseline)
    if base_mean == 0:
        raise ValueError("baseline mean is zero")
    point = statistics.fmean(candidate) / base_mean
    rng = random.Random(seed)
    ratios = []
    nb, nc = len(baseline), len(candidate)
    for _ in range(resamples):
        b = statistics.fmean([baseline[rng.randrange(nb)] for _ in range(nb)])
        c = statistics.fmean([candidate[rng.randrange(nc)] for _ in range(nc)])
        if b != 0:
            ratios.append(c / b)
    ratios.sort()
    if not ratios:
        return (point, point, point)
    lo = ratios[max(0, int(0.025 * len(ratios)) - 1)]
    hi = ratios[min(len(ratios) - 1, int(math.ceil(0.975 * len(ratios))) - 1)]
    return (point, lo, hi)
