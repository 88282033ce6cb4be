"""Steady-state detection.

The paper's Figure 1 protocol runs each configuration for 20 minutes "but to
ensure steady-state results we report only the last minute", and Figure 2
shows why that choice is itself a decision that hides information.  This
module provides the mechanical pieces:

* :func:`detect_steady_state` -- find the first interval from which the
  throughput series is statistically stable (sliding-window coefficient of
  variation plus a trend test);
* :class:`SteadyStateDetector` -- the same logic in incremental form so a
  runner can stop a run early once stability is reached.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence


def _window_is_steady(window: Sequence[float], cov_threshold: float, slope_threshold: float) -> bool:
    mean = statistics.fmean(window)
    if mean == 0:
        return all(v == 0 for v in window)
    cov = (statistics.stdev(window) / abs(mean)) if len(window) > 1 else 0.0
    if cov > cov_threshold:
        return False
    # Least-squares slope, normalised by the mean per step.
    n = len(window)
    xs = range(n)
    x_mean = (n - 1) / 2.0
    denom = sum((x - x_mean) ** 2 for x in xs)
    if denom == 0:
        return True
    slope = sum((x - x_mean) * (y - mean) for x, y in zip(xs, window)) / denom
    return abs(slope / mean) <= slope_threshold


def detect_steady_state(
    series: Sequence[float],
    window: int = 5,
    cov_threshold: float = 0.10,
    slope_threshold: float = 0.02,
) -> Optional[int]:
    """Index of the first sample from which the series is steady, or None.

    A window of ``window`` consecutive samples is considered steady when its
    coefficient of variation is at most ``cov_threshold`` and its normalised
    linear trend is at most ``slope_threshold`` per sample.  The returned
    index is the start of the first steady window.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    values = [float(v) for v in series]
    if len(values) < window:
        return None
    for start in range(0, len(values) - window + 1):
        if _window_is_steady(values[start : start + window], cov_threshold, slope_threshold):
            return start
    return None


@dataclass
class SteadyStateDetector:
    """Incremental steady-state detection for use inside a running benchmark.

    Feed per-interval throughputs with :meth:`observe`; :attr:`steady_since`
    holds the index of the first steady window once one has been seen.
    """

    window: int = 5
    cov_threshold: float = 0.10
    slope_threshold: float = 0.02

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be at least 2")
        self._values: List[float] = []
        self.steady_since: Optional[int] = None

    def observe(self, value: float) -> bool:
        """Add one observation; returns True once steady state has been reached."""
        self._values.append(float(value))
        if self.steady_since is not None:
            return True
        if len(self._values) < self.window:
            return False
        start = len(self._values) - self.window
        if _window_is_steady(
            self._values[start:], self.cov_threshold, self.slope_threshold
        ):
            self.steady_since = start
            return True
        return False

    @property
    def is_steady(self) -> bool:
        """True once a steady window has been observed."""
        return self.steady_since is not None

    def observed(self) -> List[float]:
        """All observations so far."""
        return list(self._values)

    def warmup_intervals(self) -> Optional[int]:
        """Number of intervals before steady state (None if not yet steady)."""
        return self.steady_since
