"""Locating and characterising the memory-to-disk transition.

Figure 1's cliff and the Section 3.1 zoom ("performance drops within an even
narrower region -- less than 6 MB in size") are both statements about where,
and how abruptly, a sweep's throughput collapses.  :func:`find_transition`
extracts that from a finished :class:`~repro.core.results.SweepResult`;
:func:`refine_transition` runs additional measurements to narrow the region,
bisection style, the way the authors zoomed in.  Together they are the
package's only cliff locator: :func:`~repro.experiments.run_transition_zoom`
drives them, running each measurement as an ``Experiment``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core.results import RepetitionSet, SweepResult


@dataclass(frozen=True)
class TransitionRegion:
    """A localised performance transition within a parameter sweep."""

    parameter_low: float
    parameter_high: float
    throughput_before: float
    throughput_after: float

    @property
    def width(self) -> float:
        """Width of the region in parameter units."""
        return self.parameter_high - self.parameter_low

    @property
    def drop_factor(self) -> float:
        """How many times throughput drops across the region (>= 1)."""
        if self.throughput_after <= 0:
            return float("inf")
        factor = self.throughput_before / self.throughput_after
        return factor if factor >= 1.0 else 1.0 / factor

    def describe(self, unit: str = "") -> str:
        """Readable summary of the region."""
        unit_suffix = f" {unit}" if unit else ""
        return (
            f"throughput changes {self.drop_factor:.1f}x between "
            f"{self.parameter_low:.0f}{unit_suffix} and {self.parameter_high:.0f}{unit_suffix} "
            f"({self.width:.0f}{unit_suffix} wide)"
        )


def find_transition(sweep: SweepResult, min_drop_factor: float = 2.0) -> Optional[TransitionRegion]:
    """Find the sharpest adjacent-point throughput change in a sweep.

    Returns ``None`` when no adjacent pair changes by at least
    ``min_drop_factor``.
    """
    if min_drop_factor <= 1.0:
        raise ValueError("min_drop_factor must exceed 1")
    means = sweep.mean_throughputs()
    if len(means) < 2:
        return None
    best: Optional[TransitionRegion] = None
    best_factor = min_drop_factor
    for (left_param, left_mean), (right_param, right_mean) in zip(means, means[1:]):
        low = min(left_mean, right_mean)
        high = max(left_mean, right_mean)
        if low <= 0:
            factor = float("inf") if high > 0 else 1.0
        else:
            factor = high / low
        if factor >= best_factor:
            best_factor = factor
            best = TransitionRegion(
                parameter_low=left_param,
                parameter_high=right_param,
                throughput_before=left_mean,
                throughput_after=right_mean,
            )
    return best


def refine_transition(
    region: TransitionRegion,
    measure: Callable[[float], RepetitionSet],
    target_width: float,
    max_measurements: int = 16,
    min_drop_factor: float = 2.0,
) -> Tuple[TransitionRegion, int]:
    """Narrow a transition region by bisection.

    ``measure`` runs the benchmark at one parameter value and returns its
    repetition set.  Returns the refined region and the number of additional
    measurements performed.  This is the mechanism behind the paper's
    observation that the Figure 1 drop happens "within an even narrower
    region -- less than 6 MB in size".
    """
    if target_width <= 0:
        raise ValueError("target_width must be positive")
    low = region.parameter_low
    high = region.parameter_high
    low_throughput = region.throughput_before
    high_throughput = region.throughput_after
    measurements = 0

    while (high - low) > target_width and measurements < max_measurements:
        midpoint = (low + high) / 2.0
        mid_throughput = measure(midpoint).throughput_summary().mean
        measurements += 1
        # Keep the half that still contains the big change.
        left_factor = _change_factor(low_throughput, mid_throughput)
        right_factor = _change_factor(mid_throughput, high_throughput)
        if left_factor >= right_factor:
            high, high_throughput = midpoint, mid_throughput
        else:
            low, low_throughput = midpoint, mid_throughput
        if max(left_factor, right_factor) < min_drop_factor:
            # The change has been diluted below significance; stop refining.
            break

    return (
        TransitionRegion(
            parameter_low=low,
            parameter_high=high,
            throughput_before=low_throughput,
            throughput_after=high_throughput,
        ),
        measurements,
    )


def _change_factor(a: float, b: float) -> float:
    low = min(a, b)
    high = max(a, b)
    if low <= 0:
        return float("inf") if high > 0 else 1.0
    return high / low


def expected_transition_bytes(page_cache_bytes: int) -> Tuple[int, int]:
    """The file-size range where the cliff is expected for a given cache size.

    The cliff happens where the file stops fitting in the available page
    cache; environmental noise of a few MiB widens it.  Used by tests and by
    the zoom experiment to position their fine sweeps.
    """
    if page_cache_bytes <= 0:
        raise ValueError("page_cache_bytes must be positive")
    slack = 16 * 1024 * 1024
    return (page_cache_bytes - slack, page_cache_bytes + slack)
