"""Honest cross-system comparison.

"What does it mean for one file system to be better than another?"  The
comparison helpers answer per dimension and per regime, refuse to collapse
incomparable regimes into a single winner, and never declare a difference the
confidence intervals cannot support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.regimes import Regime, classify_repetitions
from repro.core.results import RepetitionSet
from repro.core.stats import overlapping_confidence_intervals


@dataclass(frozen=True)
class ComparisonVerdict:
    """The outcome of comparing two systems on one configuration."""

    label_a: str
    label_b: str
    mean_a: float
    mean_b: float
    significant: bool
    winner: Optional[str]
    regime: Optional[Regime] = None

    @property
    def speedup(self) -> float:
        """Ratio of the faster mean to the slower mean (>= 1)."""
        low = min(self.mean_a, self.mean_b)
        high = max(self.mean_a, self.mean_b)
        return high / low if low > 0 else float("inf")

    def format(self) -> str:
        """Render the verdict as one report line."""
        regime_note = f" [{self.regime.value}]" if self.regime is not None else ""
        if not self.significant:
            return (
                f"{self.label_a} ({self.mean_a:.0f}) vs {self.label_b} ({self.mean_b:.0f}){regime_note}: "
                "confidence intervals overlap -- no demonstrated difference"
            )
        return (
            f"{self.winner} is {self.speedup:.2f}x faster{regime_note} "
            f"({self.mean_a:.0f} vs {self.mean_b:.0f} ops/s)"
        )


def compare_repetition_sets(
    label_a: str, a: RepetitionSet, label_b: str, b: RepetitionSet
) -> ComparisonVerdict:
    """Compare two repetition sets of the same workload configuration."""
    mean_a = a.throughput_summary().mean
    mean_b = b.throughput_summary().mean
    overlap = overlapping_confidence_intervals(a.throughputs(), b.throughputs())
    regime_a = classify_repetitions(a)
    regime_b = classify_repetitions(b)
    regime = regime_a if regime_a is regime_b else Regime.TRANSITION
    if overlap:
        return ComparisonVerdict(
            label_a=label_a, label_b=label_b, mean_a=mean_a, mean_b=mean_b,
            significant=False, winner=None, regime=regime,
        )
    winner = label_a if mean_a > mean_b else label_b
    return ComparisonVerdict(
        label_a=label_a, label_b=label_b, mean_a=mean_a, mean_b=mean_b,
        significant=True, winner=winner, regime=regime,
    )
