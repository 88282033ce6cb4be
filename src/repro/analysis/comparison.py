"""Honest cross-system comparison.

"What does it mean for one file system to be better than another?"  The
comparison helpers answer per dimension and per regime, refuse to collapse
incomparable regimes into a single winner, and never declare a difference the
confidence intervals cannot support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

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


@dataclass
class SweepComparison:
    """Point-by-point comparison of two sweeps of the same parameter."""

    label_a: str
    label_b: str
    verdicts: Dict[float, ComparisonVerdict] = field(default_factory=dict)

    def parameters(self) -> List[float]:
        """Compared parameter values in ascending order."""
        return sorted(self.verdicts)

    def wins(self, label: str) -> int:
        """Number of points where ``label`` is the significant winner."""
        return sum(1 for v in self.verdicts.values() if v.significant and v.winner == label)

    def undecided(self) -> int:
        """Number of points with overlapping confidence intervals."""
        return sum(1 for v in self.verdicts.values() if not v.significant)

    def crossover_parameters(self) -> List[float]:
        """Parameter values where the significant winner changes.

        A non-empty list is the strongest possible argument against a
        single-number comparison: each system wins somewhere.
        """
        ordered = self.parameters()
        crossovers: List[float] = []
        previous_winner: Optional[str] = None
        for parameter in ordered:
            verdict = self.verdicts[parameter]
            if not verdict.significant:
                continue
            if previous_winner is not None and verdict.winner != previous_winner:
                crossovers.append(parameter)
            previous_winner = verdict.winner
        return crossovers

    def summary(self) -> str:
        """Render the comparison as a short paragraph."""
        lines = [
            f"{self.label_a} wins at {self.wins(self.label_a)} point(s), "
            f"{self.label_b} wins at {self.wins(self.label_b)} point(s), "
            f"{self.undecided()} point(s) undecided."
        ]
        crossovers = self.crossover_parameters()
        if crossovers:
            formatted = ", ".join(f"{c:g}" for c in crossovers)
            lines.append(
                f"The winner changes at parameter value(s): {formatted} -- "
                "a single-number comparison would hide this."
            )
        for parameter in self.parameters():
            lines.append(f"  {parameter:g}: {self.verdicts[parameter].format()}")
        return "\n".join(lines)


def compare_sweeps(
    label_a: str,
    sweep_a: Mapping[float, RepetitionSet],
    label_b: str,
    sweep_b: Mapping[float, RepetitionSet],
) -> SweepComparison:
    """Compare two sweeps point by point over their common parameter values."""
    comparison = SweepComparison(label_a=label_a, label_b=label_b)
    for parameter in sorted(set(sweep_a) & set(sweep_b)):
        comparison.verdicts[parameter] = compare_repetition_sets(
            label_a, sweep_a[parameter], label_b, sweep_b[parameter]
        )
    return comparison
