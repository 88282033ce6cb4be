"""Regime labelling: memory-bound, transition, or I/O-bound.

Section 3.1 of the paper: "For file sizes less than 384MB, we mostly exercise
the memory subsystem; for file sizes greater than 448MB, we exercise the disk
system.  This suggests that researchers should either publish results that
span a wide range or make explicit both the memory- and I/O-bound
performance."  These helpers make that labelling explicit and automatic.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Mapping, Tuple

from repro.core.results import RepetitionSet, RunResult


class Regime(str, Enum):
    """Which subsystem a measurement is actually exercising."""

    MEMORY_BOUND = "memory-bound"
    TRANSITION = "transition"
    IO_BOUND = "io-bound"

    @property
    def description(self) -> str:
        """One-line description for reports."""
        return {
            Regime.MEMORY_BOUND: "working set fits in the page cache; measures the memory/software path",
            Regime.TRANSITION: "working set is near the cache size; results are fragile",
            Regime.IO_BOUND: "working set greatly exceeds the cache; measures the device",
        }[self]


#: Hit ratios above this are treated as fully cached.
MEMORY_BOUND_HIT_RATIO = 0.97
#: Hit ratios below this are treated as device-bound.
IO_BOUND_HIT_RATIO = 0.60


def classify_run(run: RunResult) -> Regime:
    """Classify one run by its measured cache hit ratio."""
    if run.cache_hit_ratio >= MEMORY_BOUND_HIT_RATIO:
        return Regime.MEMORY_BOUND
    if run.cache_hit_ratio <= IO_BOUND_HIT_RATIO:
        return Regime.IO_BOUND
    return Regime.TRANSITION


def classify_repetitions(repetitions: RepetitionSet) -> Regime:
    """Classify a repetition set: the majority regime of its runs.

    When repetitions disagree (some memory-bound, some I/O-bound), the whole
    set is labelled :attr:`Regime.TRANSITION` -- disagreement across
    repetitions is itself the transition signature.
    """
    regimes = [classify_run(run) for run in repetitions]
    if not regimes:
        raise ValueError("cannot classify an empty repetition set")
    unique = set(regimes)
    if len(unique) > 1:
        return Regime.TRANSITION
    return regimes[0]


def classify_sweep(sweep: Mapping[float, RepetitionSet]) -> Dict[float, Regime]:
    """Classify every point of a sweep, in parameter order."""
    return {parameter: classify_repetitions(sweep[parameter]) for parameter in sorted(sweep)}


def regime_ranges(sweep: Mapping[float, RepetitionSet]) -> List[Tuple[Regime, float, float]]:
    """Contiguous parameter ranges per regime, in sweep order.

    Returns a list of ``(regime, first_parameter, last_parameter)`` tuples --
    the machine-readable version of "for file sizes less than 384 MB ... for
    file sizes greater than 448 MB ...".
    """
    ranges: List[Tuple[Regime, float, float]] = []
    for parameter, regime in classify_sweep(sweep).items():
        if ranges and ranges[-1][0] is regime:
            ranges[-1] = (regime, ranges[-1][1], parameter)
        else:
            ranges.append((regime, parameter, parameter))
    return ranges


def per_regime_summary(sweep: Mapping[float, RepetitionSet]) -> Dict[Regime, Dict[str, float]]:
    """Mean throughput and spread per regime (the honest way to summarise Figure 1)."""
    grouped: Dict[Regime, List[float]] = {}
    for parameter, regime in classify_sweep(sweep).items():
        grouped.setdefault(regime, []).extend(sweep[parameter].throughputs())
    summary: Dict[Regime, Dict[str, float]] = {}
    for regime, values in grouped.items():
        mean = sum(values) / len(values)
        summary[regime] = {
            "mean_ops_s": mean,
            "min_ops_s": min(values),
            "max_ops_s": max(values),
            "samples": float(len(values)),
        }
    return summary
