"""Fragility assessment: how much can this result be trusted?

"Benchmarks are very fragile: just a tiny variation in the amount of
available cache space can produce a large variation in performance."  The
functions here scan a finished sweep (or a single repetition set) and emit
explicit, human-readable warnings wherever the data shows one of the paper's
failure patterns:

* run-to-run relative standard deviation above a threshold,
* an order-of-magnitude cliff between adjacent parameter values,
* repetitions that straddle regimes (some cached, some not),
* bi-modal latency distributions hiding behind a mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional

from repro.analysis.regimes import classify_run
from repro.analysis.transition import find_transition
from repro.core.results import RepetitionSet, mean_throughputs
from repro.core.stats import dynamic_range


@dataclass(frozen=True)
class FragilityWarning:
    """One specific reason to distrust (or heavily qualify) a result."""

    kind: str
    message: str
    parameter: Optional[float] = None
    severity: str = "warning"  # "warning" | "severe"

    def format(self) -> str:
        """Render as a single report line."""
        prefix = "SEVERE" if self.severity == "severe" else "warning"
        where = f" at {self.parameter:g}" if self.parameter is not None else ""
        return f"[{prefix}] {self.kind}{where}: {self.message}"


@dataclass
class FragilityReport:
    """All warnings for one sweep or repetition set."""

    warnings: List[FragilityWarning] = field(default_factory=list)

    def add(self, warning: FragilityWarning) -> None:
        """Append one warning."""
        self.warnings.append(warning)

    @property
    def is_clean(self) -> bool:
        """True when nothing suspicious was found."""
        return not self.warnings

    @property
    def severe_count(self) -> int:
        """Number of severe warnings."""
        return sum(1 for w in self.warnings if w.severity == "severe")

    def format(self) -> str:
        """Render the report (or a clean bill of health)."""
        if self.is_clean:
            return "No fragility indicators found."
        return "\n".join(warning.format() for warning in self.warnings)


#: Relative standard deviation (in %) above which a result is flagged.
RSD_WARNING_PERCENT = 10.0
RSD_SEVERE_PERCENT = 25.0
#: Adjacent-point change factor above which a cliff is flagged.
CLIFF_FACTOR = 3.0
#: Aged/fresh throughput divergence factor above which a result is flagged.
AGING_DELTA_FACTOR = 1.25


def assess_repetitions(
    repetitions: RepetitionSet, parameter: Optional[float] = None
) -> List[FragilityWarning]:
    """Warnings for one repetition set."""
    warnings: List[FragilityWarning] = []
    summary = repetitions.throughput_summary()
    rsd = summary.relative_stddev_percent
    if rsd >= RSD_SEVERE_PERCENT:
        warnings.append(
            FragilityWarning(
                kind="run-to-run variation",
                parameter=parameter,
                severity="severe",
                message=(
                    f"relative standard deviation is {rsd:.0f}% across {summary.n} repetitions; "
                    "the mean alone is meaningless here"
                ),
            )
        )
    elif rsd >= RSD_WARNING_PERCENT:
        warnings.append(
            FragilityWarning(
                kind="run-to-run variation",
                parameter=parameter,
                message=f"relative standard deviation is {rsd:.0f}% across {summary.n} repetitions",
            )
        )

    regimes = {classify_run(run) for run in repetitions}
    if len(regimes) > 1:
        names = ", ".join(sorted(r.value for r in regimes))
        warnings.append(
            FragilityWarning(
                kind="regime instability",
                parameter=parameter,
                severity="severe",
                message=(
                    f"repetitions fall into different regimes ({names}); "
                    "a few megabytes of cache decide which subsystem is measured"
                ),
            )
        )

    merged = repetitions.merged_histogram()
    if not merged.is_empty and merged.is_bimodal():
        warnings.append(
            FragilityWarning(
                kind="bi-modal latency",
                parameter=parameter,
                message=(
                    "the latency distribution has multiple peaks "
                    f"(spanning {merged.span_orders_of_magnitude():.1f} orders of magnitude); "
                    "report the histogram, not the average"
                ),
            )
        )
    return warnings


def assess_aging(
    fresh: RepetitionSet,
    aged: RepetitionSet,
    delta_factor: float = AGING_DELTA_FACTOR,
) -> List[FragilityWarning]:
    """Warnings when the same benchmark diverges between fresh and aged state.

    A fresh-vs-aged throughput gap means the published number depends on a
    state variable (file system age) that evaluations almost never disclose;
    a *regime* difference means fresh and aged runs are not even measuring
    the same subsystem.
    """
    if delta_factor <= 1.0:
        raise ValueError("delta_factor must exceed 1.0")
    warnings: List[FragilityWarning] = []
    fresh_mean = fresh.throughput_summary().mean
    aged_mean = aged.throughput_summary().mean
    if fresh_mean > 0 and aged_mean > 0:
        ratio = max(fresh_mean / aged_mean, aged_mean / fresh_mean)
        if ratio >= delta_factor:
            warnings.append(
                FragilityWarning(
                    kind="aged-state sensitivity",
                    severity="severe" if ratio >= 2 * delta_factor else "warning",
                    message=(
                        f"throughput differs {ratio:.2f}x between fresh and aged states "
                        f"({fresh_mean:.0f} vs {aged_mean:.0f} ops/s); "
                        "results are meaningless without disclosing file system age"
                    ),
                )
            )

    fresh_regimes = {classify_run(run) for run in fresh}
    aged_regimes = {classify_run(run) for run in aged}
    if fresh_regimes and aged_regimes and fresh_regimes != aged_regimes:
        fresh_names = ", ".join(sorted(r.value for r in fresh_regimes))
        aged_names = ", ".join(sorted(r.value for r in aged_regimes))
        warnings.append(
            FragilityWarning(
                kind="aging regime shift",
                severity="severe",
                message=(
                    f"fresh runs are {fresh_names} but aged runs are {aged_names}; "
                    "aging moved the benchmark to a different subsystem entirely"
                ),
            )
        )
    return warnings


def assess_sweep(sweep: Mapping[float, RepetitionSet]) -> FragilityReport:
    """Full fragility report for a file-size sweep (sizes in bytes)."""
    report = FragilityReport()
    for parameter in sorted(sweep):
        for warning in assess_repetitions(sweep[parameter], parameter):
            report.add(warning)

    transition = find_transition(sweep, min_drop_factor=CLIFF_FACTOR)
    if transition is not None:
        report.add(
            FragilityWarning(
                kind="performance cliff",
                parameter=transition.parameter_low,
                severity="severe",
                message=(
                    f"{transition.describe('bytes')}; any single point in this range "
                    "misrepresents the system"
                ),
            )
        )

    spread = dynamic_range([mean for _, mean in mean_throughputs(sweep)])
    if spread >= 10.0:
        report.add(
            FragilityWarning(
                kind="wide dynamic range",
                message=(
                    f"mean throughput varies {spread:.0f}x across the sweep; "
                    "publish the whole curve, not a point"
                ),
            )
        )
    return report
