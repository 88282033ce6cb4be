"""Result containers: one run and the repetitions of one experiment cell.

The containers deliberately keep *more* than a single number per run -- the
full latency histogram, the interval timeline and (optionally) the raw
latencies -- because the paper's whole argument is that the single number is
the problem.  Reporting code decides later how much of that to show.

:class:`~repro.core.experiment.ExperimentResult` holds one
:class:`RepetitionSet` per cell; a parameter sweep is a plain
``{parameter value: RepetitionSet}`` mapping of such cells (see
:func:`repro.experiments.figure1.measure_file_sizes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.histogram import LatencyHistogram
from repro.core.stats import SummaryStatistics, summarize
from repro.core.timeline import HistogramTimeline, IntervalSeries


@dataclass
class RunResult:
    """Everything recorded about one benchmark repetition.

    Attributes
    ----------
    workload_name, fs_name:
        Identification of what was run on what.
    repetition:
        Zero-based repetition index within its :class:`RepetitionSet`.
    seed:
        Seed used for this repetition (stack and workload randomness).
    measured_duration_s:
        Length of the measured window in simulated seconds (excludes warm-up).
    warmup_duration_s:
        Simulated time spent warming up before measurement started.
    operations:
        Operations completed inside the measured window.
    throughput_ops_s:
        ``operations / measured_duration_s``.
    histogram:
        Latency histogram of the measured window.
    timeline:
        Per-interval throughput series of the measured window.
    histogram_timeline:
        Optional per-interval histograms (Figure 4 style), when enabled.
    raw_latencies_ns:
        Optional raw latency list, when enabled.
    cache_hit_ratio, device_reads, device_writes, bytes_read, bytes_written:
        Stack-level counters captured at the end of the measured window.
    environment:
        Description of the perturbed environment for this repetition
        (effective cache bytes, CPU speed factor) -- the "noise" the runner
        injected to expose fragility.
    client_metrics:
        Per-client scalar metrics (operations, throughput, exact
        p50/p95/p99 latency) when the repetition ran with concurrent
        clients (see :mod:`repro.core.concurrency`); ``None`` on the legacy
        single-client path, so existing results and cache entries keep
        their exact payloads.
    attribution:
        Per-layer, per-op-type latency breakdown (see :mod:`repro.obs`),
        present only when the repetition ran with tracing enabled.  Derived
        evidence, reproducible on demand -- deliberately **never
        serialized**, so payloads and cache entries stay byte-identical
        with tracing on or off.
    trace_events:
        The (bounded) trace-event ring from a traced repetition; in-memory
        only, never serialized.
    """

    workload_name: str
    fs_name: str
    repetition: int
    seed: int
    measured_duration_s: float
    warmup_duration_s: float
    operations: int
    throughput_ops_s: float
    histogram: LatencyHistogram
    timeline: IntervalSeries
    histogram_timeline: Optional[HistogramTimeline] = None
    raw_latencies_ns: Optional[List[float]] = None
    cache_hit_ratio: float = 0.0
    device_reads: int = 0
    device_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    environment: Dict[str, float] = field(default_factory=dict)
    client_metrics: Optional[List[Dict[str, float]]] = None
    attribution: Optional[Dict[str, object]] = None
    trace_events: Optional[List] = None

    @property
    def clients(self) -> int:
        """Number of concurrent client sessions this repetition ran with."""
        return len(self.client_metrics) if self.client_metrics else 1

    @property
    def mean_latency_ns(self) -> float:
        """Mean operation latency inside the measured window."""
        return self.histogram.mean_ns()

    @property
    def p95_latency_ns(self) -> float:
        """95th-percentile latency (bucket-approximated)."""
        return self.histogram.percentile(95.0)

    @property
    def p99_latency_ns(self) -> float:
        """99th-percentile latency (bucket-approximated)."""
        return self.histogram.percentile(99.0)

    def describe(self) -> str:
        """One-line description used in logs and reports."""
        return (
            f"{self.workload_name} on {self.fs_name} (rep {self.repetition}): "
            f"{self.throughput_ops_s:.0f} ops/s, mean latency {self.mean_latency_ns / 1000:.1f} us, "
            f"hit ratio {self.cache_hit_ratio:.2f}"
        )


@dataclass
class RepetitionSet:
    """All repetitions of one benchmark configuration."""

    label: str
    runs: List[RunResult] = field(default_factory=list)

    def add(self, run: RunResult) -> None:
        """Append one repetition."""
        self.runs.append(run)

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    # ------------------------------------------------------------ aggregates
    def throughputs(self) -> List[float]:
        """Per-repetition throughput values."""
        return [run.throughput_ops_s for run in self.runs]

    def throughput_summary(self) -> SummaryStatistics:
        """Summary statistics of throughput across repetitions."""
        return summarize(self.throughputs())

    def mean_latencies_ns(self) -> List[float]:
        """Per-repetition mean latencies."""
        return [run.mean_latency_ns for run in self.runs]

    def latency_summary(self) -> SummaryStatistics:
        """Summary statistics of the mean latency across repetitions."""
        return summarize(self.mean_latencies_ns())

    def merged_histogram(self) -> LatencyHistogram:
        """Latency histogram pooled across repetitions."""
        merged = LatencyHistogram()
        for run in self.runs:
            merged = merged.merge(run.histogram)
        return merged

    def hit_ratios(self) -> List[float]:
        """Per-repetition cache hit ratios."""
        return [run.cache_hit_ratio for run in self.runs]

    def first(self) -> RunResult:
        """The first repetition (raises ``IndexError`` when empty)."""
        return self.runs[0]


def mean_throughputs(sweep: Mapping[float, RepetitionSet]) -> List[Tuple[float, float]]:
    """A sweep's ``(parameter, mean throughput)`` points in parameter order."""
    return [(parameter, sweep[parameter].throughput_summary().mean) for parameter in sorted(sweep)]
