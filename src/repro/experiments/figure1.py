"""Figure 1: Ext2 random-read throughput and relative std-dev vs file size.

Protocol (Section 3.1): one thread randomly reading 8 KiB blocks from a
single file; file size swept from 64 MB to 1024 MB in 64 MB steps; 512 MB of
RAM; each size run repeatedly; only steady-state throughput reported.  The
paper's observations this harness must reproduce:

* a memory-bound plateau (~10^4 ops/s) for sizes that fit in the page cache;
* a sudden, order-of-magnitude drop between 384 MB and 448 MB;
* I/O-bound throughput in the low hundreds of ops/s at 1024 MB;
* relative standard deviation several times higher in the I/O-bound range
  than in the memory-bound range, spiking in the transition region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.fragility import FragilityReport, assess_sweep
from repro.analysis.transition import TransitionRegion, find_transition
from repro.core.experiment import Experiment, ParameterGrid
from repro.core.frame import ResultFrame, rows_for_run
from repro.core.parallel import group_label
from repro.core.report import checks_line, sweep_table
from repro.core.results import RepetitionSet, SweepResult
from repro.core.runner import BenchmarkConfig, WarmupMode
from repro.experiments.config import ExperimentScale, MiB, default_scale
from repro.storage.config import TestbedConfig, paper_testbed
from repro.workloads.micro import random_read_workload

#: Mean throughput values printed above the bars of the paper's Figure 1.
PAPER_FIGURE1_OPS_S: Dict[int, float] = {
    64: 9682, 128: 9653, 192: 9679, 256: 9700, 320: 9543, 384: 9715,
    448: 1019, 512: 465, 576: 288, 640: 252, 704: 222, 768: 205,
    832: 183, 896: 182, 960: 166, 1024: 162,
}


@dataclass
class Figure1Result:
    """Measured Figure 1 data plus the paper's reference values."""

    fs_type: str
    sweep: SweepResult
    transition: Optional[TransitionRegion]
    fragility: FragilityReport
    scale_name: str

    def to_frame(self) -> ResultFrame:
        """The sweep as a tidy frame (one row per size x repetition x metric)."""
        frame = ResultFrame()
        for size_bytes in self.sweep.parameters():
            for run in self.sweep.repetitions_at(size_bytes):
                frame.extend(
                    rows_for_run(
                        {
                            "experiment": "figure1",
                            "fs": self.fs_type,
                            "file_size_mb": int(size_bytes // MiB),
                        },
                        run,
                    )
                )
        return frame

    def rows(self) -> List[Tuple[int, float, float]]:
        """(file size MiB, mean ops/s, relative stddev %) rows in sweep order."""
        rows = []
        rsd = dict(self.sweep.relative_stddevs())
        for size_bytes, mean in self.sweep.mean_throughputs():
            rows.append((int(size_bytes // MiB), mean, rsd[size_bytes]))
        return rows

    def memory_bound_mean(self) -> float:
        """Mean throughput across the sizes that clearly fit in the cache."""
        values = [mean for size, mean, _ in self.rows() if size <= 384]
        return sum(values) / len(values) if values else 0.0

    def io_bound_mean(self) -> float:
        """Mean throughput across the sizes clearly larger than the cache."""
        values = [mean for size, mean, _ in self.rows() if size >= 768]
        return sum(values) / len(values) if values else 0.0

    def drop_factor(self) -> float:
        """Ratio between the memory-bound plateau and the I/O-bound floor."""
        io_bound = self.io_bound_mean()
        return self.memory_bound_mean() / io_bound if io_bound > 0 else float("inf")

    def checks(self) -> Dict[str, bool]:
        """The paper's qualitative claims, evaluated against the measured data."""
        rows = self.rows()
        rsd_by_size = {size: rsd for size, _, rsd in rows}
        memory_sizes = [s for s, _, _ in rows if s <= 384]
        io_sizes = [s for s, _, _ in rows if s >= 768]
        memory_rsd = max((rsd_by_size[s] for s in memory_sizes), default=0.0)
        io_rsd = max((rsd_by_size[s] for s in io_sizes), default=0.0)
        in_transition = (
            self.transition is not None
            and 320 * MiB <= self.transition.parameter_low
            and self.transition.parameter_high <= 512 * MiB
        )
        return {
            "memory_bound_plateau_near_10k_ops": 5000 <= self.memory_bound_mean() <= 20000,
            "order_of_magnitude_drop": self.drop_factor() >= 10.0,
            "cliff_between_384_and_512_mb": in_transition,
            "io_bound_rsd_exceeds_memory_bound_rsd": io_rsd > memory_rsd,
            "io_bound_in_low_hundreds_ops": 50 <= self.io_bound_mean() <= 1000,
        }

    def render(self) -> str:
        """Figure-1-as-text: the sweep table, the transition and the warnings."""
        lines = [
            f"Figure 1 reproduction -- {self.fs_type} random read, {self.scale_name} scale",
            "",
            sweep_table(self.sweep, parameter_format="{:.0f}"),
            "",
        ]
        if self.transition is not None:
            lines.append("Transition: " + self.transition.describe("bytes"))
        lines.append("")
        lines.append("Fragility assessment:")
        lines.append(self.fragility.format())
        lines.append("")
        lines.append("Paper reference points (ops/s): " + ", ".join(
            f"{size}MB={value}" for size, value in sorted(PAPER_FIGURE1_OPS_S.items())
        ))
        checks = self.checks()
        lines.append("")
        lines.append(checks_line(checks))
        return "\n".join(lines)


def run_figure1(
    fs_type: str = "ext2",
    testbed: Optional[TestbedConfig] = None,
    scale: Optional[ExperimentScale] = None,
    sizes_mb: Optional[List[int]] = None,
    seed: int = 42,
) -> Figure1Result:
    """Run the Figure 1 sweep and return its result object.

    The sweep is one :class:`~repro.core.experiment.Experiment` with a
    workload axis of per-size random-read specs.
    """
    scale = scale if scale is not None else default_scale()
    scale.validate()
    testbed = testbed if testbed is not None else paper_testbed()
    sizes = list(sizes_mb) if sizes_mb is not None else list(scale.figure1_sizes_mb)

    config = BenchmarkConfig(
        duration_s=scale.figure1_duration_s,
        repetitions=scale.figure1_repetitions,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=max(1.0, scale.figure1_duration_s / 5.0),
        seed=seed,
    )
    specs = {size_mb: random_read_workload(size_mb * MiB) for size_mb in sizes}
    outcome = Experiment(
        grid=ParameterGrid.of(workload=list(specs.values()), fs=[fs_type]),
        name="figure1",
        config=config,
        testbed=testbed,
    ).run()

    sweep = SweepResult(parameter_name="file_size", unit="bytes")
    for size_mb, spec in specs.items():
        repetitions = outcome.sets[group_label(spec.name, fs_type)]
        sweep.add(
            size_mb * MiB, RepetitionSet(label=f"{size_mb}MB", runs=list(repetitions.runs))
        )

    return Figure1Result(
        fs_type=fs_type,
        sweep=sweep,
        transition=find_transition(sweep),
        fragility=assess_sweep(sweep),
        scale_name=scale.name,
    )
