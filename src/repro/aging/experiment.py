"""The aged-vs-fresh comparison experiment.

The scenario axis the paper (and the Traeger et al. survey before it) says
published evaluations ignore: the same benchmark, on the same machine, on a
freshly-formatted file system versus a realistically aged one.  For each file
system this experiment

1. ages a stack with :class:`~repro.aging.engines.ChurnAger`,
2. snapshots the aged state (so the exact state is a shareable artifact and
   every aged repetition restores the identical starting point),
3. runs the same cold-cache sequential-read benchmark against fresh and
   aged states under the full measurement protocol, and
4. reports throughput ranges side by side with the fragmentation metrics
   and explicit :mod:`~repro.analysis.fragility` warnings when aged and
   fresh results diverge.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.aging.engines import AgingConfig, AgingResult, ChurnAger
from repro.aging.snapshot import save_snapshot, snapshot_stack
from repro.analysis.fragility import FragilityWarning, assess_aging
from repro.core.experiment import Experiment, ParameterGrid
from repro.core.report import format_table
from repro.core.results import RepetitionSet
from repro.core.runner import BenchmarkConfig, WarmupMode
from repro.fs.stack import build_stack
from repro.storage.config import TestbedConfig, paper_testbed
from repro.workloads.micro import sequential_read_workload

MiB = 1024 * 1024


@dataclass
class AgedVsFreshCell:
    """Fresh and aged measurements of one benchmark on one file system."""

    fs_type: str
    fresh: RepetitionSet
    aged: RepetitionSet
    aging: AgingResult
    snapshot_path: str
    snapshot_fingerprint: str
    warnings: List[FragilityWarning] = field(default_factory=list)

    @property
    def slowdown_factor(self) -> float:
        """Mean fresh throughput divided by mean aged throughput (>1 = aging hurts)."""
        aged_mean = self.aged.throughput_summary().mean
        if aged_mean <= 0:
            return float("inf")
        return self.fresh.throughput_summary().mean / aged_mean


@dataclass
class AgedVsFreshResult:
    """All cells of one aged-vs-fresh experiment."""

    testbed: TestbedConfig
    workload_name: str
    cells: Dict[str, AgedVsFreshCell] = field(default_factory=dict)

    def render(self) -> str:
        """Full report: ranges, fragmentation metrics and fragility warnings."""
        lines = [
            "Aged vs. fresh comparison",
            "=========================",
            f"workload: {self.workload_name} on {self.testbed.describe()}",
            "",
        ]
        headers = ["FS", "fresh (ops/s)", "aged (ops/s)", "slowdown", "layout score", "free frag"]
        rows = []
        for fs_type, cell in self.cells.items():
            fresh = cell.fresh.throughput_summary()
            aged = cell.aged.throughput_summary()
            frag = cell.aging.fragmentation
            rows.append(
                [
                    fs_type,
                    f"{fresh.mean:.0f} +/-{fresh.relative_stddev_percent:.0f}%",
                    f"{aged.mean:.0f} +/-{aged.relative_stddev_percent:.0f}%",
                    f"{cell.slowdown_factor:.2f}x",
                    f"{frag.mean_layout_score:.3f}" if frag else "-",
                    f"{frag.free_space.fragmentation_score:.3f}"
                    if frag and frag.free_space
                    else "-",
                ]
            )
        lines.append(format_table(headers, rows))
        for fs_type, cell in self.cells.items():
            lines.append("")
            lines.append(f"[{fs_type}] state snapshot: {cell.snapshot_path}")
            lines.append(f"[{fs_type}] fingerprint: {cell.snapshot_fingerprint}")
            for warning in cell.warnings:
                lines.append(f"[{fs_type}] {warning.format()}")
            if not cell.warnings:
                lines.append(f"[{fs_type}] no aging fragility indicators")
        return "\n".join(lines)


def default_benchmark_config(quick: bool = False) -> BenchmarkConfig:
    """Cold-cache protocol for the on-disk aged-vs-fresh comparison."""
    return BenchmarkConfig(
        duration_s=5.0 if quick else 20.0,
        repetitions=3 if quick else 5,
        warmup_mode=WarmupMode.NONE,
        cold_cache=True,
    )


def run_aged_vs_fresh(
    fs_types: Sequence[str] = ("ext2", "ext4", "xfs"),
    testbed: Optional[TestbedConfig] = None,
    aging: Optional[AgingConfig] = None,
    config: Optional[BenchmarkConfig] = None,
    workload_bytes: Optional[int] = None,
    snapshot_dir: Optional[str] = None,
    quick: bool = False,
) -> AgedVsFreshResult:
    """Run the aged-vs-fresh experiment on each file system.

    Parameters
    ----------
    fs_types:
        File systems to compare (each against its own fresh baseline).
    testbed, config:
        Machine and measurement protocol; defaults to the paper testbed and
        :func:`default_benchmark_config`.
    aging:
        Aging profile; defaults to :class:`AgingConfig` (or its quick variant
        when ``quick`` is set).
    workload_bytes:
        Size of the sequentially-read file.  Defaults to 4x the page cache,
        clamped below the aged free space so the aged allocation succeeds.
    snapshot_dir:
        Where the per-file-system state snapshots are written (created if
        missing).  Defaults to a fresh private temp directory per run so
        concurrent experiments can never clobber each other's state; the
        snapshots are part of the result (``cell.snapshot_path``) and the
        caller owns them -- pass an explicit ``snapshot_dir`` (or delete the
        reported paths) to manage their lifetime.

    Each file system's fresh/aged pair is one
    :class:`~repro.core.experiment.Experiment` with a two-valued ``snapshot``
    axis.
    """
    testbed = testbed if testbed is not None else paper_testbed()
    if aging is None:
        from repro.aging.engines import quick_aging_config

        aging = quick_aging_config() if quick else AgingConfig()
    config = config if config is not None else default_benchmark_config(quick)
    if workload_bytes is None:
        workload_bytes = min(
            4 * testbed.page_cache_bytes, int(aging.free_space_target_bytes * 0.8)
        )
    workload_bytes = max(workload_bytes, 8 * MiB)
    if workload_bytes >= aging.free_space_target_bytes:
        raise ValueError(
            f"workload_bytes ({workload_bytes}) must be below the aged free space "
            f"({aging.free_space_target_bytes})"
        )
    if snapshot_dir is None:
        snapshot_dir = tempfile.mkdtemp(prefix="fsbench-aged-")
    os.makedirs(snapshot_dir, exist_ok=True)

    spec = sequential_read_workload(workload_bytes)
    result = AgedVsFreshResult(testbed=testbed, workload_name=spec.name)

    for fs_type in dict.fromkeys(fs_types):
        stack = build_stack(fs_type, testbed=testbed, seed=aging.seed)
        aging_result = ChurnAger(aging).age(stack)
        snapshot = snapshot_stack(stack)
        path = os.path.join(snapshot_dir, f"aged-{fs_type}.snapshot.json")
        save_snapshot(snapshot, path)

        # Fresh vs aged is one experiment with a two-valued snapshot axis:
        # None means a freshly-formatted stack, the path the aged state.
        outcome = Experiment(
            grid=ParameterGrid.of(fs=[fs_type], workload=[spec], snapshot=[None, path]),
            name=f"aged-vs-fresh-{fs_type}",
            config=config,
            testbed=testbed,
        ).run()
        fresh = outcome.result_for(snapshot=None)
        aged = outcome.result_for(snapshot=path)

        result.cells[fs_type] = AgedVsFreshCell(
            fs_type=fs_type,
            fresh=fresh,
            aged=aged,
            aging=aging_result,
            snapshot_path=path,
            snapshot_fingerprint=snapshot.fingerprint,
            warnings=assess_aging(fresh, aged),
        )
    return result
