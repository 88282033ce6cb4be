"""Throughput and latency vs. concurrent clients: the contention scenario axis.

The survey's published evaluations measure one benchmark process on an
otherwise idle machine; real deployments run many.  This experiment sweeps
the ``clients`` axis (the deterministic virtual-time event loop of
:mod:`repro.core.concurrency`) across three stack states -- a fresh file
system on the mechanical disk, the same file system realistically *aged*,
and a fresh file system on the steady-state (preconditioned) FTL SSD --
and reports how aggregate throughput scales and per-client tail latency
degrades as sessions contend for the shared cache, allocator, journal and
device queue.

The default workload (:func:`scale_mix_workload`) gives every client one
large preallocated file it random-reads and fsync-appends.  Each state then
fails in its own honest way:

* **fresh/hdd** -- each client's file is contiguous but lives in its own
  block group, so contending clients drag the head across the whole disk:
  aggregate throughput *drops* below the single-client baseline.
* **aged/hdd** -- the churn-aged allocator shreds every file into
  hole-sized fragments, so the uncontended baseline is already slower than
  fresh.  (Under heavy contention aging can *help* on a mechanical disk:
  the aged free space is confined to a narrow region, which bounds
  inter-client seeks -- an effect the per-series tables make visible
  rather than hide.)
* **steady/ssd-ftl** -- no seeks, so throughput scales much better, but
  every fsynced append lands on a preconditioned FTL with no free erase
  blocks: garbage-collection time grows with the number of contending
  writers.

Everything is a standard :class:`~repro.core.experiment.Experiment` grid
(``clients`` is just a ``BenchmarkConfig`` override axis), so the sweep
fans out, caches and reproduces bit-identically like every other
experiment; the aged series restores a deterministic
:class:`~repro.aging.snapshot.StateSnapshot` manufactured on the fly,
exactly as ``aged-vs-fresh`` does.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from statistics import fmean
from typing import Dict, Optional, Sequence, Tuple

from repro.core.experiment import Experiment, ParameterGrid
from repro.core.frame import ResultFrame
from repro.core.report import format_table
from repro.core.results import RepetitionSet, RunResult
from repro.core.runner import BenchmarkConfig, WarmupMode
from repro.storage.config import TestbedConfig, paper_testbed
from repro.workloads.fileset import FilesetSpec
from repro.workloads.randomdist import UniformSizes
from repro.workloads.spec import (
    FileSelector,
    FlowOp,
    OffsetMode,
    OpType,
    WorkloadSpec,
)

KiB = 1024
MiB = 1024 * 1024

#: The series labels, in report order.
FRESH_HDD = "fresh/hdd"
AGED_HDD = "aged/hdd"
STEADY_SSD_FTL = "steady/ssd-ftl"


def scale_mix_workload(
    file_bytes: int = 30 * MiB,
    iosize: int = 64 * KiB,
    read_repeat: int = 8,
    op_overhead_ns: float = 98_000.0,
) -> WorkloadSpec:
    """The default contention workload: one big file per client, reads + appends.

    Each client owns a single ``file_bytes`` preallocated file (the
    multi-client runner derives per-client filesets automatically) and
    alternates ``read_repeat`` uniform random reads with one fsynced append.
    The single-file working set is deliberate: it isolates *intra-file*
    placement, so the aged allocator's fragmentation shows up as a slower
    uncontended baseline instead of being masked by inter-file distance,
    while the fsynced appends generate the flash-translation-layer write
    traffic the steady-SSD series needs.  Size the sweep so every client's
    file fits the aged free space (``clients * file_bytes`` must stay well
    under the aging profile's free-space target).
    """
    return WorkloadSpec(
        name="scale-mix",
        description=(
            "Uniform random reads of one large preallocated file "
            "interleaved with fsynced appends"
        ),
        flowops=[
            FlowOp(
                op=OpType.READ,
                iosize=iosize,
                offset_mode=OffsetMode.RANDOM,
                file_selector=FileSelector.SAME,
                repeat=read_repeat,
            ),
            FlowOp(
                op=OpType.APPEND,
                iosize=iosize,
                file_selector=FileSelector.SAME,
                fsync_after=True,
            ),
        ],
        fileset=FilesetSpec(
            name="scaleset",
            file_count=1,
            size_distribution=UniformSizes(file_bytes, file_bytes),
            directories=1,
            prealloc_fraction=1.0,
        ),
        threads=1,
        op_overhead_ns=op_overhead_ns,
        dimensions=["io", "scaling"],
    )


def default_scalability_config(quick: bool = False) -> BenchmarkConfig:
    """Cold-cache, warmup-free protocol: contention starts at operation one."""
    return BenchmarkConfig(
        duration_s=2.0 if quick else 8.0,
        repetitions=2 if quick else 3,
        warmup_mode=WarmupMode.NONE,
        cold_cache=True,
    )


def _run_p95_ns(run: RunResult) -> float:
    """The per-client p95 of one repetition.

    Multi-client runs report the mean of the exact per-client percentiles;
    the single-client baseline has no per-client table (it is the legacy
    path, by design) so its one client's p95 comes from the latency
    histogram -- the same quantity, bucket-approximated.
    """
    if run.client_metrics:
        return fmean(row["p95_latency_ns"] for row in run.client_metrics)
    return run.p95_latency_ns


@dataclass
class ScalabilitySeries:
    """One stack state measured across the client counts.

    All values are means over the repetitions of the corresponding cell;
    ratios are relative to the smallest client count measured (the
    uncontended baseline).
    """

    label: str
    clients: Tuple[int, ...]
    throughput_ops_s: Dict[int, float]
    p95_latency_ns: Dict[int, float]
    gc_time_ns: Dict[int, float]

    @property
    def baseline(self) -> int:
        """The smallest measured client count."""
        return min(self.clients)

    def speedup(self, clients: int) -> float:
        """Aggregate throughput at ``clients`` relative to the baseline."""
        base = self.throughput_ops_s[self.baseline]
        return self.throughput_ops_s[clients] / base if base > 0 else float("inf")

    def p95_degradation(self, clients: int) -> float:
        """Per-client p95 at ``clients`` relative to the baseline."""
        base = self.p95_latency_ns[self.baseline]
        return self.p95_latency_ns[clients] / base if base > 0 else float("inf")


@dataclass
class ScalabilityResult:
    """The three series plus the tidy frame of every repetition."""

    fs_type: str
    workload_name: str
    testbed: TestbedConfig
    clients: Tuple[int, ...]
    series: Dict[str, ScalabilitySeries]
    frame: ResultFrame
    snapshot_path: str

    @property
    def max_clients(self) -> int:
        return max(self.clients)

    def checks(self) -> Dict[str, bool]:
        """The experiment's qualitative claims against the measured data.

        Contention must be visible (sublinear scaling everywhere,
        measurable per-client tail degradation everywhere, and an outright
        aggregate-throughput *drop* on the seek-bound fresh disk), and
        state must cost something: the aged file system's fragmentation
        makes its uncontended baseline slower than fresh, and the
        steady-state FTL pays garbage-collection time that grows with the
        number of contending writers.
        """
        top = self.max_clients
        fresh = self.series[FRESH_HDD]
        aged = self.series[AGED_HDD]
        ssd = self.series[STEADY_SSD_FTL]
        return {
            "aggregate_throughput_sublinear": all(
                s.speedup(top) < top for s in self.series.values()
            ),
            "per_client_p95_degrades": all(
                s.p95_degradation(top) > 1.05 for s in self.series.values()
            ),
            "fresh_hdd_seek_bound_under_load": fresh.speedup(top) < 1.0,
            "aged_baseline_slower_than_fresh": (
                aged.throughput_ops_s[aged.baseline]
                < fresh.throughput_ops_s[fresh.baseline]
            ),
            "ssd_ftl_gc_grows_with_clients": (
                ssd.gc_time_ns[top] > ssd.gc_time_ns[ssd.baseline]
            ),
        }

    def render(self) -> str:
        """Per-series scaling table with the qualitative checks appended."""
        headers = ["clients"]
        for label in (FRESH_HDD, AGED_HDD, STEADY_SSD_FTL):
            headers += [f"{label} ops/s", f"{label} p95 ms"]
        rows = []
        for count in self.clients:
            row = [str(count)]
            for label in (FRESH_HDD, AGED_HDD, STEADY_SSD_FTL):
                series = self.series[label]
                row.append(
                    f"{series.throughput_ops_s[count]:.0f} "
                    f"({series.speedup(count):.2f}x)"
                )
                row.append(
                    f"{series.p95_latency_ns[count] / 1e6:.1f} "
                    f"({series.p95_degradation(count):.2f}x)"
                )
            rows.append(row)
        lines = [
            "Multi-client scalability",
            "========================",
            f"workload: {self.workload_name} on {self.fs_type} "
            f"({self.testbed.describe()})",
            f"aged state: {self.snapshot_path}",
            "",
            format_table(headers, rows),
            "",
        ]
        for name, passed in self.checks().items():
            lines.append(f"[{'PASS' if passed else 'FAIL'}] {name}")
        return "\n".join(lines)


def _series_from_sets(
    label: str, clients: Sequence[int], sets: Dict[int, RepetitionSet]
) -> ScalabilitySeries:
    return ScalabilitySeries(
        label=label,
        clients=tuple(clients),
        throughput_ops_s={
            count: fmean(run.throughput_ops_s for run in sets[count].runs)
            for count in clients
        },
        p95_latency_ns={
            count: fmean(_run_p95_ns(run) for run in sets[count].runs)
            for count in clients
        },
        gc_time_ns={
            count: fmean(
                run.environment.get("device_gc_time_ns", 0.0) for run in sets[count].runs
            )
            for count in clients
        },
    )


def _aged_snapshot(
    fs_type: str, testbed: TestbedConfig, snapshot_dir: Optional[str], quick: bool
) -> str:
    """Manufacture (or reuse) the aged state the aged series restores from."""
    if snapshot_dir is None:
        snapshot_dir = tempfile.mkdtemp(prefix="fsbench-scalability-")
    os.makedirs(snapshot_dir, exist_ok=True)
    path = os.path.join(snapshot_dir, f"aged-{fs_type}.snapshot.json")
    if not os.path.exists(path):
        from repro.aging.engines import AgingConfig, ChurnAger, quick_aging_config
        from repro.aging.snapshot import save_snapshot, snapshot_stack
        from repro.fs.stack import build_stack

        aging = quick_aging_config() if quick else AgingConfig()
        stack = build_stack(fs_type, testbed=testbed, seed=aging.seed)
        ChurnAger(aging).age(stack)
        save_snapshot(snapshot_stack(stack), path)
    return path


def run_scalability(
    fs_type: str = "ext4",
    workload: Optional[object] = None,
    clients: Sequence[int] = (1, 2, 4),
    testbed: Optional[TestbedConfig] = None,
    config: Optional[BenchmarkConfig] = None,
    quick: bool = False,
    n_workers: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    snapshot_dir: Optional[str] = None,
) -> ScalabilityResult:
    """Sweep client counts over fresh-hdd, aged-hdd and steady ssd-ftl stacks.

    Parameters
    ----------
    fs_type, workload:
        File system (``FS_REGISTRY``) and workload (``WORKLOAD_REGISTRY``
        name or any object the workload axis accepts); the default is
        :func:`scale_mix_workload`, designed so every qualitative check
        has a physical mechanism behind it (see the module docstring).
    clients:
        Client counts to sweep; must contain at least two distinct values
        (the smallest is the uncontended baseline of every ratio).
    testbed, config:
        Machine and protocol; default to the paper testbed and
        :func:`default_scalability_config`.  The testbed must be
        hdd-based: the device axis supplies the SSD variant per cell.
    quick:
        Shorter protocol, fewer repetitions, CI-sized aging profile.
    n_workers, cache_dir:
        Parallel fan-out and persistent result cache.  ``clients`` is part
        of each cell's cache key (except ``clients=1``, whose key is the
        legacy one -- shared with every other experiment that measured the
        same cell).
    snapshot_dir:
        Where the aged snapshot is written (a private temp directory by
        default).  An existing ``aged-<fs>.snapshot.json`` there is reused,
        so repeated runs age only once.

    The sweep is two grids rather than one cross-product because an aged
    snapshot records file-system geometry: state aged on the 250 GB
    mechanical disk cannot restore onto the 4 GiB flash device, so the
    ``snapshot`` axis only meets the hdd testbed.
    """
    testbed = testbed if testbed is not None else paper_testbed()
    config = config if config is not None else default_scalability_config(quick)
    workload = workload if workload is not None else scale_mix_workload()
    counts = sorted(dict.fromkeys(int(count) for count in clients))
    if len(counts) < 2:
        raise ValueError("clients must contain at least two distinct counts")
    if any(count < 1 for count in counts):
        raise ValueError("client counts must be >= 1")

    snapshot_path = _aged_snapshot(fs_type, testbed, snapshot_dir, quick)

    devices = Experiment(
        grid=ParameterGrid.of(
            fs=[fs_type],
            workload=[workload],
            device=["hdd", "ssd-ftl-steady"],
            clients=counts,
        ),
        name=f"scalability-devices-{fs_type}",
        config=config,
        testbed=testbed,
        n_workers=n_workers,
        cache_dir=cache_dir,
    ).run()
    aged = Experiment(
        grid=ParameterGrid.of(
            fs=[fs_type],
            workload=[workload],
            snapshot=[snapshot_path],
            clients=counts,
        ),
        name=f"scalability-aged-{fs_type}",
        config=config,
        testbed=testbed,
        n_workers=n_workers,
        cache_dir=cache_dir,
    ).run()

    series = {
        FRESH_HDD: _series_from_sets(
            FRESH_HDD,
            counts,
            {c: devices.result_for(device="hdd", clients=c) for c in counts},
        ),
        AGED_HDD: _series_from_sets(
            AGED_HDD,
            counts,
            {c: aged.result_for(clients=c) for c in counts},
        ),
        STEADY_SSD_FTL: _series_from_sets(
            STEADY_SSD_FTL,
            counts,
            {c: devices.result_for(device="ssd-ftl-steady", clients=c) for c in counts},
        ),
    }

    workload_name = devices.cells[0].axes.get("workload", str(workload))
    return ScalabilityResult(
        fs_type=fs_type,
        workload_name=str(workload_name),
        testbed=testbed,
        clients=tuple(counts),
        series=series,
        frame=devices.frame + aged.frame,
        snapshot_path=snapshot_path,
    )
