"""The multi-dimensional nano-benchmark suite.

Section 4 of the paper: "We propose that at a minimum, an encompassing
benchmark should include in-memory, disk layout, cache warm-up/eviction, and
meta-data operations performance evaluation components."  :func:`default_suite`
is that minimum suite (plus an I/O-dimension device characterisation and a
scaling component), and :class:`NanoBenchmarkSuite` runs it across file
systems and reports per-dimension results -- as ranges and distributions, not
single numbers.  The (benchmark x file system x repetition) grid dispatches
through :mod:`repro.core.parallel`, so suites can fan out over worker
processes and skip already-measured cells via the persistent result cache
without changing any result bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.benchmark import NanoBenchmark
from repro.core.dimensions import Dimension, DimensionVector
from repro.core.experiment import Experiment, ParameterGrid
from repro.core.parallel import ParallelExecutor
from repro.core.results import RepetitionSet
from repro.core.runner import BenchmarkConfig, WarmupMode
from repro.fs.stack import DEFAULT_FS_TYPES
from repro.storage.config import TestbedConfig, paper_testbed
from repro.workloads.micro import (
    create_delete_workload,
    random_read_workload,
    sequential_read_workload,
    stat_workload,
)

MiB = 1024 * 1024


def default_suite(
    testbed: Optional[TestbedConfig] = None,
    quick: bool = False,
) -> List[NanoBenchmark]:
    """The paper's minimum suite, sized relative to the testbed's page cache.

    The component working-set sizes are derived from the testbed so that each
    component actually measures what it claims to measure:

    * *in-memory*: a file at ~25% of the page cache, pre-warmed;
    * *disk layout*: sequential and random cold reads of a file ~4x the cache;
    * *cache warm-up/eviction*: a file at ~95% of the cache, measured from
      cold, reported as a timeline;
    * *meta-data*: create/delete churn and stat scans;
    * *scaling*: the in-memory component at 1 and 8 threads.
    """
    testbed = testbed if testbed is not None else paper_testbed()
    cache_bytes = testbed.page_cache_bytes
    reps = 3 if quick else 5
    short = 5.0 if quick else 20.0

    in_memory_size = max(16 * MiB, int(cache_bytes * 0.25))
    ondisk_size = int(cache_bytes * 4)
    warmup_size = int(cache_bytes * 0.95)

    benchmarks: List[NanoBenchmark] = [
        NanoBenchmark(
            name="inmemory-random-read",
            description="Random reads of a file well inside the page cache (pre-warmed)",
            workload_factory=lambda size=in_memory_size: random_read_workload(size),
            dimensions=DimensionVector.of(isolates=[Dimension.CACHING]),
            config=BenchmarkConfig(
                duration_s=short, repetitions=reps, warmup_mode=WarmupMode.PREWARM
            ),
        ),
        NanoBenchmark(
            name="ondisk-sequential-read",
            description="Cold-cache sequential read of a file 4x the page cache",
            workload_factory=lambda size=ondisk_size: sequential_read_workload(size),
            dimensions=DimensionVector.of(isolates=[Dimension.ONDISK], exercises=[Dimension.IO]),
            config=BenchmarkConfig(
                duration_s=short, repetitions=reps, warmup_mode=WarmupMode.NONE
            ),
        ),
        NanoBenchmark(
            name="ondisk-random-read",
            description="Cold-cache random read of a file 4x the page cache",
            workload_factory=lambda size=ondisk_size: random_read_workload(size),
            dimensions=DimensionVector.of(isolates=[Dimension.ONDISK], exercises=[Dimension.IO]),
            config=BenchmarkConfig(
                duration_s=short, repetitions=reps, warmup_mode=WarmupMode.NONE
            ),
        ),
        NanoBenchmark(
            name="cache-warmup",
            description="Random read of a file just under the cache size, measured from cold",
            workload_factory=lambda size=warmup_size: random_read_workload(size),
            dimensions=DimensionVector.of(isolates=[Dimension.CACHING]),
            config=BenchmarkConfig(
                duration_s=120.0 if quick else 400.0,
                repetitions=max(2, reps - 2),
                warmup_mode=WarmupMode.NONE,
                interval_s=10.0,
                histogram_interval_s=10.0,
            ),
        ),
        NanoBenchmark(
            name="metadata-create-delete",
            description="Create/delete churn across directories",
            workload_factory=lambda: create_delete_workload(file_count=500, directories=10),
            dimensions=DimensionVector.of(isolates=[Dimension.METADATA]),
            config=BenchmarkConfig(
                duration_s=short, repetitions=reps, warmup_mode=WarmupMode.NONE
            ),
        ),
        NanoBenchmark(
            name="metadata-stat",
            description="Random stat() calls over a large population",
            workload_factory=lambda: stat_workload(file_count=2000, directories=40),
            dimensions=DimensionVector.of(isolates=[Dimension.METADATA], exercises=[Dimension.CACHING]),
            config=BenchmarkConfig(
                duration_s=short, repetitions=reps, warmup_mode=WarmupMode.NONE
            ),
        ),
        NanoBenchmark(
            name="scaling-threads",
            description="In-memory random reads at 8 threads (vs 1 thread in-memory component)",
            workload_factory=lambda size=in_memory_size: random_read_workload(size, threads=8),
            dimensions=DimensionVector.of(isolates=[Dimension.SCALING], exercises=[Dimension.CACHING]),
            config=BenchmarkConfig(
                duration_s=short, repetitions=reps, warmup_mode=WarmupMode.PREWARM
            ),
        ),
    ]
    return benchmarks


@dataclass
class SuiteResult:
    """Results of a suite run: benchmark x file system -> repetition set."""

    testbed: TestbedConfig
    results: Dict[str, Dict[str, RepetitionSet]] = field(default_factory=dict)
    benchmarks: Dict[str, NanoBenchmark] = field(default_factory=dict)

    def add(self, benchmark: NanoBenchmark, fs_type: str, repetitions: RepetitionSet) -> None:
        """Record the result of one benchmark on one file system."""
        self.results.setdefault(benchmark.name, {})[fs_type] = repetitions
        self.benchmarks[benchmark.name] = benchmark

    def benchmark_names(self) -> List[str]:
        """Benchmarks present in the result, in insertion order."""
        return list(self.results)

    def filesystems(self) -> List[str]:
        """File systems present in the result."""
        names: List[str] = []
        for per_fs in self.results.values():
            for fs_name in per_fs:
                if fs_name not in names:
                    names.append(fs_name)
        return names

    def result_for(self, benchmark_name: str, fs_type: str) -> RepetitionSet:
        """The repetition set of one (benchmark, file system) cell."""
        return self.results[benchmark_name][fs_type]

    def by_dimension(self) -> Dict[Dimension, List[str]]:
        """Benchmark names grouped by their primary dimension."""
        grouped: Dict[Dimension, List[str]] = {}
        for name, benchmark in self.benchmarks.items():
            primary = benchmark.primary_dimension()
            if primary is not None:
                grouped.setdefault(primary, []).append(name)
        return grouped


class NanoBenchmarkSuite:
    """Runs a list of nano-benchmarks across one or more file systems.

    Parameters
    ----------
    benchmarks, testbed, quick:
        What to run and on what machine (defaults to :func:`default_suite`
        on the paper's testbed).
    n_workers:
        Worker processes for the fan-out over (benchmark, file system,
        repetition); ``1`` runs serially in-process, ``None``/``0`` uses one
        worker per CPU.  Results are bit-identical for any worker count.
    cache_dir:
        Directory of a persistent result cache; ``None`` disables caching.
        With a cache, re-running the suite skips every already-measured cell.
    snapshot_path:
        The aging axis: when set, every repetition of every benchmark starts
        from the :class:`~repro.aging.snapshot.StateSnapshot` stored at this
        path instead of a fresh file system; the snapshot's fingerprint
        joins the cache key, so fresh and aged measurements never collide.
        A snapshot holds the state of exactly one file system, so
        ``fs_types`` at run time must name only that file system (checked
        before any measurement starts).
    """

    def __init__(
        self,
        benchmarks: Optional[Sequence[NanoBenchmark]] = None,
        testbed: Optional[TestbedConfig] = None,
        quick: bool = False,
        n_workers: Optional[int] = 1,
        cache_dir: Optional[str] = None,
        snapshot_path: Optional[str] = None,
    ) -> None:
        self.testbed = testbed if testbed is not None else paper_testbed()
        self.benchmarks = list(benchmarks) if benchmarks is not None else default_suite(self.testbed, quick=quick)
        if not self.benchmarks:
            raise ValueError("suite must contain at least one benchmark")
        names = [benchmark.name for benchmark in self.benchmarks]
        if len(set(names)) != len(names):
            # Benchmark names key the result cells (and the executor's work
            # groups); duplicates would pool unrelated measurements.
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise ValueError(f"duplicate benchmark names in suite: {', '.join(duplicates)}")
        self.n_workers = n_workers
        self.cache_dir = cache_dir
        self.snapshot_path = snapshot_path

    def as_experiment(self, fs_types: Sequence[str] = DEFAULT_FS_TYPES) -> Experiment:
        """This suite as a declarative :class:`~repro.core.experiment.Experiment`.

        The grid is ``workload (the suite's benchmarks) x fs`` -- plus the
        aging snapshot when configured -- expanded workload-major.  Duplicate
        file system names are dropped (keeping first occurrence), matching
        the old behaviour where a repeated ``--fs`` simply overwrote the same
        result cell.  A snapshot that holds another file system's state is
        rejected when the cells expand, before anything is measured.
        """
        if not fs_types:
            raise ValueError("fs_types must not be empty")
        axes = {
            "workload": list(self.benchmarks),
            "fs": list(dict.fromkeys(fs_types)),
        }
        if self.snapshot_path is not None:
            axes["snapshot"] = [self.snapshot_path]
        return Experiment(
            grid=ParameterGrid(axes),
            name="nano-benchmark-suite",
            testbed=self.testbed,
            n_workers=self.n_workers,
            cache_dir=self.cache_dir,
        )

    def run(
        self,
        fs_types: Sequence[str] = DEFAULT_FS_TYPES,
        executor: Optional[ParallelExecutor] = None,
    ) -> SuiteResult:
        """Run every benchmark on every file system.

        The suite runs as one :class:`~repro.core.experiment.Experiment`
        (see :meth:`as_experiment`) and files each cell's repetition set
        under its benchmark, so :class:`SuiteResult` can carry each
        benchmark's description and dimension claim for the report.
        ``executor`` overrides the one the experiment builds from
        ``n_workers`` and ``cache_dir`` (used by surveys that share one
        cache and worker pool across several suites).
        """
        outcome = self.as_experiment(fs_types).run(executor=executor)
        suite_result = SuiteResult(testbed=self.testbed)
        for benchmark in self.benchmarks:
            for fs_type in dict.fromkeys(fs_types):
                suite_result.add(
                    benchmark, fs_type, outcome.result_for(workload=benchmark.name, fs=fs_type)
                )
        return suite_result
