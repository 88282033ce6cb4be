"""fsbench-rocket: file system benchmarking as a multi-dimensional discipline.

A reproduction of "Benchmarking File System Benchmarking: It *IS* Rocket
Science" (Tarasov, Bhanage, Zadok, Seltzer -- HotOS XIII, 2011) as a usable
Python library:

* :mod:`repro.core` -- the benchmarking methodology the paper calls for:
  dimension taxonomy, nano-benchmark suite, statistically honest runners,
  latency histograms, timelines, steady-state detection, range-based
  reporting, the Table-1 survey database and its measured counterpart, the
  parallel executor + persistent result cache that fan surveys out over
  processes with bit-identical results, and the declarative
  :class:`~repro.core.experiment.Experiment` API (parameter grids over named
  axes, tidy :class:`~repro.core.frame.ResultFrame` results) that every
  harness runs on.
* :mod:`repro.storage` -- the simulated storage substrate (virtual clock,
  disk/SSD models including the stateful page-mapped FTL with garbage
  collection and TRIM, page cache, readahead, block layer).
* :mod:`repro.fs` -- behavioural Ext2/Ext3/XFS models and the VFS gluing the
  stack together.
* :mod:`repro.workloads` -- the workload model (flowops, filesets), micro
  workloads, Filebench-like personalities, PostMark, compile and IOmeter-like
  generators, and trace record/replay.
* :mod:`repro.analysis` -- regime labelling, transition detection, fragility
  and honest cross-system comparison.
* :mod:`repro.aging` -- file system aging engines, fragmentation metrics and
  deterministic state snapshots (the aged-vs-fresh scenario axis).
* :mod:`repro.obs` -- virtual-time tracing and full-stack latency
  attribution: a span-stack :class:`~repro.obs.Tracer`, the per-layer
  :class:`~repro.obs.Attribution` breakdown behind ``fsbench-rocket
  trace``/``explain``, and the unified metrics registry.
* :mod:`repro.store` -- the packed result store: read-optimized, compressed,
  integrity-checked ``.frpack`` campaign artifacts (pack/merge/verify/query
  behind ``fsbench-rocket results``) that plug back into execution as a
  read-through cache tier.
* :mod:`repro.experiments` -- one harness per figure/table of the paper.

Quick start::

    from repro import Experiment, ParameterGrid

    outcome = Experiment(
        ParameterGrid.of(fs=("ext2", "ext4"), workload=("postmark",), seed=range(5))
    ).run()
    print(outcome.render())
    outcome.frame.filter(metric="throughput_ops_s").to_csv("results.csv")
"""

from repro.core import (
    BenchmarkConfig,
    BenchmarkRunner,
    Coverage,
    Dimension,
    DimensionVector,
    Experiment,
    ExperimentResult,
    LatencyHistogram,
    MeasuredSurvey,
    NanoBenchmark,
    NanoBenchmarkSuite,
    ParallelExecutor,
    ParameterGrid,
    PivotTable,
    RepetitionSet,
    ResultCache,
    ResultFrame,
    RunResult,
    SummaryStatistics,
    SurveyDatabase,
    WarmupMode,
    default_suite,
    load_paper_survey,
    run_single_repetition,
    summarize,
)
from repro.aging import (
    AgingConfig,
    ChurnAger,
    StateSnapshot,
    TraceAger,
    load_snapshot,
    restore_stack,
    run_aged_vs_fresh,
    save_snapshot,
    snapshot_stack,
)
from repro.fs import build_stack, StorageStack
from repro.obs import Attribution, MetricsRegistry, Tracer
from repro.storage import (
    FlashGeometry,
    FlashTranslationLayer,
    TestbedConfig,
    paper_testbed,
    precondition_ssd,
    scaled_testbed,
)
from repro.workloads import (
    WorkloadEngine,
    WorkloadSpec,
    random_read_workload,
    sequential_read_workload,
)

#: The single source of the package version: setup.py parses it from here and
#: the CLI's ``--version`` flag reports it.
__version__ = "1.9.0"

__all__ = [
    "Experiment",
    "ExperimentResult",
    "ParameterGrid",
    "PivotTable",
    "ResultFrame",
    "AgingConfig",
    "ChurnAger",
    "StateSnapshot",
    "TraceAger",
    "load_snapshot",
    "restore_stack",
    "run_aged_vs_fresh",
    "save_snapshot",
    "snapshot_stack",
    "BenchmarkConfig",
    "BenchmarkRunner",
    "Coverage",
    "Dimension",
    "DimensionVector",
    "LatencyHistogram",
    "NanoBenchmark",
    "NanoBenchmarkSuite",
    "RepetitionSet",
    "RunResult",
    "SummaryStatistics",
    "SurveyDatabase",
    "WarmupMode",
    "default_suite",
    "load_paper_survey",
    "summarize",
    "MeasuredSurvey",
    "ParallelExecutor",
    "ResultCache",
    "run_single_repetition",
    "build_stack",
    "StorageStack",
    "Attribution",
    "MetricsRegistry",
    "Tracer",
    "paper_testbed",
    "scaled_testbed",
    "TestbedConfig",
    "FlashGeometry",
    "FlashTranslationLayer",
    "precondition_ssd",
    "WorkloadEngine",
    "WorkloadSpec",
    "random_read_workload",
    "sequential_read_workload",
    "__version__",
]
