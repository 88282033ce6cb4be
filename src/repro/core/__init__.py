"""The benchmarking core: the paper's proposed methodology, implemented.

The HotOS paper's position is that file systems must be evaluated as
multi-dimensional systems, with statistically honest reporting.  This
subpackage is that methodology as a library:

* :mod:`repro.core.dimensions` -- the five evaluation dimensions and coverage
  vectors for benchmarks.
* :mod:`repro.core.histogram` -- log2-bucket latency histograms (the paper's
  Filebench modification).
* :mod:`repro.core.timeline` -- throughput and histogram time series
  (Figures 2 and 4).
* :mod:`repro.core.stats` -- summary statistics, confidence intervals,
  bi-modality detection, fragility metrics.
* :mod:`repro.core.steady_state` -- warm-up trimming and steady-state
  detection.
* :mod:`repro.core.results` -- run/repetition/sweep result containers.
* :mod:`repro.core.runner` -- the measurement protocol: repetitions,
  cache-state control, environment-noise injection, interval sampling.
* :mod:`repro.core.parallel` -- process-pool fan-out over repetitions and the
  persistent result cache (bit-identical to serial execution).
* :mod:`repro.core.experiment` -- the declarative Experiment API: parameter
  grids over named axes (fs, workload, device, scheduler, cache size, aging
  snapshot, seed, protocol overrides) expanded onto the executor.
* :mod:`repro.core.frame` -- tidy result frames (one row per repetition x
  metric) with filter/group_by/pivot/summary and JSONL/CSV round-trips: the
  analysis layer's lingua franca.
* :mod:`repro.core.benchmark`, :mod:`repro.core.suite` -- nano-benchmarks and
  the multi-dimensional suite the paper calls for.
* :mod:`repro.core.report` -- multi-dimensional, range-based reporting.
* :mod:`repro.core.survey` -- the benchmark-usage survey behind Table 1.
"""

from repro.core.dimensions import Coverage, Dimension, DimensionVector
from repro.core.histogram import LatencyHistogram, bucket_label
from repro.core.persistence import load_run_result, save_run_result
from repro.core.results import RepetitionSet, RunResult, SweepResult
from repro.core.runner import (
    BenchmarkConfig,
    BenchmarkRunner,
    EnvironmentNoise,
    WarmupMode,
    run_single_repetition,
)
from repro.core.parallel import (
    CacheStats,
    ParallelExecutor,
    ResultCache,
    WorkUnit,
    cache_key,
    execute_unit,
)
from repro.core.stats import (
    SummaryStatistics,
    bimodality_coefficient,
    bootstrap_ci,
    confidence_interval,
    detect_outliers_iqr,
    fragility_index,
    required_repetitions,
    summarize,
    welch_t_test,
)
from repro.core.experiment import (
    Experiment,
    ExperimentCell,
    ExperimentResult,
    ParameterGrid,
)
from repro.core.frame import PivotTable, ResultFrame, rows_for_run, run_metrics
from repro.core.steady_state import SteadyStateDetector, detect_steady_state, trim_warmup
from repro.core.timeline import HistogramTimeline, IntervalSeries
from repro.core.benchmark import NanoBenchmark
from repro.core.suite import NanoBenchmarkSuite, SuiteResult, default_suite
from repro.core.report import ReportBuilder, ascii_plot, format_table
from repro.core.survey import (
    BenchmarkEntry,
    MeasuredSurvey,
    MeasuredSurveyResult,
    SurveyDatabase,
    load_paper_survey,
)

__all__ = [
    "Experiment",
    "ExperimentCell",
    "ExperimentResult",
    "ParameterGrid",
    "PivotTable",
    "ResultFrame",
    "rows_for_run",
    "run_metrics",
    "Coverage",
    "Dimension",
    "DimensionVector",
    "LatencyHistogram",
    "bucket_label",
    "RepetitionSet",
    "RunResult",
    "SweepResult",
    "BenchmarkConfig",
    "BenchmarkRunner",
    "EnvironmentNoise",
    "WarmupMode",
    "SummaryStatistics",
    "bimodality_coefficient",
    "bootstrap_ci",
    "confidence_interval",
    "detect_outliers_iqr",
    "fragility_index",
    "required_repetitions",
    "summarize",
    "welch_t_test",
    "SteadyStateDetector",
    "detect_steady_state",
    "trim_warmup",
    "HistogramTimeline",
    "IntervalSeries",
    "NanoBenchmark",
    "NanoBenchmarkSuite",
    "SuiteResult",
    "default_suite",
    "ReportBuilder",
    "ascii_plot",
    "format_table",
    "BenchmarkEntry",
    "MeasuredSurvey",
    "MeasuredSurveyResult",
    "SurveyDatabase",
    "load_paper_survey",
    "load_run_result",
    "save_run_result",
    "run_single_repetition",
    "CacheStats",
    "ParallelExecutor",
    "ResultCache",
    "WorkUnit",
    "cache_key",
    "execute_unit",
]
