"""Experiment harnesses: one module per figure/table of the paper.

Each harness builds the exact workload and measurement protocol of the
corresponding experiment in Section 3 of the paper (or the survey behind
Table 1), runs it on the simulated stack and returns a result object that can
render itself as text and check the paper's qualitative claims against the
measured data.  The ``benchmarks/`` directory exposes each harness through
pytest-benchmark.

The Figure 1-4 and transition-zoom harnesses take a ``scale``:
:func:`paper_scale` runs the original durations and repetition counts, and
the default, :func:`default_scale`, is shortened so the full set regenerates
in minutes.

Every harness runs on :class:`repro.core.experiment.Experiment` and is the
paper's entry point for its figure or table; ``EXPERIMENT_REGISTRY`` maps the
stable harness names (as printed by ``fsbench-rocket list``) to them.
"""

from repro.experiments.config import ExperimentScale, default_scale, paper_scale
from repro.experiments.figure1 import Figure1Result, run_figure1
from repro.experiments.figure2 import Figure2Result, run_figure2
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.figure4 import Figure4Result, run_figure4
from repro.experiments.scalability import (
    ScalabilityResult,
    run_scalability,
    scale_mix_workload,
)
from repro.experiments.ssd_steady import FreshVsSteadyResult, run_fresh_vs_steady
from repro.experiments.zoom import TransitionZoomResult, run_transition_zoom
from repro.experiments.table1 import Table1Result, run_table1


def _registry():
    """Name -> (runner, description) for every named experiment harness."""
    from repro.aging.experiment import run_aged_vs_fresh
    from repro.core.suite import NanoBenchmarkSuite
    from repro.core.survey import MeasuredSurvey

    return {
        "figure1": (run_figure1, "throughput + relative stddev vs file size (the cache cliff)"),
        "figure2": (run_figure2, "cache warm-up timelines across file systems"),
        "figure3": (run_figure3, "read-latency histograms across working-set sizes"),
        "figure4": (run_figure4, "latency histograms sampled per interval over a warm-up run"),
        "table1": (run_table1, "the benchmark-usage survey (add --measured to execute it)"),
        "zoom": (run_transition_zoom, "bisect the memory-to-disk transition region"),
        "aged-vs-fresh": (run_aged_vs_fresh, "same benchmark on fresh vs realistically aged state"),
        "ssd-steady": (run_fresh_vs_steady, "same benchmark on fresh vs preconditioned (steady-state) SSD"),
        "scalability": (run_scalability, "throughput and tail latency vs concurrent clients on fresh/aged/steady-ssd stacks"),
        "suite": (NanoBenchmarkSuite, "the multi-dimensional nano-benchmark suite"),
        "survey": (MeasuredSurvey, "measured counterpart of Table 1 across dimensions"),
    }


#: Cache behind the lazy ``EXPERIMENT_REGISTRY`` module attribute.
_experiment_registry = None


def __getattr__(name):
    # EXPERIMENT_REGISTRY is the named-experiment catalogue ``fsbench-rocket
    # list`` enumerates: stable name -> (runner callable or class, one-line
    # description), all executing through repro.core.experiment.Experiment.
    # Built on first access so importing this package does not eagerly pull
    # the aging/suite/survey subsystems (_registry imports them lazily).
    if name == "EXPERIMENT_REGISTRY":
        global _experiment_registry
        if _experiment_registry is None:
            _experiment_registry = _registry()
        return _experiment_registry
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EXPERIMENT_REGISTRY",
    "ExperimentScale",
    "default_scale",
    "paper_scale",
    "Figure1Result",
    "run_figure1",
    "Figure2Result",
    "run_figure2",
    "Figure3Result",
    "run_figure3",
    "Figure4Result",
    "run_figure4",
    "TransitionZoomResult",
    "run_transition_zoom",
    "Table1Result",
    "run_table1",
    "FreshVsSteadyResult",
    "run_fresh_vs_steady",
    "ScalabilityResult",
    "run_scalability",
    "scale_mix_workload",
]
