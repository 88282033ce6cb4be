"""Shared experiment scaling.

The paper's protocol (20-minute runs, 10 repetitions, 16 file sizes) is
faithful but slow to simulate in full on every benchmark run.  The Figure 1-4
and transition-zoom harnesses therefore take an :class:`ExperimentScale` with
two presets:

* :func:`default_scale` -- shortened measured windows and fewer repetitions;
  the *shape* of every figure is preserved (the physics does not depend on
  how long we average).
* :func:`paper_scale` -- the original durations and repetition counts, for
  when fidelity matters more than wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass

MiB = 1024 * 1024
GiB = 1024 * MiB


@dataclass(frozen=True)
class ExperimentScale:
    """Durations and repetition counts used by the experiment harnesses.

    Attributes
    ----------
    name:
        "default" or "paper" (free-form for custom scales).
    figure1_duration_s, figure1_repetitions:
        Measured window and repetitions per file size for Figure 1.
    figure1_sizes_mb:
        File sizes for the Figure 1 sweep, in MiB.
    figure2_duration_s:
        Length of the Figure 2 timeline (the paper records 20 minutes).
    figure2_file_mb:
        File size of the Figure 2/timeline experiment (410 MB in the paper).
        Only used when an explicit testbed is supplied; by default the
        harness follows the paper's definition and uses "the largest file
        that fits in the page cache" of whatever testbed it runs on.
    figure2_testbed_scale:
        Fraction by which the simulated machine is shrunk for the Figure 2
        warm-up experiment.  Shrinking RAM and file size together preserves
        the curve's shape exactly (the same number of cache misses per byte
        of file) while keeping the default regeneration time reasonable;
        ``paper_scale()`` uses 1.0.
    figure3_ops:
        Operations per histogram in Figure 3.
    figure3_sizes_mb:
        File sizes of the Figure 3 histograms (64 MB, 1024 MB, 25 GB).
    figure4_duration_s:
        Length of the Figure 4 histogram-timeline run.
    figure4_file_mb:
        File size of the Figure 4 experiment (256 MB in the paper).
    interval_s:
        Timeline sampling interval (10 s in the paper).
    """

    name: str
    figure1_duration_s: float
    figure1_repetitions: int
    figure1_sizes_mb: tuple
    figure2_duration_s: float
    figure2_file_mb: int
    figure2_testbed_scale: float
    figure3_ops: int
    figure3_sizes_mb: tuple
    figure4_duration_s: float
    figure4_file_mb: int
    interval_s: float = 10.0

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical scales."""
        if self.figure1_duration_s <= 0 or self.figure2_duration_s <= 0 or self.figure4_duration_s <= 0:
            raise ValueError("durations must be positive")
        if self.figure1_repetitions <= 0 or self.figure3_ops <= 0:
            raise ValueError("repetitions and op counts must be positive")
        if not self.figure1_sizes_mb or not self.figure3_sizes_mb:
            raise ValueError("size lists must not be empty")
        if not (0.0 < self.figure2_testbed_scale <= 1.0):
            raise ValueError("figure2_testbed_scale must be in (0, 1]")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")


def default_scale() -> ExperimentScale:
    """Shortened protocol used by tests, benchmarks and examples."""
    return ExperimentScale(
        name="default",
        figure1_duration_s=5.0,
        figure1_repetitions=3,
        figure1_sizes_mb=tuple(range(64, 1025, 64)),
        figure2_duration_s=360.0,
        figure2_file_mb=410,
        figure2_testbed_scale=0.25,
        figure3_ops=4000,
        figure3_sizes_mb=(64, 1024, 25 * 1024),
        figure4_duration_s=280.0,
        figure4_file_mb=256,
        interval_s=10.0,
    )


def paper_scale() -> ExperimentScale:
    """The paper's original protocol (slow: full 20-minute simulated runs)."""
    return ExperimentScale(
        name="paper",
        figure1_duration_s=60.0,
        figure1_repetitions=10,
        figure1_sizes_mb=tuple(range(64, 1025, 64)),
        figure2_duration_s=1200.0,
        figure2_file_mb=410,
        figure2_testbed_scale=1.0,
        figure3_ops=20000,
        figure3_sizes_mb=(64, 1024, 25 * 1024),
        figure4_duration_s=280.0,
        figure4_file_mb=256,
        interval_s=10.0,
    )


def quick_scale() -> ExperimentScale:
    """An even smaller protocol for unit tests (seconds of wall clock)."""
    return ExperimentScale(
        name="quick",
        figure1_duration_s=2.0,
        figure1_repetitions=2,
        figure1_sizes_mb=(256, 384, 448, 512, 1024),
        figure2_duration_s=150.0,
        figure2_file_mb=410,
        figure2_testbed_scale=0.125,
        figure3_ops=800,
        figure3_sizes_mb=(64, 1024, 4096),
        figure4_duration_s=280.0,
        figure4_file_mb=256,
        interval_s=10.0,
    )
