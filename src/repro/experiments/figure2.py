"""Figure 2: Ext2, Ext3 and XFS throughput over time (cache warm-up).

Protocol (Section 3.1): a 410 MB file -- "the largest file that fits in the
page cache" of the 512 MB machine -- read randomly by one thread, throughput
recorded every 10 seconds from a cold cache.  The paper's observations:

* at the start all three file systems are limited to disk throughput;
* at the end all three run at memory speed;
* in between ("between 4 and 13 minutes") they differ, by up to nearly an
  order of magnitude, because they warm the cache at different rates;
* only the whole curve characterises the systems fairly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import Experiment, ParameterGrid
from repro.core.frame import ResultFrame
from repro.core.parallel import group_label
from repro.core.report import checks_line
from repro.core.results import RunResult
from repro.core.runner import BenchmarkConfig, EnvironmentNoise, WarmupMode
from repro.core.steady_state import detect_steady_state
from repro.experiments.config import ExperimentScale, MiB, default_scale
from repro.storage.config import TestbedConfig, paper_testbed, scaled_testbed
from repro.workloads.micro import random_read_workload

DEFAULT_FILESYSTEMS = ("ext2", "ext3", "xfs")


@dataclass
class Figure2Result:
    """Per-file-system throughput timelines for the warm-up experiment."""

    file_size_bytes: int
    runs: Dict[str, RunResult] = field(default_factory=dict)
    scale_name: str = "default"

    def filesystems(self) -> List[str]:
        """File systems present, in insertion order."""
        return list(self.runs)

    def series(self, fs_type: str) -> List[Tuple[float, float]]:
        """The (time, ops/s) curve of one file system."""
        return self.runs[fs_type].timeline.throughput_series()

    def mid_run_spread(self) -> float:
        """Largest cross-file-system throughput ratio over the middle intervals.

        This is the paper's "differences ranging anywhere from a few
        percentage points to nearly an order of magnitude" claim in a single
        number: how far apart the systems get while the cache warms.
        """
        matrices = [self.runs[fs].timeline.throughputs() for fs in self.filesystems()]
        length = min(len(m) for m in matrices)
        if length == 0:
            return 1.0
        worst = 1.0
        for index in range(length):
            column = [m[index] for m in matrices if m[index] > 0]
            if len(column) >= 2:
                worst = max(worst, max(column) / min(column))
        return worst

    def endpoint_agreement(self) -> Tuple[float, float]:
        """Cross-FS max/min ratio at the first and at the last interval."""
        first = []
        last = []
        for fs in self.filesystems():
            throughputs = self.runs[fs].timeline.throughputs()
            if throughputs:
                first.append(throughputs[0])
                last.append(throughputs[-1])
        def ratio(values: List[float]) -> float:
            positive = [v for v in values if v > 0]
            return (max(positive) / min(positive)) if len(positive) >= 2 else 1.0
        return ratio(first), ratio(last)

    def warmup_interval_index(self, fs_type: str) -> Optional[int]:
        """Interval at which a file system's throughput became steady (warm)."""
        return detect_steady_state(self.runs[fs_type].timeline.throughputs(), window=4, cov_threshold=0.15)

    def checks(self) -> Dict[str, bool]:
        """The paper's qualitative claims, evaluated against the measured data."""
        start_ratio, end_ratio = self.endpoint_agreement()
        warmups = {fs: self.warmup_interval_index(fs) for fs in self.filesystems()}
        known = {fs: w for fs, w in warmups.items() if w is not None}
        distinct_order = len(set(known.values())) > 1 if len(known) > 1 else False
        return {
            "similar_at_cold_start": start_ratio <= 2.0,
            "similar_when_warm": end_ratio <= 1.5,
            "large_mid_run_differences": self.mid_run_spread() >= 3.0,
            "filesystems_warm_at_different_times": distinct_order,
        }

    def to_frame(self) -> ResultFrame:
        """The warm-up curves as a tidy frame (one row per fs x interval)."""
        frame = ResultFrame()
        for fs in self.filesystems():
            timeline = self.runs[fs].timeline
            for index, throughput in enumerate(timeline.throughputs()):
                frame.append(
                    {
                        "experiment": "figure2",
                        "fs": fs,
                        "time_s": (index + 1) * timeline.interval_s,
                        "metric": "interval_throughput_ops_s",
                        "value": throughput,
                    }
                )
        return frame

    def render(self) -> str:
        """Figure-2-as-text: one throughput column per file system.

        The table is a pivot of :meth:`to_frame` (time down, file systems
        across) -- the shared frame renderer, not bespoke table code.
        """
        table = self.to_frame().pivot(index="time_s", columns="fs").render(
            index_headers=["time (s)"],
            column_header=lambda fs: f"{fs} ops/s",
            value_format="{:.0f}",
            index_format="{:.0f}",
        )
        start_ratio, end_ratio = self.endpoint_agreement()
        summary = (
            f"\nCold-start cross-FS ratio {start_ratio:.2f}x, warm ratio {end_ratio:.2f}x, "
            f"worst mid-run ratio {self.mid_run_spread():.1f}x\n"
            + checks_line(self.checks())
        )
        return (
            f"Figure 2 reproduction -- {self.file_size_bytes // MiB} MB file, random read from cold cache\n\n"
            + table
            + summary
        )


def run_figure2(
    fs_types: Sequence[str] = DEFAULT_FILESYSTEMS,
    testbed: Optional[TestbedConfig] = None,
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
) -> Figure2Result:
    """Run the warm-up timeline experiment for each file system.

    Following the paper, the file is "the largest file that fits in the page
    cache" of the testbed.  When no explicit testbed is given, the scale's
    ``figure2_testbed_scale`` shrinks the machine (RAM and file together) so
    the default regeneration stays fast while preserving the curve's shape;
    ``paper_scale()`` uses the full 512 MB machine and its 410 MB file.
    """
    scale = scale if scale is not None else default_scale()
    scale.validate()
    if testbed is None:
        testbed = (
            paper_testbed()
            if scale.figure2_testbed_scale >= 1.0
            else scaled_testbed(scale.figure2_testbed_scale)
        )
    file_size = testbed.page_cache_bytes

    config = BenchmarkConfig(
        duration_s=scale.figure2_duration_s,
        repetitions=1,
        warmup_mode=WarmupMode.NONE,
        interval_s=scale.interval_s,
        histogram_interval_s=None,
        cold_cache=True,
        seed=seed,
        # A single timeline per file system, exactly like the paper's figure:
        # no cross-repetition environment noise (the file must keep fitting
        # in the cache for the warm endpoint to be reached).
        noise=EnvironmentNoise(enabled=False),
    )
    spec = random_read_workload(file_size)
    ordered_fs = list(dict.fromkeys(fs_types))
    outcome = Experiment(
        grid=ParameterGrid.of(fs=ordered_fs, workload=[spec]),
        name="figure2",
        config=config,
        testbed=testbed,
    ).run()
    result = Figure2Result(file_size_bytes=file_size, scale_name=scale.name)
    for fs_type in ordered_fs:
        result.runs[fs_type] = outcome.sets[group_label(spec.name, fs_type)].first()
    return result
