"""Tests for the experiment harnesses (shrunken configurations).

These tests run each figure's harness on aggressively scaled-down testbeds so
that the *mechanism* of every experiment is exercised end-to-end without the
cost of the full default or paper-scale protocols (the benchmarks do those).
"""

import pytest

from repro.core.experiment import Experiment
from repro.core.runner import BenchmarkConfig, EnvironmentNoise, WarmupMode
from repro.core.stats import fragility_index
from repro.experiments import (
    run_figure1,
    run_figure2,
    run_figure3,
    run_figure4,
    run_table1,
    run_transition_zoom,
)
from repro.experiments.config import ExperimentScale, default_scale, paper_scale, quick_scale
from repro.experiments.figure1 import measure_file_sizes
from repro.storage.config import scaled_testbed

MiB = 1024 * 1024


def tiny_scale(**overrides) -> ExperimentScale:
    """A unit-test scale: tiny machine, short runs."""
    values = dict(
        name="unit-test",
        figure1_duration_s=1.0,
        figure1_repetitions=2,
        figure1_sizes_mb=(8, 16, 24, 32, 48),
        figure2_duration_s=60.0,
        figure2_file_mb=26,
        figure2_testbed_scale=1.0 / 16.0,
        figure3_ops=600,
        figure3_sizes_mb=(8, 64, 256),
        figure4_duration_s=60.0,
        figure4_file_mb=20,
        interval_s=5.0,
    )
    values.update(overrides)
    return ExperimentScale(**values)


@pytest.fixture
def experiment_runs(monkeypatch):
    """Every ExperimentResult produced while the test runs, in order."""
    outcomes = []
    real_run = Experiment.run

    def run(self, *args, **kwargs):
        outcomes.append(real_run(self, *args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(Experiment, "run", run)
    return outcomes


class TestScales:
    def test_predefined_scales_validate(self):
        default_scale().validate()
        paper_scale().validate()
        quick_scale().validate()

    def test_paper_scale_matches_protocol(self):
        scale = paper_scale()
        assert scale.figure1_repetitions == 10
        assert len(scale.figure1_sizes_mb) == 16
        assert scale.figure2_duration_s == 1200.0
        assert scale.figure2_testbed_scale == 1.0
        assert scale.interval_s == 10.0

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            tiny_scale(figure1_duration_s=0).validate()
        with pytest.raises(ValueError):
            tiny_scale(figure2_testbed_scale=2.0).validate()


class TestFigure1Harness:
    def test_cliff_appears_at_the_cache_boundary(self):
        testbed = scaled_testbed(1.0 / 16.0)  # ~25.6 MiB page cache
        result = run_figure1(
            fs_type="ext2", testbed=testbed, scale=tiny_scale(), seed=3
        )
        rows = result.rows()
        assert len(rows) == 5
        means = {size: mean for size, mean, _ in rows}
        # Sizes below the cache run at memory speed; sizes above crawl.
        assert means[8] > 5 * means[48]
        assert result.transition is not None
        assert fragility_index([(size, mean) for size, mean, _ in rows]) > 0.5
        assert "Figure 1" in result.render()

    def test_figure1_io_bound_variance_exceeds_memory_bound(self):
        testbed = scaled_testbed(1.0 / 16.0)
        result = run_figure1(fs_type="ext2", testbed=testbed, scale=tiny_scale(), seed=3)
        rows = result.rows()
        memory_rsd = rows[0][2]
        io_rsd = max(rsd for size, _, rsd in rows if size >= 32)
        assert io_rsd >= memory_rsd


class TestMeasureFileSizes:
    CONFIG = BenchmarkConfig(
        duration_s=0.0,
        max_ops=50,
        repetitions=2,
        warmup_mode=WarmupMode.NONE,
        noise=EnvironmentNoise(enabled=False),
    )

    def test_sizes_sharing_a_spec_name_are_two_cells_and_a_repeat_runs_once(
        self, experiment_runs
    ):
        sizes = [8 * MiB, 8.5 * MiB, 8 * MiB]
        sweep = measure_file_sizes("ext2", sizes, self.CONFIG, scaled_testbed(1.0 / 16.0))
        (outcome,) = experiment_runs
        assert [cell.spec.name for cell in outcome.cells] == ["random-read-8m"] * 2
        assert [cell.spec.fileset.size_distribution.mean() for cell in outcome.cells] == [
            8 * MiB,
            8.5 * MiB,
        ]
        assert list(sweep) == [8 * MiB, 8.5 * MiB]
        assert sweep[8 * MiB] is outcome.sets[outcome.cells[0].label]
        assert sweep[8.5 * MiB] is outcome.sets[outcome.cells[1].label]
        assert [len(repetitions) for repetitions in sweep.values()] == [2, 2]


class TestFigure2Harness:
    @pytest.mark.slow
    def test_warmup_curves_diverge_then_converge(self):
        result = run_figure2(fs_types=("ext2", "xfs"), scale=tiny_scale(), seed=3)
        assert set(result.filesystems()) == {"ext2", "xfs"}
        # Cache warm-up means every file system speeds up over the run.
        for fs_name in result.filesystems():
            series = result.runs[fs_name].timeline.throughputs()
            assert series[-1] > series[0] * 2
        # Mid-run the two differ substantially (different cluster sizes).
        assert result.mid_run_spread() >= 2.0
        # XFS (larger cluster reads) warms no later than ext2.
        xfs_warm = result.warmup_interval_index("xfs")
        ext2_warm = result.warmup_interval_index("ext2")
        if xfs_warm is not None and ext2_warm is not None:
            assert xfs_warm <= ext2_warm
        assert "Figure 2" in result.render()

    @pytest.mark.slow
    def test_explicit_testbed_is_respected(self):
        testbed = scaled_testbed(1.0 / 16.0)
        result = run_figure2(fs_types=("ext2",), testbed=testbed, scale=tiny_scale(), seed=3)
        assert result.file_size_bytes == testbed.page_cache_bytes


class TestFigure3Harness:
    def test_histogram_modality_follows_working_set_size(self):
        testbed = scaled_testbed(1.0 / 16.0)
        result = run_figure3(
            fs_type="ext2", testbed=testbed, scale=tiny_scale(), sizes_mb=(8, 64, 256), seed=3
        )
        checks = result.checks()
        assert checks["small_file_single_memory_peak"]
        assert checks["medium_file_bimodal"]
        assert checks["large_file_disk_peak_dominates"]
        assert checks["latencies_span_three_orders_of_magnitude"]
        assert result.latency_span_orders() >= 3.0
        assert "Figure 3" in result.render()

    def test_histogram_counts_match_requested_ops(self):
        testbed = scaled_testbed(1.0 / 16.0)
        result = run_figure3(
            fs_type="ext2", testbed=testbed, scale=tiny_scale(figure3_ops=300),
            sizes_mb=(8, 64), seed=3
        )
        for size_mb in result.sizes_mb():
            assert result.histograms[size_mb].total == 300


class TestFigure4Harness:
    @pytest.mark.slow
    def test_disk_peak_fades_as_cache_warms(self):
        testbed = scaled_testbed(1.0 / 16.0)
        result = run_figure4(fs_type="ext2", testbed=testbed, scale=tiny_scale(), seed=3)
        checks = result.checks()
        assert checks["enough_intervals"]
        assert checks["disk_peak_dominates_early"]
        assert checks["memory_peak_dominates_late"]
        assert result.bimodal_fraction() > 0.0
        migration = result.peak_migration()
        assert migration[0][1] > migration[-1][1]  # disk fraction shrinks
        assert "Figure 4" in result.render()


class TestTransitionZoomHarness:
    def test_locates_the_cliff_of_a_cache_smaller_than_the_coarse_sweep(self, experiment_runs):
        # A ~25.6 MiB cache leaves no room for the coarse sizes 32 and 64 MiB
        # below it; the zoom sweeps the sizes that exist.
        testbed = scaled_testbed(1.0 / 16.0)
        cache_bytes = testbed.page_cache_bytes
        result = run_transition_zoom(
            fs_type="ext2", testbed=testbed, scale=tiny_scale(), seed=3
        )
        assert all(result.checks().values()), result.checks()
        # One experiment for each sweep, one for each bisection step.
        cells = [len(outcome.cells) for outcome in experiment_runs]
        assert cells == [3] + [1] * result.extra_measurements + [5]
        region = result.refined_region
        assert region.parameter_low <= cache_bytes * 1.25
        assert region.parameter_high >= cache_bytes * 0.75


class TestTable1Harness:
    def test_all_checks_pass(self):
        result = run_table1()
        assert all(result.checks().values())
        assert result.row_count() == 19
        assert result.most_used() == "Ad-hoc"
        rendered = result.render()
        assert "Postmark" in rendered and "Ad-hoc" in rendered
