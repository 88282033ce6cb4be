"""End-to-end integration tests: the paper's phenomena on a shrunken machine.

Each test reproduces one of the case-study observations on a 1/16-scale
testbed, exercising the whole stack (workload engine -> VFS -> cache ->
file system -> device -> statistics) rather than any single module.
"""

import pytest

from repro.analysis.fragility import assess_sweep
from repro.analysis.regimes import Regime, classify_repetitions
from repro.analysis.transition import find_transition
from repro.core.experiment import Experiment, ParameterGrid
from repro.core.runner import BenchmarkConfig, BenchmarkRunner, EnvironmentNoise, WarmupMode
from repro.experiments.figure1 import measure_file_sizes
from repro.fs.stack import build_stack
from repro.storage.cache import CachePolicy
from repro.storage.config import scaled_testbed
from repro.workloads.micro import create_delete_workload, random_read_workload
from repro.workloads.spec import WorkloadEngine

MiB = 1024 * 1024


@pytest.fixture(scope="module")
def testbed():
    return scaled_testbed(1.0 / 16.0)  # ~25.6 MiB page cache


def protocol(**overrides):
    values = dict(
        duration_s=1.0,
        repetitions=3,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=0.5,
        seed=17,
        noise=EnvironmentNoise(cache_noise_bytes=512 * 1024, cpu_noise_sigma=0.01),
    )
    values.update(overrides)
    return BenchmarkConfig(**values)


class TestFigure1Phenomenon:
    """The throughput cliff at the page-cache boundary (scaled down 16x)."""

    @pytest.fixture(scope="class")
    def sweep(self, testbed):
        sizes = [size_mb * MiB for size_mb in (8, 16, 24, 32, 64)]
        return measure_file_sizes("ext2", sizes, protocol(), testbed)

    def test_order_of_magnitude_cliff(self, sweep):
        means = {size: repetitions.throughput_summary().mean for size, repetitions in sweep.items()}
        assert means[8 * MiB] > 10 * means[64 * MiB]

    def test_cliff_located_at_cache_size(self, sweep, testbed):
        transition = find_transition(sweep)
        assert transition is not None
        assert transition.parameter_low >= 16 * MiB
        assert transition.parameter_high <= 32 * MiB
        assert testbed.page_cache_bytes <= 32 * MiB

    def test_io_bound_runs_have_higher_relative_spread(self, sweep):
        rsd = {
            size: repetitions.throughput_summary().relative_stddev_percent
            for size, repetitions in sweep.items()
        }
        assert rsd[64 * MiB] >= rsd[8 * MiB]

    def test_fragility_report_flags_the_cliff(self, sweep):
        report = assess_sweep(sweep)
        assert any(w.kind == "performance cliff" for w in report.warnings)

    def test_regimes_labelled_correctly(self, sweep):
        assert classify_repetitions(sweep[8 * MiB]) is Regime.MEMORY_BOUND
        assert classify_repetitions(sweep[64 * MiB]) is Regime.IO_BOUND


class TestFigure2Phenomenon:
    """Different file systems warm the cache at different rates."""

    def test_xfs_warms_faster_than_ext2(self, testbed):
        file_size = testbed.page_cache_bytes

        def hit_ratio_after(fs_type, simulated_seconds):
            stack = build_stack(fs_type, testbed=testbed, seed=23)
            engine = WorkloadEngine(stack, random_read_workload(file_size), seed=23)
            engine.setup()
            engine.run(duration_s=simulated_seconds)
            return stack.cache.stats.hit_ratio

        assert hit_ratio_after("xfs", 10.0) > hit_ratio_after("ext2", 10.0)

    @pytest.mark.slow
    def test_all_filesystems_converge_to_memory_speed(self, testbed):
        file_size = int(testbed.page_cache_bytes * 0.9)
        finals = {}
        for fs_type in ("ext2", "ext3", "ext4", "xfs"):
            config = protocol(duration_s=45.0, repetitions=1, warmup_mode=WarmupMode.NONE,
                              interval_s=5.0, noise=EnvironmentNoise(enabled=False))
            runner = BenchmarkRunner(fs_type, testbed=testbed, config=config)
            run = runner.run_once(random_read_workload(file_size))
            finals[fs_type] = run.timeline.throughputs()[-1]
        values = list(finals.values())
        assert max(values) / min(values) < 1.6


class TestFigure3Phenomenon:
    """Latency distributions are uni-modal at the extremes, bi-modal in between."""

    def test_half_cached_file_is_bimodal(self, testbed):
        config = protocol(duration_s=0.0, max_ops=800, repetitions=1,
                          noise=EnvironmentNoise(enabled=False))
        runner = BenchmarkRunner("ext2", testbed=testbed, config=config)
        run = runner.run_once(random_read_workload(testbed.page_cache_bytes * 2))
        assert run.histogram.is_bimodal()
        assert run.histogram.span_orders_of_magnitude() >= 2.5

    def test_cached_file_is_unimodal_and_fast(self, testbed):
        config = protocol(duration_s=0.0, max_ops=800, repetitions=1,
                          noise=EnvironmentNoise(enabled=False))
        runner = BenchmarkRunner("ext2", testbed=testbed, config=config)
        run = runner.run_once(random_read_workload(4 * MiB))
        assert not run.histogram.is_bimodal()
        assert run.histogram.mean_ns() < 100_000


class TestMetadataAndJournaling:
    def test_ext2_metadata_throughput_exceeds_ext3(self, testbed):
        """Journaling costs ext3 on create/delete churn."""
        config = protocol(duration_s=2.0, repetitions=2, warmup_mode=WarmupMode.NONE,
                          noise=EnvironmentNoise(enabled=False))
        outcome = Experiment(
            ParameterGrid.of(
                workload=[create_delete_workload(file_count=100, directories=5)],
                fs=["ext2", "ext3"],
            ),
            config=config,
            testbed=testbed,
        ).run()
        results = {
            fs_type: outcome.result_for(fs=fs_type).throughput_summary().mean
            for fs_type in ("ext2", "ext3")
        }
        assert results["ext2"] > results["ext3"]


class TestCachePolicyMatters:
    def test_eviction_policy_changes_measured_performance(self, testbed):
        """The same 'file system benchmark' number depends on the OS cache policy."""
        file_size = int(testbed.page_cache_bytes * 1.3)
        throughputs = {}
        for policy in (CachePolicy.LRU, CachePolicy.ARC):
            config = protocol(repetitions=2, noise=EnvironmentNoise(enabled=False))
            sweep = measure_file_sizes(
                "ext2", [file_size], config, testbed.with_cache_policy(policy)
            )
            throughputs[policy] = sweep[file_size].throughput_summary().mean
        assert len(set(round(v) for v in throughputs.values())) > 1


class TestStatisticalHonesty:
    def test_repetition_spread_is_reported_not_hidden(self, testbed):
        file_size = int(testbed.page_cache_bytes * 1.05)
        sweep = measure_file_sizes("ext2", [file_size], protocol(repetitions=4), testbed)
        summary = sweep[file_size].throughput_summary()
        assert summary.n == 4
        assert summary.ci95_low < summary.mean < summary.ci95_high
        # Near the boundary the spread must be visible in the summary.
        assert summary.relative_stddev_percent > 0
