"""Tests for result containers and the benchmark runner."""

import pytest

from repro.core.experiment import Experiment, ParameterGrid
from repro.core.histogram import from_latencies
from repro.core.results import RepetitionSet, RunResult
from repro.core.runner import (
    BenchmarkConfig,
    BenchmarkRunner,
    EnvironmentNoise,
    WarmupMode,
)
from repro.core.timeline import IntervalSeries
from repro.storage.config import scaled_testbed
from repro.workloads.micro import random_read_workload, create_delete_workload

MiB = 1024 * 1024


def make_run(throughput=100.0, repetition=0, hit_ratio=1.0, latencies=None) -> RunResult:
    histogram = from_latencies(latencies if latencies is not None else [1000.0] * 10)
    return RunResult(
        workload_name="w",
        fs_name="ext2",
        repetition=repetition,
        seed=repetition,
        measured_duration_s=10.0,
        warmup_duration_s=1.0,
        operations=int(throughput * 10),
        throughput_ops_s=throughput,
        histogram=histogram,
        timeline=IntervalSeries(interval_s=1.0),
        cache_hit_ratio=hit_ratio,
    )


class TestRunResult:
    def test_latency_properties(self):
        run = make_run(latencies=[1000.0, 2000.0, 3000.0])
        assert run.mean_latency_ns == pytest.approx(2000.0)
        assert run.p95_latency_ns >= run.mean_latency_ns
        assert run.p99_latency_ns >= run.p95_latency_ns

    def test_describe(self):
        assert "ext2" in make_run().describe()


class TestRepetitionSet:
    def test_aggregation(self):
        repetitions = RepetitionSet(label="test")
        for i, throughput in enumerate([100.0, 110.0, 90.0]):
            repetitions.add(make_run(throughput, repetition=i))
        assert len(repetitions) == 3
        assert repetitions.throughputs() == [100.0, 110.0, 90.0]
        summary = repetitions.throughput_summary()
        assert summary.mean == pytest.approx(100.0)
        assert repetitions.latency_summary().n == 3
        assert repetitions.merged_histogram().total == 30
        assert repetitions.first().repetition == 0
        assert len(repetitions.hit_ratios()) == 3

    def test_iterable(self):
        repetitions = RepetitionSet(label="test", runs=[make_run()])
        assert [run.fs_name for run in repetitions] == ["ext2"]


class TestBenchmarkConfigValidation:
    def test_defaults_valid(self):
        BenchmarkConfig().validate()

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(duration_s=0, max_ops=None).validate()
        with pytest.raises(ValueError):
            BenchmarkConfig(repetitions=0).validate()
        with pytest.raises(ValueError):
            BenchmarkConfig(interval_s=0).validate()
        with pytest.raises(ValueError):
            BenchmarkConfig(histogram_interval_s=0).validate()
        with pytest.raises(ValueError):
            BenchmarkConfig(warmup_mode=WarmupMode.DURATION, warmup_s=0).validate()
        with pytest.raises(ValueError):
            BenchmarkConfig(noise=EnvironmentNoise(cache_noise_bytes=-1)).validate()

    def test_with_repetitions_copy(self):
        config = BenchmarkConfig(repetitions=3)
        assert config.with_repetitions(7).repetitions == 7
        assert config.repetitions == 3


def run_cell(fs_type, spec, testbed, config) -> RepetitionSet:
    """Every repetition of ``spec`` on ``fs_type``, run as a one-cell experiment."""
    grid = ParameterGrid.of(workload=[spec], fs=[fs_type])
    return Experiment(grid, config=config, testbed=testbed).run().result_for(fs=fs_type)


class TestBenchmarkRunner:
    @pytest.fixture
    def testbed(self):
        return scaled_testbed(1.0 / 16.0)

    def test_run_produces_requested_repetitions(self, testbed, no_noise_config):
        repetitions = run_cell("ext2", random_read_workload(4 * MiB), testbed, no_noise_config)
        assert len(repetitions) == no_noise_config.repetitions
        for run in repetitions:
            assert run.operations > 0
            assert run.throughput_ops_s > 0
            assert run.measured_duration_s >= no_noise_config.duration_s * 0.9
            assert run.histogram.total == run.operations

    def test_prewarm_gives_memory_bound_results(self, testbed, no_noise_config):
        runner = BenchmarkRunner("ext2", testbed=testbed, config=no_noise_config)
        run = runner.run_once(random_read_workload(4 * MiB))
        assert run.cache_hit_ratio > 0.99
        assert run.warmup_duration_s > 0

    def test_cold_run_measures_the_disk(self, testbed):
        config = BenchmarkConfig(
            duration_s=1.0, repetitions=1, warmup_mode=WarmupMode.NONE,
            noise=EnvironmentNoise(enabled=False),
        )
        runner = BenchmarkRunner("ext2", testbed=testbed, config=config)
        run = runner.run_once(random_read_workload(16 * MiB))
        assert run.cache_hit_ratio < 0.9
        assert run.device_reads > 0

    def test_same_seed_is_reproducible_without_noise(self, testbed, no_noise_config):
        runner = BenchmarkRunner("ext2", testbed=testbed, config=no_noise_config)
        first = runner.run_once(random_read_workload(4 * MiB), repetition=0)
        second = runner.run_once(random_read_workload(4 * MiB), repetition=0)
        assert first.throughput_ops_s == pytest.approx(second.throughput_ops_s)

    def test_noise_perturbs_environment(self, testbed):
        config = BenchmarkConfig(
            duration_s=0.5, repetitions=3, warmup_mode=WarmupMode.PREWARM,
            noise=EnvironmentNoise(cache_noise_bytes=4 * MiB, cpu_noise_sigma=0.05),
        )
        repetitions = run_cell("ext2", random_read_workload(2 * MiB), testbed, config)
        caches = {run.environment["page_cache_bytes"] for run in repetitions}
        cpu_factors = {run.environment["cpu_speed_factor"] for run in repetitions}
        assert len(caches) > 1
        assert len(cpu_factors) > 1

    def test_duration_warmup_mode(self, testbed):
        config = BenchmarkConfig(
            duration_s=0.5, repetitions=1, warmup_mode=WarmupMode.DURATION, warmup_s=0.5,
            noise=EnvironmentNoise(enabled=False),
        )
        runner = BenchmarkRunner("ext2", testbed=testbed, config=config)
        run = runner.run_once(random_read_workload(2 * MiB))
        assert run.warmup_duration_s >= 0.5

    def test_steady_state_warmup_mode(self, testbed):
        config = BenchmarkConfig(
            duration_s=0.5, repetitions=1, warmup_mode=WarmupMode.STEADY_STATE,
            max_warmup_s=20.0, interval_s=0.5, noise=EnvironmentNoise(enabled=False),
        )
        runner = BenchmarkRunner("ext2", testbed=testbed, config=config)
        run = runner.run_once(random_read_workload(2 * MiB))
        assert run.operations > 0

    def test_max_ops_limit(self, testbed):
        config = BenchmarkConfig(
            duration_s=0.0, max_ops=123, repetitions=1, warmup_mode=WarmupMode.PREWARM,
            noise=EnvironmentNoise(enabled=False),
        )
        runner = BenchmarkRunner("ext2", testbed=testbed, config=config)
        run = runner.run_once(random_read_workload(2 * MiB))
        assert run.operations == 123

    def test_histogram_timeline_collection(self, testbed):
        config = BenchmarkConfig(
            duration_s=1.0, repetitions=1, warmup_mode=WarmupMode.NONE,
            histogram_interval_s=0.25, noise=EnvironmentNoise(enabled=False),
        )
        runner = BenchmarkRunner("ext2", testbed=testbed, config=config)
        run = runner.run_once(random_read_workload(8 * MiB))
        assert run.histogram_timeline is not None
        assert len(run.histogram_timeline) >= 2

    def test_raw_latency_collection(self, testbed):
        config = BenchmarkConfig(
            duration_s=0.2, repetitions=1, collect_raw_latencies=True,
            warmup_mode=WarmupMode.PREWARM, noise=EnvironmentNoise(enabled=False),
        )
        runner = BenchmarkRunner("ext2", testbed=testbed, config=config)
        run = runner.run_once(random_read_workload(1 * MiB))
        assert run.raw_latencies_ns is not None
        assert len(run.raw_latencies_ns) == run.operations

    def test_metadata_workload_through_runner(self, testbed, no_noise_config):
        spec = create_delete_workload(file_count=50, directories=5)
        repetitions = run_cell("ext3", spec, testbed, no_noise_config)
        assert repetitions.throughput_summary().mean > 0

    @pytest.mark.parametrize("fs_type", ["ext2", "ext3", "ext4", "xfs"])
    def test_all_filesystems_run(self, fs_type, testbed, no_noise_config):
        runner = BenchmarkRunner(fs_type, testbed=testbed, config=no_noise_config)
        run = runner.run_once(random_read_workload(2 * MiB))
        assert run.fs_name == fs_type

    def test_custom_stack_factory_used(self, testbed, no_noise_config):
        calls = []

        def factory(fs_type, testbed_arg, seed, cpu_factor):
            from repro.fs.stack import build_stack

            calls.append(fs_type)
            return build_stack(fs_type, testbed=testbed_arg, seed=seed, cpu_speed_factor=cpu_factor)

        runner = BenchmarkRunner("ext2", testbed=testbed, config=no_noise_config, stack_factory=factory)
        runner.run_once(random_read_workload(1 * MiB))
        assert calls == ["ext2"]
