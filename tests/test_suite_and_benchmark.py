"""Tests for NanoBenchmark and the suite."""

import pytest

from repro.core.benchmark import NanoBenchmark
from repro.core.dimensions import Dimension, DimensionVector
from repro.core.runner import BenchmarkConfig, EnvironmentNoise, WarmupMode
from repro.core.suite import NanoBenchmarkSuite, default_suite
from repro.storage.config import scaled_testbed
from repro.workloads.micro import random_read_workload

MiB = 1024 * 1024


def quick_protocol(**overrides):
    values = dict(
        duration_s=0.5,
        repetitions=2,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=0.25,
        noise=EnvironmentNoise(enabled=False),
    )
    values.update(overrides)
    return BenchmarkConfig(**values)


class TestNanoBenchmark:
    def make_benchmark(self):
        return NanoBenchmark(
            name="inmemory",
            description="random reads of a cached file",
            workload_factory=lambda: random_read_workload(2 * MiB),
            dimensions=DimensionVector.of(isolates=[Dimension.CACHING]),
            config=quick_protocol(),
        )

    def test_build_workload_returns_fresh_specs(self):
        benchmark = self.make_benchmark()
        assert benchmark.build_workload() is not benchmark.build_workload()

    def test_primary_dimension(self):
        assert self.make_benchmark().primary_dimension() is Dimension.CACHING
        empty = NanoBenchmark("x", "d", lambda: random_read_workload(MiB))
        assert empty.primary_dimension() is None

    def test_run_returns_repetitions(self):
        benchmark = self.make_benchmark()
        result = benchmark.run("ext2", testbed=scaled_testbed(1.0 / 16.0))
        assert len(result) == 2
        assert result.throughput_summary().mean > 0

    def test_describe_mentions_dimensions(self):
        assert "caching" in self.make_benchmark().describe()


class TestDefaultSuite:
    def test_covers_the_papers_minimum_components(self):
        suite = default_suite()
        names = " ".join(b.name for b in suite)
        assert "inmemory" in names
        assert "ondisk" in names
        assert "cache-warmup" in names
        assert "metadata" in names
        covered = set()
        for benchmark in suite:
            covered.update(benchmark.dimensions.covered_dimensions())
        assert covered == set(Dimension)

    def test_each_component_isolates_something(self):
        for benchmark in default_suite():
            assert any(benchmark.dimensions.isolates(d) for d in Dimension), benchmark.name

    def test_working_sets_derived_from_testbed(self):
        big = default_suite(scaled_testbed(1.0))
        small = default_suite(scaled_testbed(0.125))
        big_size = big[0].build_workload().fileset.size_distribution.mean()
        small_size = small[0].build_workload().fileset.size_distribution.mean()
        assert big_size > small_size


class TestSuiteRun:
    def test_suite_runs_across_filesystems(self):
        testbed = scaled_testbed(1.0 / 16.0)
        benchmarks = [
            NanoBenchmark(
                name="inmemory-mini",
                description="cached random reads",
                workload_factory=lambda: random_read_workload(2 * MiB),
                dimensions=DimensionVector.of(isolates=[Dimension.CACHING]),
                config=quick_protocol(),
            ),
            NanoBenchmark(
                name="ondisk-mini",
                description="cold random reads",
                workload_factory=lambda: random_read_workload(16 * MiB),
                dimensions=DimensionVector.of(isolates=[Dimension.ONDISK]),
                config=quick_protocol(warmup_mode=WarmupMode.NONE),
            ),
        ]
        suite = NanoBenchmarkSuite(benchmarks=benchmarks, testbed=testbed)
        result = suite.run(fs_types=("ext2", "xfs"))
        assert result.benchmark_names() == ["inmemory-mini", "ondisk-mini"]
        assert result.filesystems() == ["ext2", "xfs"]
        for benchmark_name in result.benchmark_names():
            for fs_name in result.filesystems():
                assert len(result.result_for(benchmark_name, fs_name)) == 2
        by_dimension = result.by_dimension()
        assert Dimension.CACHING in by_dimension
        assert Dimension.ONDISK in by_dimension

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            NanoBenchmarkSuite(benchmarks=[])
        suite = NanoBenchmarkSuite(testbed=scaled_testbed(1.0 / 16.0), quick=True)
        with pytest.raises(ValueError):
            suite.run(fs_types=())
