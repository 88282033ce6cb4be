"""Tests for the workload random distributions."""

import random

import pytest

from repro.fs.stack import build_stack
from repro.storage.config import scaled_testbed
from repro.workloads.fileset import FilesetSpec
from repro.workloads.randomdist import FixedValue, LogNormalSizes, UniformSizes
from repro.workloads.spec import FileSelector, FlowOp, OpType, WorkloadEngine, WorkloadSpec


@pytest.fixture
def rng():
    return random.Random(21)


class TestSizeDistributions:
    def test_fixed_value(self, rng):
        dist = FixedValue(4096)
        assert dist.sample(rng) == 4096
        assert dist.mean() == 4096
        with pytest.raises(ValueError):
            FixedValue(-1)

    def test_uniform_sizes_within_bounds_and_granular(self, rng):
        dist = UniformSizes(1024, 8192, granularity=1024)
        for _ in range(200):
            value = dist.sample(rng)
            assert 1024 <= value <= 8192
            assert value % 1024 == 0

    def test_uniform_invalid(self):
        with pytest.raises(ValueError):
            UniformSizes(100, 50)

    def test_lognormal_clamped(self, rng):
        dist = LogNormalSizes(median=8192, sigma=2.0, low=1024, high=64 * 1024)
        for _ in range(300):
            assert 1024 <= dist.sample(rng) <= 64 * 1024

    def test_lognormal_median_approximately_right(self, rng):
        dist = LogNormalSizes(median=10_000, sigma=0.5)
        samples = sorted(dist.sample(rng) for _ in range(2001))
        assert 8_000 <= samples[1000] <= 12_500

    def test_lognormal_invalid(self):
        with pytest.raises(ValueError):
            LogNormalSizes(median=0)


class TestSelectors:
    """A RANDOM file selector picks uniformly over the fileset (WorkloadEngine._pick_file)."""

    @staticmethod
    def random_pick_engine(file_count=10):
        flowop = FlowOp(op=OpType.READ, iosize=4096, file_selector=FileSelector.RANDOM)
        spec = WorkloadSpec(
            name="random-pick",
            flowops=[flowop],
            fileset=FilesetSpec(name="pool", file_count=file_count, size_distribution=FixedValue(4096)),
        )
        stack = build_stack("ext2", testbed=scaled_testbed(1.0 / 16.0), seed=13)
        engine = WorkloadEngine(stack, spec, seed=1)
        engine.setup()
        return engine, flowop

    def test_uniform_selector_covers_range(self):
        engine, flowop = self.random_pick_engine()
        picks = {engine._pick_file(engine._threads[0], flowop) for _ in range(500)}
        assert picks == set(range(10))

    def test_uniform_selector_empty_rejected(self):
        engine, flowop = self.random_pick_engine()
        engine.fileset.paths.clear()
        with pytest.raises(RuntimeError, match="empty fileset"):
            engine._pick_file(engine._threads[0], flowop)
