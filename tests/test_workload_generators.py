"""Tests for the micro workloads and the macro personalities."""

import pytest

from repro.fs.stack import build_stack
from repro.storage.config import scaled_testbed
from repro.workloads import (
    append_workload,
    create_delete_workload,
    fileserver_personality,
    metadata_mix_workload,
    oltp_personality,
    random_read_workload,
    random_write_workload,
    sequential_read_workload,
    sequential_write_workload,
    stat_workload,
    varmail_personality,
    webserver_personality,
)
from repro.workloads.spec import WorkloadEngine

MiB = 1024 * 1024


def tiny_stack(fs="ext2", seed=4):
    return build_stack(fs, testbed=scaled_testbed(1.0 / 16.0), seed=seed)


ALL_MICRO_FACTORIES = [
    lambda: random_read_workload(4 * MiB),
    lambda: sequential_read_workload(4 * MiB),
    lambda: random_write_workload(4 * MiB),
    lambda: sequential_write_workload(4 * MiB),
    lambda: append_workload(),
    lambda: create_delete_workload(file_count=20, directories=2),
    lambda: stat_workload(file_count=50, directories=5),
    lambda: metadata_mix_workload(file_count=30, directories=3),
]

ALL_PERSONALITY_FACTORIES = [
    lambda: webserver_personality(file_count=30, threads=2),
    lambda: fileserver_personality(file_count=30, threads=2),
    lambda: varmail_personality(file_count=20, threads=2),
    lambda: oltp_personality(database_size=4 * MiB, threads=2),
]


class TestWorkloadSpecsAreValid:
    @pytest.mark.parametrize("factory", ALL_MICRO_FACTORIES)
    def test_micro_specs_validate(self, factory):
        spec = factory()
        spec.validate()
        assert spec.dimensions

    @pytest.mark.parametrize("factory", ALL_PERSONALITY_FACTORIES)
    def test_personality_specs_validate(self, factory):
        spec = factory()
        spec.validate()
        assert spec.threads >= 1
        assert spec.description

    @pytest.mark.parametrize("factory", ALL_MICRO_FACTORIES + ALL_PERSONALITY_FACTORIES)
    def test_every_workload_executes(self, factory):
        stack = tiny_stack()
        engine = WorkloadEngine(stack, factory(), seed=2)
        executed = engine.run(max_ops=40)
        assert executed == 40
        assert stack.clock.now_ns > 0


class TestRandomReadWorkload:
    def test_names_reflect_file_size(self):
        assert "256" in random_read_workload(256 * MiB).name

    def test_custom_overhead(self):
        spec = random_read_workload(1 * MiB, op_overhead_ns=12_345.0)
        assert spec.op_overhead_ns == 12_345.0

    def test_random_read_touches_whole_file(self):
        stack = tiny_stack()
        spec = random_read_workload(2 * MiB, op_overhead_ns=0.0)
        engine = WorkloadEngine(stack, spec, seed=2)
        engine.run(max_ops=2000)
        ino = stack.vfs.fs.resolve(engine.fileset.path_of(0)).number
        assert stack.cache.resident_pages_of(ino) >= (2 * MiB // 4096) * 0.9


class TestSequentialVsRandom:
    def test_sequential_read_faster_than_random_cold(self):
        def total_time(spec_factory):
            stack = tiny_stack()
            spec = spec_factory(16 * MiB, op_overhead_ns=0.0)
            WorkloadEngine(stack, spec, seed=2).run(max_ops=300)
            return stack.clock.now_ns

        assert total_time(sequential_read_workload) < total_time(random_read_workload)
