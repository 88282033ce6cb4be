"""Tests for the workload description language and execution engine."""

import pytest

from repro.fs.stack import build_stack
from repro.storage.config import scaled_testbed
from repro.workloads.fileset import FilesetSpec, single_file_fileset
from repro.workloads.randomdist import FixedValue
from repro.workloads.spec import (
    FileSelector,
    FlowOp,
    OffsetMode,
    OpType,
    WorkloadEngine,
    WorkloadSpec,
)

KiB = 1024
MiB = 1024 * 1024


def make_stack(seed=13):
    return build_stack("ext2", testbed=scaled_testbed(1.0 / 16.0), seed=seed)


def simple_spec(**overrides) -> WorkloadSpec:
    values = dict(
        name="test-workload",
        flowops=[FlowOp(op=OpType.READ, iosize=8 * KiB, offset_mode=OffsetMode.RANDOM)],
        fileset=single_file_fileset(2 * MiB),
        threads=1,
        op_overhead_ns=10_000.0,
    )
    values.update(overrides)
    return WorkloadSpec(**values)


class TestSpecValidation:
    def test_valid_spec(self):
        simple_spec().validate()

    def test_empty_flowops_rejected(self):
        with pytest.raises(ValueError):
            simple_spec(flowops=[]).validate()

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            simple_spec(threads=0).validate()

    def test_flowop_validation(self):
        with pytest.raises(ValueError):
            FlowOp(op=OpType.READ, iosize=0)
        with pytest.raises(ValueError):
            FlowOp(op=OpType.READ, repeat=0)
        with pytest.raises(ValueError):
            FlowOp(op=OpType.READ, think_ns=-1)


class TestEngineExecution:
    def test_run_by_op_count(self):
        engine = WorkloadEngine(make_stack(), simple_spec(), seed=1)
        executed = engine.run(max_ops=100)
        assert executed == 100
        assert engine.ops_executed == 100

    def test_run_by_duration(self):
        stack = make_stack()
        engine = WorkloadEngine(stack, simple_spec(), seed=1)
        engine.run(duration_s=0.5)
        assert stack.clock.now_s >= 0.5

    def test_run_requires_a_stop_condition(self):
        engine = WorkloadEngine(make_stack(), simple_spec(), seed=1)
        with pytest.raises(ValueError):
            engine.run()

    def test_callback_receives_every_operation(self):
        records = []
        engine = WorkloadEngine(make_stack(), simple_spec(), seed=1, on_op=records.append)
        engine.run(max_ops=50)
        assert len(records) == 50
        assert all(r.latency_ns >= 0 for r in records)
        assert all(r.op is OpType.READ for r in records)
        # Timestamps must be monotonically non-decreasing.
        times = [r.end_time_ns for r in records]
        assert times == sorted(times)

    def test_op_overhead_slows_down_throughput(self):
        def ops_per_second(overhead):
            stack = make_stack()
            # A small, quickly cached file so that the comparison measures the
            # engine overhead rather than the (identical) cold-miss cost.
            spec = simple_spec(
                op_overhead_ns=overhead, fileset=single_file_fileset(128 * KiB)
            )
            engine = WorkloadEngine(stack, spec, seed=1)
            engine.run(max_ops=3000)
            return 3000 / stack.clock.now_s

        assert ops_per_second(0.0) > ops_per_second(200_000.0) * 2

    def test_same_seed_reproducible(self):
        def latencies(seed):
            records = []
            engine = WorkloadEngine(make_stack(3), simple_spec(), seed=seed, on_op=records.append)
            engine.run(max_ops=80)
            return [r.latency_ns for r in records]

        assert latencies(5) == latencies(5)
        assert latencies(5) != latencies(6)

    def test_setup_is_idempotent(self):
        engine = WorkloadEngine(make_stack(), simple_spec(), seed=1)
        first = engine.setup()
        second = engine.setup()
        assert first is second


class TestOperationTypes:
    def test_write_workload_dirties_cache(self):
        stack = make_stack()
        spec = simple_spec(
            flowops=[FlowOp(op=OpType.WRITE, iosize=8 * KiB, offset_mode=OffsetMode.RANDOM)]
        )
        WorkloadEngine(stack, spec, seed=1).run(max_ops=20)
        assert stack.vfs.stats.writes == 20

    def test_append_grows_file(self):
        stack = make_stack()
        spec = simple_spec(
            fileset=FilesetSpec(name="logs", file_count=1, size_distribution=FixedValue(8 * KiB)),
            flowops=[FlowOp(op=OpType.APPEND, iosize=4 * KiB)],
        )
        engine = WorkloadEngine(stack, spec, seed=1)
        engine.run(max_ops=10)
        inode = stack.vfs.fs.resolve(engine.fileset.path_of(0))
        assert inode.size_bytes == 8 * KiB + 10 * 4 * KiB

    def test_create_adds_files(self):
        stack = make_stack()
        spec = simple_spec(
            fileset=FilesetSpec(name="pool", file_count=2, size_distribution=FixedValue(4 * KiB)),
            flowops=[FlowOp(op=OpType.CREATE)],
        )
        engine = WorkloadEngine(stack, spec, seed=1)
        engine.run(max_ops=15)
        assert len(engine.fileset) == 17

    def test_delete_removes_files(self):
        stack = make_stack()
        spec = simple_spec(
            fileset=FilesetSpec(name="pool", file_count=30, size_distribution=FixedValue(4 * KiB)),
            flowops=[FlowOp(op=OpType.DELETE)],
        )
        engine = WorkloadEngine(stack, spec, seed=1)
        engine.run(max_ops=10)
        assert len(engine.fileset) == 20
        for path in engine.fileset.paths:
            assert stack.vfs.fs.exists(path)

    def test_create_delete_churn_stays_consistent(self):
        stack = make_stack()
        spec = simple_spec(
            fileset=FilesetSpec(name="pool", file_count=10, size_distribution=FixedValue(4 * KiB)),
            flowops=[FlowOp(op=OpType.CREATE), FlowOp(op=OpType.DELETE)],
        )
        engine = WorkloadEngine(stack, spec, seed=1)
        engine.run(max_ops=200)
        # Every path the engine believes exists must really exist.
        for path in engine.fileset.paths:
            assert stack.vfs.fs.exists(path)

    def test_stat_and_open_close(self):
        stack = make_stack()
        spec = simple_spec(
            fileset=FilesetSpec(name="pool", file_count=5, size_distribution=FixedValue(4 * KiB)),
            flowops=[
                FlowOp(op=OpType.STAT, file_selector=FileSelector.RANDOM),
                FlowOp(op=OpType.OPEN, file_selector=FileSelector.RANDOM),
                FlowOp(op=OpType.CLOSE, file_selector=FileSelector.RANDOM),
            ],
        )
        WorkloadEngine(stack, spec, seed=1).run(max_ops=30)
        assert stack.vfs.stats.stats_calls >= 10

    def test_fsync_flowop(self):
        stack = make_stack()
        spec = simple_spec(
            flowops=[
                FlowOp(op=OpType.WRITE, iosize=8 * KiB, offset_mode=OffsetMode.RANDOM),
                FlowOp(op=OpType.FSYNC),
            ]
        )
        WorkloadEngine(stack, spec, seed=1).run(max_ops=10)
        assert stack.vfs.stats.fsyncs >= 4

    def test_read_whole_file_moves_all_bytes(self):
        stack = make_stack()
        spec = simple_spec(
            fileset=FilesetSpec(name="pool", file_count=1, size_distribution=FixedValue(256 * KiB)),
            flowops=[FlowOp(op=OpType.READ_WHOLE_FILE, iosize=64 * KiB)],
        )
        records = []
        WorkloadEngine(stack, spec, seed=1, on_op=records.append).run(max_ops=2)
        assert all(r.bytes_moved == 256 * KiB for r in records)

    def test_delay_flowop_advances_time_without_io(self):
        stack = make_stack()
        spec = simple_spec(flowops=[FlowOp(op=OpType.DELAY, think_ns=5_000_000.0)], op_overhead_ns=0.0)
        WorkloadEngine(stack, spec, seed=1).run(max_ops=10)
        assert stack.clock.now_ns >= 50_000_000.0
        assert stack.vfs.stats.reads == 0

    def test_think_time_hides_the_file_system(self):
        """The paper's point about kernel builds: CPU think time after each
        read means the device accounts for less of the run, so the total
        runtime is dominated by 'compilation'."""

        def device_share(think_ns):
            stack = make_stack()
            spec = simple_spec(
                fileset=FilesetSpec(
                    name="srctree",
                    file_count=40,
                    size_distribution=FixedValue(8 * KiB),
                    directories=4,
                ),
                flowops=[
                    FlowOp(op=OpType.STAT, file_selector=FileSelector.ROUND_ROBIN),
                    FlowOp(
                        op=OpType.READ_WHOLE_FILE,
                        iosize=64 * KiB,
                        file_selector=FileSelector.ROUND_ROBIN,
                        think_ns=think_ns,
                    ),
                ],
            )
            WorkloadEngine(stack, spec, seed=2).run(max_ops=120)
            return stack.device.stats.total_service_ns / stack.clock.now_ns

        assert device_share(20_000_000.0) < device_share(100_000.0)


class TestMultiThreaded:
    def test_multiple_threads_execute_round_robin(self):
        stack = make_stack()
        records = []
        spec = simple_spec(threads=4)
        WorkloadEngine(stack, spec, seed=1, on_op=records.append).run(max_ops=40)
        assert {r.thread for r in records} == {0, 1, 2, 3}

    def test_round_robin_selector_staggers_files(self):
        stack = make_stack()
        spec = simple_spec(
            fileset=FilesetSpec(name="pool", file_count=8, size_distribution=FixedValue(16 * KiB)),
            flowops=[FlowOp(op=OpType.READ, iosize=4 * KiB, file_selector=FileSelector.ROUND_ROBIN)],
            threads=2,
        )
        engine = WorkloadEngine(stack, spec, seed=1)
        engine.run(max_ops=16)
        assert stack.vfs.stats.reads == 16
