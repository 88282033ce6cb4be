"""Tests for trace capture and replay."""

import io

import pytest

from repro.fs.stack import build_stack
from repro.storage.config import scaled_testbed
from repro.workloads.spec import FlowOp, OpType, WorkloadEngine, WorkloadSpec, OffsetMode
from repro.workloads.fileset import single_file_fileset
from repro.workloads.trace import (
    TraceRecord,
    TraceRecorder,
    TraceReplayer,
    load_trace,
    save_trace,
)

KiB = 1024
MiB = 1024 * 1024


def tiny_stack(seed=5):
    return build_stack("ext2", testbed=scaled_testbed(1.0 / 16.0), seed=seed)


class TestTraceRecord:
    def test_line_round_trip(self):
        record = TraceRecord(timestamp_ns=123456.0, op="read", path="/a/b", offset=4096, nbytes=8192)
        parsed = TraceRecord.from_line(record.to_line())
        assert parsed == record

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord.from_line("read /a/b 0")


class TestSaveLoad:
    def test_round_trip_through_a_file_object(self):
        records = [
            TraceRecord(0.0, "create", "/t/a"),
            TraceRecord(10.0, "write", "/t/a", 0, 4096),
            TraceRecord(20.0, "read", "/t/a", 0, 4096),
        ]
        buffer = io.StringIO()
        assert save_trace(records, buffer) == 3
        buffer.seek(0)
        assert load_trace(buffer) == records

    def test_round_trip_through_a_path(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        records = [TraceRecord(0.0, "stat", "/x")]
        save_trace(records, path)
        assert load_trace(path) == records

    def test_comments_and_blank_lines_ignored(self):
        buffer = io.StringIO("# header\n\n0 read /a 0 4096\n")
        assert len(load_trace(buffer)) == 1


class TestRecorder:
    def test_records_from_engine_callback(self):
        stack = tiny_stack()
        recorder = TraceRecorder()
        spec = WorkloadSpec(
            name="traced",
            flowops=[FlowOp(op=OpType.READ, iosize=8 * KiB, offset_mode=OffsetMode.RANDOM)],
            fileset=single_file_fileset(1 * MiB),
            op_overhead_ns=0.0,
        )
        WorkloadEngine(stack, spec, seed=1, on_op=recorder).run(max_ops=25)
        assert len(recorder) == 25
        assert all(r.op == "read" for r in recorder.records)

    def test_manual_recording(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "create", "/a")
        recorder.record(5.0, "write", "/a", 0, 4096)
        assert len(recorder) == 2


class TestReplay:
    def test_replay_creates_missing_files_and_returns_latencies(self):
        stack = tiny_stack()
        records = [
            TraceRecord(0.0, "create", "/traced/file0"),
            TraceRecord(1000.0, "write", "/traced/file0", 0, 8 * KiB),
            TraceRecord(2000.0, "read", "/traced/file0", 0, 8 * KiB),
            TraceRecord(3000.0, "fsync", "/traced/file0"),
            TraceRecord(4000.0, "stat", "/traced/file0"),
            TraceRecord(5000.0, "delete", "/traced/file0"),
        ]
        replayer = TraceReplayer(stack)
        latencies = replayer.replay(records)
        assert len(latencies) == len(records)
        assert not stack.vfs.fs.exists("/traced/file0")

    def test_delete_closes_the_descriptor_of_the_deleted_path(self):
        """Every descriptor the VFS holds open is one the replayer tracks: a
        deleted path's descriptor is closed, not left pinning its inode."""
        stack = tiny_stack()
        records = []
        for index in range(50):
            path = f"/churn/f{index % 5}"
            records += [
                TraceRecord(0.0, "create", path),
                TraceRecord(0.0, "write", path, 0, 4 * KiB),
                TraceRecord(0.0, "delete", path),
            ]
        replayer = TraceReplayer(stack)
        replayer.replay(records)
        assert len(stack.vfs._open_files) == len(replayer._fds) == 0

    def test_replay_honouring_timing_is_slower(self):
        records = [
            TraceRecord(float(i) * 50_000_000, "read", "/t/file", 0, 4 * KiB) for i in range(20)
        ]
        records.insert(0, TraceRecord(0.0, "create", "/t/file"))

        def run(honour):
            stack = tiny_stack()
            TraceReplayer(stack, honour_timing=honour).replay(records)
            return stack.clock.now_ns

        assert run(True) > run(False)

    def test_replay_missing_file_without_create_raises(self):
        stack = tiny_stack()
        replayer = TraceReplayer(stack, create_missing=False)
        with pytest.raises(FileNotFoundError):
            replayer.replay([TraceRecord(0.0, "read", "/nope", 0, 4096)])

    def test_unknown_ops_are_skipped(self):
        stack = tiny_stack()
        latencies = TraceReplayer(stack).replay([TraceRecord(0.0, "ioctl", "/x", 0, 0)])
        assert latencies == [0.0]

    def test_record_then_replay_round_trip(self):
        """A workload recorded on one stack can be replayed on another."""
        source_stack = tiny_stack(seed=6)
        recorder = TraceRecorder()
        recorder.record(0.0, "create", "/rt/a")
        recorder.record(0.0, "create", "/rt/b")
        recorder.record(1_000.0, "write", "/rt/a", 0, 64 * KiB)
        recorder.record(2_000.0, "write", "/rt/b", 0, 32 * KiB)
        recorder.record(3_000.0, "read", "/rt/a", 0, 64 * KiB)
        buffer = io.StringIO()
        save_trace(recorder.records, buffer)
        buffer.seek(0)

        target_stack = tiny_stack(seed=7)
        TraceReplayer(target_stack).replay(load_trace(buffer))
        assert target_stack.vfs.fs.resolve("/rt/a").size_bytes == 64 * KiB
        assert target_stack.vfs.fs.resolve("/rt/b").size_bytes == 32 * KiB
