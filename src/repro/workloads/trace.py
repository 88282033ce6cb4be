"""Trace capture and replay.

The paper's survey notes that trace-based evaluation is popular (35 uses in
2009-2010) but that almost none of the traces are publicly available, which
makes the results irreproducible.  This module provides the two halves a
released system needs:

* :class:`TraceRecorder` -- capture the operation stream of any workload run
  into a plain-text, shareable format;
* :class:`TraceReplayer` -- replay a trace against any stack, either
  "as fast as possible" or honouring the recorded inter-arrival gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, TextIO, Union

from repro.fs.stack import StorageStack
from repro.workloads.spec import OpRecord, OpType

#: Columns of the on-disk trace format, in order.
TRACE_COLUMNS = ("timestamp_ns", "op", "path", "offset", "nbytes")


@dataclass(frozen=True)
class TraceRecord:
    """One replayable trace entry."""

    timestamp_ns: float
    op: str
    path: str
    offset: int = 0
    nbytes: int = 0

    def to_line(self) -> str:
        """Serialize to one whitespace-separated line."""
        return f"{self.timestamp_ns:.0f} {self.op} {self.path} {self.offset} {self.nbytes}"

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        """Parse one line produced by :meth:`to_line`."""
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"malformed trace line: {line!r}")
        timestamp, op, path, offset, nbytes = parts
        return cls(
            timestamp_ns=float(timestamp),
            op=op,
            path=path,
            offset=int(offset),
            nbytes=int(nbytes),
        )


class TraceRecorder:
    """Collects trace records; usable as a workload-engine ``on_op`` callback.

    The engine's :class:`~repro.workloads.spec.OpRecord` does not carry the
    path, so records captured that way use the synthetic path ``"<fileset>"``;
    for full-fidelity traces use :meth:`record` directly from custom drivers.
    """

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def __call__(self, op_record: OpRecord) -> None:
        self.records.append(
            TraceRecord(
                timestamp_ns=op_record.end_time_ns,
                op=op_record.op.value,
                path="<fileset>",
                offset=0,
                nbytes=op_record.bytes_moved,
            )
        )

    def record(self, timestamp_ns: float, op: str, path: str, offset: int = 0, nbytes: int = 0) -> None:
        """Append one explicit record."""
        self.records.append(TraceRecord(timestamp_ns, op, path, offset, nbytes))

    def __len__(self) -> int:
        return len(self.records)


def save_trace(records: Iterable[TraceRecord], destination: Union[str, TextIO]) -> int:
    """Write records to a path or file object; returns the number written."""
    owns = isinstance(destination, str)
    handle: TextIO = open(destination, "w") if owns else destination
    try:
        handle.write("# " + " ".join(TRACE_COLUMNS) + "\n")
        count = 0
        for record in records:
            handle.write(record.to_line() + "\n")
            count += 1
        return count
    finally:
        if owns:
            handle.close()


def load_trace(source: Union[str, TextIO]) -> List[TraceRecord]:
    """Read records from a path or file object."""
    owns = isinstance(source, str)
    handle: TextIO = open(source, "r") if owns else source
    try:
        records = []
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            records.append(TraceRecord.from_line(line))
        return records
    finally:
        if owns:
            handle.close()


class TraceReplayer:
    """Replays a trace against a stack.

    Parameters
    ----------
    stack:
        The simulated stack to replay against.
    honour_timing:
        When true, idle time is inserted so operations start no earlier than
        their recorded (relative) timestamps; when false the trace is replayed
        back-to-back ("as fast as possible").
    create_missing:
        Create (and grow) files referenced by the trace that do not exist yet.
    """

    def __init__(
        self,
        stack: StorageStack,
        honour_timing: bool = False,
        create_missing: bool = True,
    ) -> None:
        self.stack = stack
        self.honour_timing = honour_timing
        self.create_missing = create_missing
        self.latencies_ns: List[float] = []
        self._fds = {}

    def _ensure_file(self, path: str, min_size: int) -> Optional[int]:
        vfs = self.stack.vfs
        if path == "<fileset>":
            return None
        if not vfs.fs.exists(path):
            if not self.create_missing:
                raise FileNotFoundError(path)
            self._mkdirs_for(path)
            vfs.fs.create(path, vfs.clock.now_ns)
        fd = self._fds.get(path)
        if fd is None:
            fd = vfs.open_uncharged(path)
            self._fds[path] = fd
        inode = vfs.open_file(fd).inode
        if min_size and inode.size_bytes < min_size:
            vfs.fallocate(fd, min_size, charge_time=False)
        return fd

    def _mkdirs_for(self, path: str) -> None:
        parent = "/".join(path.split("/")[:-1])
        if parent:
            self.stack.vfs.mkdirs_uncharged(parent)

    def replay(self, records: Iterable[TraceRecord]) -> List[float]:
        """Replay the records; returns per-operation latencies in ns."""
        vfs = self.stack.vfs
        self.latencies_ns = []
        base_trace_ns: Optional[float] = None
        base_clock_ns = self.stack.clock.now_ns

        for record in records:
            if self.honour_timing:
                if base_trace_ns is None:
                    base_trace_ns = record.timestamp_ns
                target = base_clock_ns + (record.timestamp_ns - base_trace_ns)
                gap = target - self.stack.clock.now_ns
                if gap > 0:
                    vfs.idle(gap)

            op = record.op
            if op in (OpType.READ.value, OpType.READ_WHOLE_FILE.value):
                fd = self._ensure_file(record.path, record.offset + max(record.nbytes, 1))
                latency = vfs.read(fd, max(record.nbytes, 1), offset=record.offset) if fd is not None else 0.0
            elif op in (OpType.WRITE.value, OpType.APPEND.value, OpType.WRITE_WHOLE_FILE.value):
                fd = self._ensure_file(record.path, record.offset)
                latency = vfs.write(fd, max(record.nbytes, 1), offset=record.offset) if fd is not None else 0.0
            elif op == OpType.CREATE.value:
                if not vfs.fs.exists(record.path):
                    self._mkdirs_for(record.path)
                    latency = vfs.create(record.path)
                else:
                    latency = 0.0
            elif op == OpType.DELETE.value:
                latency = vfs.unlink(record.path) if vfs.fs.exists(record.path) else 0.0
                fd = self._fds.pop(record.path, None)
                if fd is not None:
                    vfs.close_uncharged(fd)
            elif op == OpType.STAT.value:
                latency = vfs.stat(record.path) if vfs.fs.exists(record.path) else 0.0
            elif op == OpType.FSYNC.value:
                fd = self._ensure_file(record.path, 0)
                latency = vfs.fsync(fd) if fd is not None else 0.0
            elif op == OpType.MKDIR.value:
                latency = vfs.mkdir(record.path) if not vfs.fs.exists(record.path) else 0.0
            else:
                # Unknown ops are skipped rather than aborting a long replay.
                latency = 0.0
            self.latencies_ns.append(latency)
        return self.latencies_ns
