"""Workload description language and execution engine.

A :class:`WorkloadSpec` is a small, declarative description of a workload in
the spirit of Filebench's *flowops*: a named list of operations, each with an
I/O size, an offset mode and a file-selection policy, executed by one or more
threads against a fileset.  The :class:`WorkloadEngine` executes a spec
against a simulated stack and reports every operation to a callback, which is
how the benchmarking core collects latencies without the workload layer
knowing anything about statistics.

The engine runs entirely in simulated time: the stop condition is expressed in
virtual seconds (or an operation count), so a "20 minute" run takes however
long the simulation takes, not 20 minutes of wall clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional

from repro.fs.stack import StorageStack
from repro.workloads.fileset import FilesetSpec, MaterializedFileset


class OpType(str, Enum):
    """Operation types supported by the engine."""

    READ = "read"
    WRITE = "write"
    APPEND = "append"
    READ_WHOLE_FILE = "read_whole_file"
    WRITE_WHOLE_FILE = "write_whole_file"
    CREATE = "create"
    DELETE = "delete"
    STAT = "stat"
    OPEN = "open"
    CLOSE = "close"
    FSYNC = "fsync"
    MKDIR = "mkdir"
    DELAY = "delay"


class OffsetMode(str, Enum):
    """How the offset for a data operation is chosen."""

    SEQUENTIAL = "sequential"
    RANDOM = "random"


class FileSelector(str, Enum):
    """How the target file for an operation is chosen."""

    ROUND_ROBIN = "round_robin"
    RANDOM = "random"
    SAME = "same"


@dataclass(frozen=True)
class FlowOp:
    """One step of a workload's inner loop.

    Attributes
    ----------
    op:
        Operation type.
    iosize:
        Bytes per data operation.
    offset_mode:
        Sequential or uniformly random offsets (aligned to ``iosize``).
    file_selector:
        How the target file is picked from the fileset.
    repeat:
        How many times this flowop runs per loop iteration.
    think_ns:
        Simulated application think time charged after each execution (not
        recorded as operation latency).
    fsync_after:
        Whether to fsync the file after a write-type operation.
    """

    op: OpType
    iosize: int = 8192
    offset_mode: OffsetMode = OffsetMode.SEQUENTIAL
    file_selector: FileSelector = FileSelector.SAME
    repeat: int = 1
    think_ns: float = 0.0
    fsync_after: bool = False

    def __post_init__(self) -> None:
        if self.iosize <= 0:
            raise ValueError("iosize must be positive")
        if self.repeat <= 0:
            raise ValueError("repeat must be positive")
        if self.think_ns < 0:
            raise ValueError("think_ns must be non-negative")


@dataclass
class WorkloadSpec:
    """A complete workload description.

    Attributes
    ----------
    name:
        Workload name used in reports.
    flowops:
        The operation loop executed by every thread.
    fileset:
        The file population the workload runs against.
    threads:
        Number of worker threads (modelled, not real threads).
    op_overhead_ns:
        Per-operation benchmark-engine overhead (event scheduling, workload
        bookkeeping).  Filebench-style engines spend roughly 90--100 us per
        operation, which is what makes the paper's "memory-bound" Ext2
        plateau sit near 10^4 ops/s rather than at raw page-cache speed.
    dimensions:
        Names of the file system dimensions this workload primarily
        exercises (see :class:`repro.core.dimensions.Dimension`); stored as
        strings so the workload layer stays independent of the core package.
    description:
        Human-readable description for reports.
    """

    name: str
    flowops: List[FlowOp]
    fileset: FilesetSpec
    threads: int = 1
    op_overhead_ns: float = 98_000.0
    dimensions: List[str] = field(default_factory=list)
    description: str = ""

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent specs."""
        if not self.name:
            raise ValueError("workload must have a name")
        if not self.flowops:
            raise ValueError("workload must have at least one flowop")
        if self.threads <= 0:
            raise ValueError("threads must be positive")
        if self.op_overhead_ns < 0:
            raise ValueError("op_overhead_ns must be non-negative")
        self.fileset.validate()


@dataclass
class OpRecord:
    """One executed operation, as reported to the engine callback."""

    op: OpType
    latency_ns: float
    end_time_ns: float
    thread: int
    bytes_moved: int = 0


OnOpCallback = Callable[[OpRecord], None]


class _ThreadState:
    """Per-worker bookkeeping."""

    __slots__ = ("index", "fds", "next_file", "sequential_offsets", "created_serial")

    def __init__(self, index: int) -> None:
        self.index = index
        self.fds: Dict[int, int] = {}
        self.next_file = index  # stagger round-robin starting points
        self.sequential_offsets: Dict[int, int] = {}
        self.created_serial = 0


class WorkloadEngine:
    """Executes a :class:`WorkloadSpec` against a :class:`StorageStack`.

    Parameters
    ----------
    stack:
        The simulated stack to run against.
    spec:
        The workload description.
    seed:
        Seed for the engine's random source (file and offset selection).
        Independent from the stack's seed so that workload randomness and
        device randomness can be varied separately.
    on_op:
        Callback invoked for every executed operation.
    """

    def __init__(
        self,
        stack: StorageStack,
        spec: WorkloadSpec,
        seed: int = 7,
        on_op: Optional[OnOpCallback] = None,
    ) -> None:
        spec.validate()
        self.stack = stack
        self.spec = spec
        self.rng = random.Random(seed)
        self.on_op = on_op
        self.fileset: Optional[MaterializedFileset] = None
        self._threads = [_ThreadState(i) for i in range(spec.threads)]
        self.ops_executed = 0
        self._setup_done = False
        self._step_cycle = None

    # ------------------------------------------------------------------ setup
    def setup(self) -> MaterializedFileset:
        """Materialize the fileset (outside measured time) and open the files."""
        if self._setup_done and self.fileset is not None:
            return self.fileset
        self.fileset = self.spec.fileset.materialize(self.stack.vfs, rng=self.rng, charge_time=False)
        self._setup_done = True
        return self.fileset

    def _fd_for(self, thread: _ThreadState, file_index: int) -> int:
        fd = thread.fds.get(file_index)
        if fd is None:
            path = self.fileset.path_of(file_index)
            fd = self.stack.vfs.open_uncharged(path)
            thread.fds[file_index] = fd
        return fd

    def _pick_file(self, thread: _ThreadState, flowop: FlowOp) -> int:
        count = len(self.fileset)
        if count == 0:
            raise RuntimeError("workload has an empty fileset")
        if flowop.file_selector is FileSelector.SAME:
            return thread.index % count
        if flowop.file_selector is FileSelector.ROUND_ROBIN:
            index = thread.next_file % count
            thread.next_file += self.spec.threads
            return index
        return self.rng.randrange(count)

    def _pick_offset(self, thread: _ThreadState, flowop: FlowOp, file_index: int) -> int:
        size = max(self.fileset.size_of(file_index), flowop.iosize)
        if flowop.offset_mode is OffsetMode.RANDOM:
            slots = max(1, size // flowop.iosize)
            return self.rng.randrange(slots) * flowop.iosize
        offset = thread.sequential_offsets.get(file_index, 0)
        if offset + flowop.iosize > size:
            offset = 0
        thread.sequential_offsets[file_index] = offset + flowop.iosize
        return offset

    # -------------------------------------------------------------- execution
    def run(
        self,
        duration_s: Optional[float] = None,
        max_ops: Optional[int] = None,
    ) -> int:
        """Run the workload until a simulated duration or an op count is reached.

        Returns the number of operations executed.  At least one of
        ``duration_s`` / ``max_ops`` must be given.
        """
        if duration_s is None and max_ops is None:
            raise ValueError("provide duration_s, max_ops, or both")
        if not self._setup_done:
            self.setup()

        clock = self.stack.clock
        deadline_ns = clock.now_ns + duration_s * 1e9 if duration_s is not None else None
        executed = 0
        ops_limit = max_ops if max_ops is not None else None

        while True:
            for flowop in self.spec.flowops:
                for _ in range(flowop.repeat):
                    for thread in self._threads:
                        self._execute_one(thread, flowop)
                        executed += 1
                        if ops_limit is not None and executed >= ops_limit:
                            self.ops_executed += executed
                            return executed
                    if deadline_ns is not None and clock.now_ns >= deadline_ns:
                        self.ops_executed += executed
                        return executed
            if deadline_ns is None and ops_limit is None:  # pragma: no cover - guarded above
                break
        return executed

    def _flowop_cycle(self):
        """The endless (thread, flowop) dispatch sequence of :meth:`run`."""
        while True:
            for flowop in self.spec.flowops:
                for _ in range(flowop.repeat):
                    for thread in self._threads:
                        yield thread, flowop

    def step(self) -> None:
        """Execute exactly one operation, advancing the engine's flowop cycle.

        Single-op stepping is what lets the virtual-time event loop
        (:mod:`repro.core.concurrency`) interleave several engines on one
        stack: each call runs the next ``(thread, flowop)`` pair in exactly
        the order :meth:`run` would, so a stepped engine and a running
        engine visit identical operation sequences.  An engine belongs to
        one driver: do not mix :meth:`step` and :meth:`run` on the same
        instance (each keeps its own position in the flowop cycle).
        """
        if not self._setup_done:
            self.setup()
        if self._step_cycle is None:
            self._step_cycle = self._flowop_cycle()
        thread, flowop = next(self._step_cycle)
        self._execute_one(thread, flowop)
        self.ops_executed += 1

    def _execute_one(self, thread: _ThreadState, flowop: FlowOp) -> None:
        vfs = self.stack.vfs
        op = flowop.op
        bytes_moved = 0

        # Open the tracing span for this operation: every latency component
        # charged below (CPU, queue wait, device service, flushes, GC) is
        # attributed to this op type until the span closes.  Purely
        # observational -- the latency math is identical with tracer=None.
        tracer = vfs.tracer
        if tracer is not None:
            tracer.begin_op(op.value)

        if op is OpType.DELAY:
            vfs.idle(flowop.think_ns if flowop.think_ns else 1_000_000.0)
            latency = 0.0
        elif op is OpType.READ:
            file_index = self._pick_file(thread, flowop)
            fd = self._fd_for(thread, file_index)
            offset = self._pick_offset(thread, flowop, file_index)
            latency = vfs.read(fd, flowop.iosize, offset=offset)
            bytes_moved = flowop.iosize
        elif op is OpType.WRITE:
            file_index = self._pick_file(thread, flowop)
            fd = self._fd_for(thread, file_index)
            offset = self._pick_offset(thread, flowop, file_index)
            latency = vfs.write(fd, flowop.iosize, offset=offset)
            bytes_moved = flowop.iosize
            if flowop.fsync_after:
                latency += vfs.fsync(fd)
        elif op is OpType.APPEND:
            file_index = self._pick_file(thread, flowop)
            fd = self._fd_for(thread, file_index)
            inode = vfs.open_file(fd).inode
            latency = vfs.write(fd, flowop.iosize, offset=inode.size_bytes)
            bytes_moved = flowop.iosize
            if flowop.fsync_after:
                latency += vfs.fsync(fd)
        elif op is OpType.READ_WHOLE_FILE:
            file_index = self._pick_file(thread, flowop)
            fd = self._fd_for(thread, file_index)
            size = max(1, self.fileset.size_of(file_index))
            latency = 0.0
            offset = 0
            while offset < size:
                chunk = min(flowop.iosize, size - offset)
                latency += vfs.read(fd, chunk, offset=offset)
                offset += chunk
            bytes_moved = size
        elif op is OpType.WRITE_WHOLE_FILE:
            file_index = self._pick_file(thread, flowop)
            fd = self._fd_for(thread, file_index)
            size = max(flowop.iosize, self.fileset.size_of(file_index))
            latency = 0.0
            offset = 0
            while offset < size:
                chunk = min(flowop.iosize, size - offset)
                latency += vfs.write(fd, chunk, offset=offset)
                offset += chunk
            bytes_moved = size
            if flowop.fsync_after:
                latency += vfs.fsync(fd)
        elif op is OpType.CREATE:
            path = self._new_path(thread)
            latency = vfs.create(path)
            self.fileset.paths.append(path)
            self.fileset.sizes.append(0)
        elif op is OpType.DELETE:
            latency = self._delete_one(thread)
        elif op is OpType.STAT:
            file_index = self._pick_file(thread, flowop)
            latency = vfs.stat(self.fileset.path_of(file_index))
        elif op is OpType.OPEN:
            file_index = self._pick_file(thread, flowop)
            before = self.stack.clock.now_ns
            fd = vfs.open(self.fileset.path_of(file_index))
            latency = self.stack.clock.now_ns - before
            old_fd = thread.fds.get(file_index)
            if old_fd is not None:
                vfs.close_uncharged(old_fd)
            thread.fds[file_index] = fd
        elif op is OpType.CLOSE:
            file_index = self._pick_file(thread, flowop)
            fd = thread.fds.pop(file_index, None)
            latency = vfs.close(fd) if fd is not None else 0.0
        elif op is OpType.FSYNC:
            file_index = self._pick_file(thread, flowop)
            fd = self._fd_for(thread, file_index)
            latency = vfs.fsync(fd)
        elif op is OpType.MKDIR:
            path = f"/{self.spec.fileset.name}/m{thread.index}.{thread.created_serial}"
            thread.created_serial += 1
            latency = vfs.mkdir(path)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unsupported op type: {op}")

        # Close the span before think time and engine overhead: neither is
        # part of the op's measured latency, so neither may be attributed.
        if tracer is not None:
            tracer.end_op(latency)

        if flowop.think_ns and op is not OpType.DELAY:
            vfs.idle(flowop.think_ns)
        if self.spec.op_overhead_ns:
            # Benchmark-engine bookkeeping is CPU work, so it scales with the
            # (per-repetition perturbed) CPU speed of the simulated machine.
            vfs.idle(self.spec.op_overhead_ns * vfs.cpu_speed_factor)

        if self.on_op is not None:
            self.on_op(
                OpRecord(
                    op=op,
                    latency_ns=latency,
                    end_time_ns=self.stack.clock.now_ns,
                    thread=thread.index,
                    bytes_moved=bytes_moved,
                )
            )

    # --------------------------------------------------------------- helpers
    def _new_path(self, thread: _ThreadState) -> str:
        path = f"/{self.spec.fileset.name}/new.t{thread.index}.{thread.created_serial:08d}"
        thread.created_serial += 1
        while self.stack.vfs.fs.exists(path):
            path = f"/{self.spec.fileset.name}/new.t{thread.index}.{thread.created_serial:08d}"
            thread.created_serial += 1
        return path

    def _delete_one(self, thread: _ThreadState) -> float:
        if not self.fileset.paths:
            return 0.0
        index = self.rng.randrange(len(self.fileset.paths))
        path = self.fileset.paths[index]
        # Close any descriptors (from any thread) that reference the file.
        for state in self._threads:
            fd = state.fds.pop(index, None)
            if fd is not None:
                self.stack.vfs.close_uncharged(fd)
        latency = self.stack.vfs.unlink(path)
        # Swap-remove to keep indices dense; fix up fd maps for the moved slot.
        last = len(self.fileset.paths) - 1
        self.fileset.paths[index] = self.fileset.paths[last]
        self.fileset.sizes[index] = self.fileset.sizes[last]
        self.fileset.paths.pop()
        self.fileset.sizes.pop()
        for state in self._threads:
            moved_fd = state.fds.pop(last, None)
            if moved_fd is not None and index < len(self.fileset.paths):
                state.fds[index] = moved_fd
            state.sequential_offsets.pop(index, None)
            state.sequential_offsets.pop(last, None)
        return latency
