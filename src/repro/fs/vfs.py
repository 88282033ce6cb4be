"""The VFS layer: where file system, page cache and device meet.

Every workload operation enters through :class:`VFS`.  The VFS

* charges the software-path CPU costs (syscall entry, page lookup, copyout),
* consults the page cache and, on misses, asks the file system for the
  device requests needed to fault the data in (cluster reads included),
* runs the readahead state machine and issues asynchronous prefetches,
* executes metadata operations by interpreting the
  :class:`~repro.fs.base.OperationCost` objects the file system returns,
* applies dirty-page throttling and background writeback, and
* advances the shared :class:`~repro.storage.clock.VirtualClock` by the
  total latency of each call, returning that latency to the caller so the
  benchmark layer can histogram it.

The device is modelled as a single-queue resource: asynchronous work
(readahead, writeback) occupies the device into the future, and synchronous
misses must wait for it.  This keeps aggregate throughput bounded by device
bandwidth without a full event-driven scheduler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.fs.base import (
    FileSystem,
    Inode,
    IsADirectoryError_,
    NotFoundError,
    OperationCost,
)
from repro.fs.common import (
    BITMAP_PSEUDO_INO,
    INODE_TABLE_PSEUDO_INO,
    MAPPING_PSEUDO_INO,
)
from repro.obs.metrics import MetricSource
from repro.storage.cache import PageCache
from repro.storage.clock import VirtualClock
from repro.storage.config import CpuCosts
from repro.storage.device import BlockDevice, IORequest
from repro.storage.readahead import (
    DEFAULT_READAHEAD,
    ReadaheadPolicy,
    ReadaheadState,
    cluster_range,
)

PageKey = Tuple[int, int]


@dataclass
class VfsStats(MetricSource):
    """Counters for the operations served by a VFS instance."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    creates: int = 0
    unlinks: int = 0
    truncates: int = 0
    opens: int = 0
    stats_calls: int = 0
    fsyncs: int = 0
    readahead_pages: int = 0
    writeback_pages: int = 0
    throttle_events: int = 0
    #: Discard requests issued to the device (0 when it lacks TRIM support).
    discards_issued: int = 0
    #: Discard requests dropped because the device does not support TRIM.
    discards_dropped: int = 0


class OpenFile:
    """An entry in the open-file table."""

    __slots__ = ("fd", "inode", "path", "position", "readahead")

    def __init__(self, fd: int, inode: Inode, path: str, readahead: ReadaheadState) -> None:
        self.fd = fd
        self.inode = inode
        self.path = path
        self.position = 0
        self.readahead = readahead


class VFS:
    """Virtual file system switch for one mounted simulated file system.

    Parameters
    ----------
    fs:
        The mounted file system model.
    cache:
        The page cache shared by data and metadata pages.
    device:
        The block device backing the file system.
    clock:
        The virtual clock all latencies are charged to.
    cpu:
        Software-path CPU costs.
    rng:
        Random source for latency jitter and device service times.
    readahead_policy:
        Sequential readahead policy applied to every open file.
    dirty_ratio:
        Fraction of the cache that may be dirty before writers are throttled.
    dirty_background_ratio:
        Dirty fraction beyond which writeback is started opportunistically.
    cpu_speed_factor:
        Multiplier on all CPU costs; the benchmark runner perturbs this
        slightly between repetitions to model background system noise.
    """

    def __init__(
        self,
        fs: FileSystem,
        cache: PageCache,
        device: BlockDevice,
        clock: VirtualClock,
        cpu: Optional[CpuCosts] = None,
        rng: Optional[random.Random] = None,
        readahead_policy: ReadaheadPolicy = DEFAULT_READAHEAD,
        dirty_ratio: float = 0.20,
        dirty_background_ratio: float = 0.10,
        cpu_speed_factor: float = 1.0,
    ) -> None:
        if not (0.0 < dirty_background_ratio <= dirty_ratio <= 1.0):
            raise ValueError("require 0 < dirty_background_ratio <= dirty_ratio <= 1")
        if cpu_speed_factor <= 0:
            raise ValueError("cpu_speed_factor must be positive")
        self.fs = fs
        self.cache = cache
        self.device = device
        self.clock = clock
        self.cpu = cpu if cpu is not None else CpuCosts()
        self.rng = rng if rng is not None else random.Random(0)
        self.readahead_policy = readahead_policy
        self.dirty_ratio = dirty_ratio
        self.dirty_background_ratio = dirty_background_ratio
        self.cpu_speed_factor = cpu_speed_factor
        self.stats = VfsStats()
        #: Optional :class:`repro.obs.Tracer`; ``None`` keeps tracing a
        #: single attribute check on every hot path.
        self.tracer = None

        self.page_size = cache.page_size
        self._page_shift = self.page_size.bit_length() - 1
        self._open_files: Dict[int, OpenFile] = {}
        self._next_fd = 3
        self._device_busy_until_ns = 0.0
        #: Most dirty pages one throttling pass writes back.
        self._writeback_batch_pages = 512

    # ------------------------------------------------------------------ CPU
    def _cpu_ns(self, base_ns: float) -> float:
        """Apply the speed factor and log-normal jitter to a CPU cost."""
        jitter = self.rng.lognormvariate(0.0, self.cpu.jitter_sigma) if self.cpu.jitter_sigma else 1.0
        latency = base_ns * self.cpu_speed_factor * jitter
        if self.tracer is not None:
            self.tracer.cpu(latency)
        return latency

    def _copy_cost_ns(self, nbytes: int) -> float:
        pages = max(1, -(-nbytes // 4096))
        return self.cpu.page_copy_ns_per_4k * pages

    # --------------------------------------------------------------- device
    def _device_wait_and_service(self, requests: List[IORequest]) -> float:
        """Synchronously execute requests, honouring outstanding async work."""
        if not requests:
            return 0.0
        service = self.device.submit(requests, self.rng)
        now = self.clock.now_ns
        queue_wait = max(0.0, self._device_busy_until_ns - now)
        self._device_busy_until_ns = max(now, self._device_busy_until_ns) + service
        if self.tracer is not None:
            # Time spent blocked behind a device kept busy by readahead,
            # writeback or other clients: the "cache" stall category.
            self.tracer.queue_wait(queue_wait)
        return queue_wait + service

    def _device_async(self, requests: List[IORequest]) -> None:
        """Queue asynchronous work: occupies the device but nobody waits now."""
        if not requests:
            return
        if self.tracer is not None:
            # Fire-and-forget: the tracer keeps these on the timeline but out
            # of attribution, since their cost reaches ops only as queue wait.
            self.tracer.push_context("async", async_=True)
            try:
                service = self.device.submit(requests, self.rng)
            finally:
                self.tracer.pop_context()
        else:
            service = self.device.submit(requests, self.rng)
        now = self.clock.now_ns
        self._device_busy_until_ns = max(now, self._device_busy_until_ns) + service

    # ------------------------------------------------------------- open/close
    def open(self, path: str, create: bool = False) -> int:
        """Open a file, optionally creating it; returns a file descriptor.

        The cost of the path walk (and of ``create`` when requested) is
        charged to the clock.
        """
        latency = self._cpu_ns(self.cpu.syscall_overhead_ns)
        latency += self._apply_cost(self.fs.lookup_cost(path))
        latency += self._cpu_ns(self.cpu.path_component_lookup_ns * max(1, self.fs.path_depth(path)))
        if create and not self.fs.exists(path):
            inode, cost = self.fs.create(path, self.clock.now_ns)
            latency += self._apply_cost(cost)
            self.stats.creates += 1
        else:
            inode = self.fs.resolve(path)
        if inode.is_directory:
            raise IsADirectoryError_(path)
        fd = self._next_fd
        self._next_fd += 1
        self._open_files[fd] = OpenFile(fd, inode, path, ReadaheadState(self.readahead_policy))
        self.stats.opens += 1
        self.clock.advance(latency)
        return fd

    def open_uncharged(self, path: str) -> int:
        """Open a file without charging any time (benchmark setup helper).

        Used when building filesets "outside" the measured timeline; the
        returned descriptor behaves exactly like one from :meth:`open`.
        """
        inode = self.fs.resolve(path)
        if inode.is_directory:
            raise IsADirectoryError_(path)
        fd = self._next_fd
        self._next_fd += 1
        self._open_files[fd] = OpenFile(fd, inode, path, ReadaheadState(self.readahead_policy))
        return fd

    def close_uncharged(self, fd: int) -> None:
        """Drop a descriptor without charging any time (setup helper)."""
        self._open_files.pop(fd, None)

    def close(self, fd: int) -> float:
        """Close a file descriptor (cheap; returns the latency charged)."""
        self._open_files.pop(fd, None)
        latency = self._cpu_ns(self.cpu.syscall_overhead_ns / 2)
        self.clock.advance(latency)
        return latency

    def open_file(self, fd: int) -> OpenFile:
        """Return the open-file entry for ``fd`` (raises KeyError if closed)."""
        return self._open_files[fd]

    # ---------------------------------------------------------------- reads
    def read(self, fd: int, nbytes: int, offset: Optional[int] = None) -> float:
        """Read ``nbytes`` at ``offset`` (or the current position).

        Returns the operation latency in nanoseconds; the virtual clock is
        advanced by the same amount.  Reading past end of file is clamped.
        """
        handle = self._open_files[fd]
        inode = handle.inode
        position = handle.position if offset is None else offset
        if position < 0 or nbytes <= 0:
            raise ValueError("offset must be >= 0 and nbytes > 0")

        end = min(position + nbytes, inode.size_bytes)
        if end <= position:
            # At or beyond EOF: only the syscall cost.
            latency = self._cpu_ns(self.cpu.syscall_overhead_ns)
            self.clock.advance(latency)
            self.stats.reads += 1
            return latency

        first_page = position >> self._page_shift
        last_page = (end - 1) >> self._page_shift
        page_count = last_page - first_page + 1
        ino = inode.number
        cache = self.cache

        missing: List[int] = []
        for page in range(first_page, last_page + 1):
            if not cache.lookup((ino, page)):
                missing.append(page)

        # One jittered CPU charge covering syscall entry, page lookups and copyout.
        latency = self._cpu_ns(
            self.cpu.syscall_overhead_ns
            + self.cpu.page_lookup_ns * page_count
            + self._copy_cost_ns(end - position)
        )

        file_pages = self._file_pages(inode)
        if missing:
            latency += self._fault_in(inode, missing, file_pages)

        ra_start, ra_count = handle.readahead.advise(first_page, page_count, file_pages)
        if ra_count:
            self._prefetch(inode, ra_start, ra_count)

        handle.position = end
        self.stats.reads += 1
        self.stats.bytes_read += end - position
        self.clock.advance(latency)
        return latency

    def _file_pages(self, inode: Inode) -> int:
        return max(1, -(-inode.size_bytes // self.page_size))

    def _fault_in(self, inode: Inode, missing_pages: List[int], file_pages: int) -> float:
        """Bring missing pages in via cluster reads; returns device latency."""
        cluster = self.fs.cluster_pages
        ranges: List[Tuple[int, int]] = []
        for page in missing_pages:
            start, count = cluster_range(min(page, file_pages - 1), cluster, file_pages)
            if ranges and start <= ranges[-1][0] + ranges[-1][1]:
                prev_start, prev_count = ranges[-1]
                new_end = max(prev_start + prev_count, start + count)
                ranges[-1] = (prev_start, new_end - prev_start)
            else:
                ranges.append((start, count))

        requests: List[IORequest] = []
        ino = inode.number
        cache = self.cache
        evicted_dirty: List[PageKey] = []
        for start, count in ranges:
            requests.extend(self.fs.map_read(inode, start, count))
            evicted_dirty.extend(cache.insert_pages(ino, start, count))

        latency = self._device_wait_and_service(requests)
        if evicted_dirty:
            latency += self._writeback_keys(evicted_dirty, synchronous=True)
        return latency

    def _prefetch(self, inode: Inode, start_page: int, count: int) -> None:
        """Asynchronous readahead: populate the cache, occupy the device."""
        ino = inode.number
        cache = self.cache
        needed = [p for p in range(start_page, start_page + count) if not cache.peek((ino, p))]
        if not needed:
            return
        requests = self.fs.map_read(inode, needed[0], needed[-1] - needed[0] + 1)
        # One run per stretch of non-resident pages: a run over a resident
        # page would promote it.
        evicted_dirty: List[PageKey] = []
        run_start = needed[0]
        for previous, page in zip(needed, needed[1:]):
            if page != previous + 1:
                evicted_dirty.extend(cache.insert_pages(ino, run_start, previous - run_start + 1))
                run_start = page
        evicted_dirty.extend(cache.insert_pages(ino, run_start, needed[-1] - run_start + 1))
        self._device_async(requests)
        if evicted_dirty:
            self._writeback_keys(evicted_dirty, synchronous=False)
        self.stats.readahead_pages += len(needed)

    # --------------------------------------------------------------- writes
    def write(self, fd: int, nbytes: int, offset: Optional[int] = None) -> float:
        """Write ``nbytes`` at ``offset`` (or the current position).

        Data lands dirty in the page cache; blocks are allocated as needed.
        Returns the latency in nanoseconds (including any throttling).
        """
        handle = self._open_files[fd]
        inode = handle.inode
        position = handle.position if offset is None else offset
        if position < 0 or nbytes <= 0:
            raise ValueError("offset must be >= 0 and nbytes > 0")
        end = position + nbytes

        latency = self._cpu_ns(self.cpu.syscall_overhead_ns)
        latency += self._cpu_ns(self._copy_cost_ns(nbytes))

        # Allocate backing blocks for any new part of the range.
        cost = self.fs.allocate_range(inode, position, nbytes, self.clock.now_ns)
        latency += self._apply_cost(cost)

        first_page = position >> self._page_shift
        last_page = (end - 1) >> self._page_shift
        ino = inode.number
        cache = self.cache

        # Partial first/last pages of an existing file require read-modify-write.
        rmw_pages: List[int] = []
        if position % self.page_size and not cache.peek((ino, first_page)):
            if inode.lookup_extent(first_page) is not None:
                rmw_pages.append(first_page)
        if end % self.page_size and last_page != first_page and not cache.peek((ino, last_page)):
            if inode.lookup_extent(last_page) is not None:
                rmw_pages.append(last_page)
        if rmw_pages:
            latency += self._fault_in(inode, rmw_pages, self._file_pages(inode))

        evicted_dirty = cache.insert_pages(ino, first_page, last_page - first_page + 1, dirty=True)
        if evicted_dirty:
            latency += self._writeback_keys(evicted_dirty, synchronous=True)

        latency += self._maybe_throttle()

        handle.position = end
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        self.clock.advance(latency)
        return latency

    def _maybe_throttle(self) -> float:
        """Dirty-page throttling: writers pay for writeback beyond the limits."""
        cache = self.cache
        if cache.capacity_pages == 0:
            return 0.0
        dirty_fraction = cache.dirty_pages / cache.capacity_pages
        if dirty_fraction < self.dirty_background_ratio:
            return 0.0
        keys = cache.dirty_keys()[: self._writeback_batch_pages]
        if dirty_fraction >= self.dirty_ratio:
            # Hard limit: the writer blocks until the batch is on the device.
            self.stats.throttle_events += 1
            return self._writeback_keys(keys, synchronous=True)
        self._writeback_keys(keys, synchronous=False)
        return 0.0

    def _writeback_keys(self, keys: List[PageKey], synchronous: bool) -> float:
        """Write dirty pages to the device; returns latency if synchronous."""
        if not keys:
            return 0.0
        requests: List[IORequest] = []
        for key in keys:
            requests.append(self._writeback_request(key))
            self.cache.clean(key)
        self.stats.writeback_pages += len(keys)
        requests.sort(key=lambda r: r.offset_bytes)
        if self.tracer is None:
            if synchronous:
                return self._device_wait_and_service(requests)
            self._device_async(requests)
            return 0.0
        self.tracer.push_context("writeback")
        try:
            if synchronous:
                return self._device_wait_and_service(requests)
            self._device_async(requests)
            return 0.0
        finally:
            self.tracer.pop_context()

    def _writeback_request(self, key: PageKey) -> IORequest:
        ino, index = key
        page_size = self.page_size
        if ino == INODE_TABLE_PSEUDO_INO:
            return IORequest(offset_bytes=index * self.fs.block_size, nbytes=page_size, is_write=True)
        if ino == BITMAP_PSEUDO_INO:
            offset = (8 + (index % 1024)) * self.fs.block_size
            return IORequest(offset_bytes=offset, nbytes=page_size, is_write=True)
        if ino == MAPPING_PSEUDO_INO:
            offset = (16384 + (index % 16384)) * self.fs.block_size
            return IORequest(offset_bytes=offset, nbytes=page_size, is_write=True)
        try:
            inode = self.fs.inode(ino)
        except NotFoundError:
            # The file was deleted with dirty pages outstanding; write nowhere
            # cheaply (a real kernel would simply drop them).
            return IORequest(offset_bytes=0, nbytes=page_size, is_write=True)
        extent = inode.lookup_extent(index)
        if extent is None:
            return IORequest(offset_bytes=0, nbytes=page_size, is_write=True)
        return IORequest(
            offset_bytes=extent.device_block_for(index) * self.fs.block_size,
            nbytes=page_size,
            is_write=True,
        )

    # ------------------------------------------------------------- metadata
    def _apply_cost(self, cost: OperationCost) -> float:
        """Execute an :class:`OperationCost`; returns the latency incurred."""
        latency = self._cpu_ns(cost.cpu_ns) if cost.cpu_ns else 0.0
        cache = self.cache
        for key, block in cost.metadata_reads:
            if not cache.lookup(key):
                block_size = self.fs.block_size
                latency += self._device_wait_and_service(
                    [IORequest(offset_bytes=block * block_size, nbytes=block_size)]
                )
                for victim, was_dirty in cache.insert(key):
                    if was_dirty:
                        latency += self._writeback_keys([victim], synchronous=True)
        for key in cost.dirty_page_keys:
            evicted = cache.insert(key, dirty=True)
            for victim, was_dirty in evicted:
                if was_dirty:
                    latency += self._writeback_keys([victim], synchronous=True)
        if cost.device_requests:
            latency += self._device_wait_and_service(list(cost.device_requests))
        if cost.discard_requests:
            # Like the real block layer: discards reach the device only when
            # it advertises TRIM support; everything else drops them before
            # any accounting, so non-TRIM devices behave bit-identically
            # whether or not the file system issues discards.
            if self.device.supports_discard:
                self.stats.discards_issued += len(cost.discard_requests)
                latency += self._device_wait_and_service(list(cost.discard_requests))
            else:
                self.stats.discards_dropped += len(cost.discard_requests)
        for _ in range(cost.flushes):
            flush_ns = self.device.flush(self.rng)
            if self.tracer is not None:
                self.tracer.flush(flush_ns)
            latency += flush_ns
        return latency

    def create(self, path: str) -> float:
        """Create an empty file; returns the latency charged."""
        latency = self._cpu_ns(self.cpu.syscall_overhead_ns)
        latency += self._apply_cost(self.fs.lookup_cost(path))
        inode, cost = self.fs.create(path, self.clock.now_ns)
        latency += self._apply_cost(cost)
        self.stats.creates += 1
        self.clock.advance(latency)
        return latency

    def mkdir(self, path: str) -> float:
        """Create a directory; returns the latency charged."""
        latency = self._cpu_ns(self.cpu.syscall_overhead_ns)
        latency += self._apply_cost(self.fs.lookup_cost(path))
        _, cost = self.fs.mkdir(path, self.clock.now_ns)
        latency += self._apply_cost(cost)
        self.clock.advance(latency)
        return latency

    def unlink(self, path: str) -> float:
        """Remove a file; returns the latency charged."""
        latency = self._cpu_ns(self.cpu.syscall_overhead_ns)
        latency += self._apply_cost(self.fs.lookup_cost(path))
        inode = self.fs.resolve(path)
        self.cache.invalidate_inode(inode.number)
        cost = self.fs.unlink(path, self.clock.now_ns)
        latency += self._apply_cost(cost)
        self.stats.unlinks += 1
        self.clock.advance(latency)
        return latency

    def truncate(self, path: str, size_bytes: int) -> float:
        """Truncate a file to ``size_bytes``; returns the latency charged.

        Shrinking drops the now-out-of-range cached pages and (on devices
        with TRIM support) discards the freed extents, keeping the FTL's
        free-space knowledge in sync with the namespace.
        """
        latency = self._cpu_ns(self.cpu.syscall_overhead_ns)
        latency += self._apply_cost(self.fs.lookup_cost(path))
        inode = self.fs.resolve(path)
        old_pages = self._file_pages(inode)
        cost = self.fs.truncate(path, size_bytes, self.clock.now_ns)
        keep_pages = -(-size_bytes // self.page_size)
        for page in range(keep_pages, old_pages):
            self.cache.invalidate((inode.number, page))
        latency += self._apply_cost(cost)
        self.stats.truncates += 1
        self.clock.advance(latency)
        return latency

    def rmdir(self, path: str) -> float:
        """Remove an empty directory; returns the latency charged."""
        latency = self._cpu_ns(self.cpu.syscall_overhead_ns)
        latency += self._apply_cost(self.fs.lookup_cost(path))
        cost = self.fs.rmdir(path, self.clock.now_ns)
        latency += self._apply_cost(cost)
        self.clock.advance(latency)
        return latency

    def rename(self, old_path: str, new_path: str) -> float:
        """Rename a file or directory; returns the latency charged."""
        latency = self._cpu_ns(self.cpu.syscall_overhead_ns)
        latency += self._apply_cost(self.fs.lookup_cost(old_path))
        latency += self._apply_cost(self.fs.lookup_cost(new_path))
        cost = self.fs.rename(old_path, new_path, self.clock.now_ns)
        latency += self._apply_cost(cost)
        self.clock.advance(latency)
        return latency

    def stat(self, path: str) -> float:
        """``stat()`` a path; returns the latency charged."""
        latency = self._cpu_ns(self.cpu.syscall_overhead_ns)
        latency += self._apply_cost(self.fs.lookup_cost(path))
        self.fs.resolve(path)
        self.stats.stats_calls += 1
        self.clock.advance(latency)
        return latency

    def fsync(self, fd: int) -> float:
        """Flush a file's dirty data and metadata; returns the latency charged."""
        handle = self._open_files[fd]
        inode = handle.inode
        ino = inode.number
        dirty = [key for key in self.cache.dirty_keys() if key[0] == ino]
        latency = self._cpu_ns(self.cpu.syscall_overhead_ns)
        latency += self._writeback_keys(dirty, synchronous=True)
        cost = self.fs.fsync_cost(inode, len(dirty), self.clock.now_ns)
        latency += self._apply_cost(cost)
        self.stats.fsyncs += 1
        self.clock.advance(latency)
        return latency

    # ------------------------------------------------------------ utilities
    def fallocate(self, fd: int, size_bytes: int, charge_time: bool = True) -> float:
        """Pre-allocate ``size_bytes`` for an open file (fileset setup helper).

        With ``charge_time=False`` the allocation happens "outside" the
        measured timeline: the clock is not advanced.  Benchmark setup uses
        this to build filesets without polluting warm-up measurements.
        """
        handle = self._open_files[fd]
        cost = self.fs.allocate_range(handle.inode, 0, size_bytes, self.clock.now_ns)
        flush = getattr(self.fs, "flush_delalloc", None)
        if flush is not None:
            cost = cost.merge(flush(handle.inode, self.clock.now_ns))
        if not charge_time:
            return 0.0
        latency = self._apply_cost(cost)
        self.clock.advance(latency)
        return latency

    def mkdirs_uncharged(self, path: str) -> None:
        """Create every missing directory component of ``path`` (mkdir -p).

        No time is charged: this is a setup helper for trace replay, aging
        and fileset construction, not a measured operation.
        """
        components = [c for c in path.split("/") if c]
        current = ""
        for component in components:
            current += "/" + component
            if not self.fs.exists(current):
                self.fs.mkdir(current, self.clock.now_ns)

    def sync(self) -> float:
        """Write back everything dirty (like ``sync(2)``)."""
        latency = self._writeback_keys(self.cache.dirty_keys(), synchronous=True)
        latency += self.device.flush(self.rng)
        self.clock.advance(latency)
        return latency

    def drop_caches(self) -> int:
        """Drop all clean pages after syncing dirty ones; returns pages dropped."""
        self.sync()
        return self.cache.drop_caches()

    def idle(self, duration_ns: float) -> None:
        """Advance the clock without doing work (think time in workloads)."""
        self.clock.advance(duration_ns)
