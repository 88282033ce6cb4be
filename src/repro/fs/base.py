"""Core file system abstractions: inodes, extents, directories, errors.

The file system models in this package are *behavioural*: they track the
block layout, metadata structure and CPU costs of each operation without
storing any user data.  What matters for benchmarking is **where** data lives
on the device and **how much work** each operation does -- not the bytes
themselves.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricSource
from repro.storage.device import IORequest


class FsError(Exception):
    """Base class for file system errors."""


class NoSpaceError(FsError):
    """The device (or an allocation group) is out of space (ENOSPC)."""


class NotFoundError(FsError):
    """A path component does not exist (ENOENT)."""


class ExistsError(FsError):
    """The target already exists (EEXIST)."""


class NotADirectoryError_(FsError):
    """A non-directory was used as a directory (ENOTDIR)."""


class IsADirectoryError_(FsError):
    """A directory was used where a regular file was required (EISDIR)."""


class NotEmptyError(FsError):
    """Attempt to remove a non-empty directory (ENOTEMPTY)."""


class InodeType(str, Enum):
    """File types supported by the simulated file systems."""

    REGULAR = "regular"
    DIRECTORY = "directory"
    SYMLINK = "symlink"


@dataclass(frozen=True)
class Extent:
    """A contiguous run of blocks mapping file blocks to device blocks.

    Attributes
    ----------
    file_block:
        First file-relative block covered by this extent.
    device_block:
        Device block backing ``file_block``.
    count:
        Number of consecutive blocks in the run.
    """

    file_block: int
    device_block: int
    count: int

    def __post_init__(self) -> None:
        if self.file_block < 0 or self.device_block < 0:
            raise ValueError("block numbers must be non-negative")
        if self.count <= 0:
            raise ValueError("extent count must be positive")

    @property
    def file_end(self) -> int:
        """One past the last file block covered."""
        return self.file_block + self.count

    def device_block_for(self, file_block: int) -> int:
        """Device block backing ``file_block`` (must lie inside the extent)."""
        if not (self.file_block <= file_block < self.file_end):
            raise ValueError(f"file block {file_block} outside extent {self}")
        return self.device_block + (file_block - self.file_block)


@dataclass
class DirectoryEntry:
    """A name -> inode link inside a directory."""

    name: str
    inode_number: int
    inode_type: InodeType


_extent_start = attrgetter("file_block")


@dataclass
class Inode:
    """An inode: metadata plus the extent map of a file or directory.

    The extent list is kept sorted by ``file_block``; :meth:`lookup_extent`
    bisects it in O(log n).  Change it only through :meth:`add_extent` and
    :meth:`truncate_extents` (or pass ``extents=`` to the constructor): they
    keep the block count that :meth:`blocks_allocated` returns in O(1).
    """

    number: int
    inode_type: InodeType
    size_bytes: int = 0
    nlink: int = 1
    atime_ns: float = 0.0
    mtime_ns: float = 0.0
    ctime_ns: float = 0.0
    extents: List[Extent] = field(default_factory=list)
    #: Directory contents (only for directories).
    entries: Dict[str, DirectoryEntry] = field(default_factory=dict)
    #: Symlink target (only for symlinks).
    symlink_target: Optional[str] = None

    def __post_init__(self) -> None:
        self._blocks = sum(extent.count for extent in self.extents)

    # ------------------------------------------------------------- geometry
    def blocks_allocated(self) -> int:
        """Total number of device blocks backing this inode."""
        return self._blocks

    def file_blocks(self, block_size: int) -> int:
        """Number of file blocks implied by the logical size."""
        return (self.size_bytes + block_size - 1) // block_size

    def fragmentation(self) -> int:
        """Number of discontiguities in the on-device layout.

        A perfectly laid out file has fragmentation 0; each break in physical
        contiguity adds one.  On-disk-layout nano-benchmarks report this.
        """
        breaks = 0
        for prev, cur in zip(self.extents, self.extents[1:]):
            if cur.device_block != prev.device_block + prev.count:
                breaks += 1
        return breaks

    # -------------------------------------------------------------- mapping
    def add_extent(self, extent: Extent) -> None:
        """Insert an extent, merging with a physically adjacent predecessor."""
        if self.extents:
            last = self.extents[-1]
            if (
                extent.file_block == last.file_end
                and extent.device_block == last.device_block + last.count
            ):
                self.extents[-1] = Extent(
                    file_block=last.file_block,
                    device_block=last.device_block,
                    count=last.count + extent.count,
                )
                self._blocks += extent.count
                return
            if extent.file_block < last.file_end:
                raise ValueError(
                    f"extent {extent} overlaps or precedes existing mapping ending at "
                    f"{last.file_end}"
                )
        self.extents.append(extent)
        self._blocks += extent.count

    def lookup_extent(self, file_block: int) -> Optional[Extent]:
        """Return the extent containing ``file_block`` or None if it is a hole."""
        idx = bisect.bisect_right(self.extents, file_block, key=_extent_start) - 1
        if idx < 0:
            return None
        extent = self.extents[idx]
        if extent.file_block <= file_block < extent.file_end:
            return extent
        return None

    def iter_device_runs(self, file_block: int, count: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(device_block, run_length)`` pairs covering a file-block range.

        Holes (unmapped blocks) are skipped -- reading a hole costs nothing at
        the device and returns zeroes, like a sparse file.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        remaining = count
        block = file_block
        while remaining > 0:
            extent = self.lookup_extent(block)
            if extent is None:
                # Hole: skip to the next mapped extent, if any.
                nxt = self._next_mapped_block(block)
                if nxt is None or nxt >= file_block + count:
                    return
                remaining -= nxt - block
                block = nxt
                continue
            run = min(remaining, extent.file_end - block)
            yield (extent.device_block_for(block), run)
            block += run
            remaining -= run

    def _next_mapped_block(self, file_block: int) -> Optional[int]:
        idx = bisect.bisect_left(self.extents, file_block, key=_extent_start)
        if idx >= len(self.extents):
            return None
        return self.extents[idx].file_block

    def truncate_extents(self, keep_blocks: int) -> List[Extent]:
        """Drop mappings beyond ``keep_blocks`` file blocks; return what was freed."""
        if keep_blocks < 0:
            raise ValueError("keep_blocks must be non-negative")
        kept: List[Extent] = []
        freed: List[Extent] = []
        for extent in self.extents:
            if extent.file_end <= keep_blocks:
                kept.append(extent)
            elif extent.file_block >= keep_blocks:
                freed.append(extent)
            else:
                keep_count = keep_blocks - extent.file_block
                kept.append(
                    Extent(extent.file_block, extent.device_block, keep_count)
                )
                freed.append(
                    Extent(
                        extent.file_block + keep_count,
                        extent.device_block + keep_count,
                        extent.count - keep_count,
                    )
                )
        self.extents = kept
        self._blocks -= sum(extent.count for extent in freed)
        return freed

    @property
    def is_directory(self) -> bool:
        """True when the inode is a directory."""
        return self.inode_type is InodeType.DIRECTORY

    @property
    def is_regular(self) -> bool:
        """True when the inode is a regular file."""
        return self.inode_type is InodeType.REGULAR


@dataclass
class FileSystemStats(MetricSource):
    """Operation counters kept by each file system model."""

    creates: int = 0
    unlinks: int = 0
    mkdirs: int = 0
    rmdirs: int = 0
    renames: int = 0
    truncates: int = 0
    lookups: int = 0
    block_allocations: int = 0
    blocks_allocated: int = 0
    blocks_freed: int = 0
    journal_commits: int = 0
    metadata_reads: int = 0
    metadata_writes: int = 0


@dataclass
class OperationCost:
    """The cost of a single file system operation.

    Attributes
    ----------
    cpu_ns:
        Pure CPU time to charge (lookups, allocator work, journal bookkeeping).
    device_requests:
        Synchronous device requests that must complete before the operation
        returns (metadata reads, journal commits, data blocks for reads that
        miss the cache).
    dirty_page_keys:
        Page-cache keys that the operation made dirty (data and metadata
        writes -- these are written back later, asynchronously).
    metadata_reads:
        ``(page_key, device_block)`` pairs for the metadata blocks the
        operation needs, in order: only when a key misses the page cache does
        the VFS build and submit a one-block read of ``device_block``, then
        insert the key.  This is how metadata caching (and the paper's
        observation that meta-data benchmarks silently become caching
        benchmarks) is modelled.
    discard_requests:
        Discard (TRIM) requests for device extents the operation freed
        (unlink, rmdir, truncate).  The file system always records them; the
        VFS forwards them only when the device advertises discard support and
        silently drops them otherwise -- exactly like the real block layer --
        so devices without TRIM keep bit-identical behaviour.
    """

    cpu_ns: float = 0.0
    device_requests: List[IORequest] = field(default_factory=list)
    dirty_page_keys: List[Tuple[int, int]] = field(default_factory=list)
    metadata_reads: List[Tuple[Tuple[int, int], int]] = field(default_factory=list)
    discard_requests: List[IORequest] = field(default_factory=list)
    #: Number of device cache flushes (write barriers) the operation requires.
    flushes: int = 0

    def merge(self, other: "OperationCost") -> "OperationCost":
        """Append ``other`` to this cost in place and return this cost.

        Composite operations rebind (``cost = cost.merge(part)``).  Each list
        grows by ``other``'s items after its own; ``cpu_ns`` and ``flushes``
        are summed; ``other`` is left unchanged.  Every cost owns its lists,
        so no other holder sees the extension.
        """
        self.cpu_ns += other.cpu_ns
        self.device_requests += other.device_requests
        self.dirty_page_keys += other.dirty_page_keys
        self.metadata_reads += other.metadata_reads
        self.discard_requests += other.discard_requests
        self.flushes += other.flushes
        return self


class FileSystem(ABC):
    """Interface implemented by the Ext2, Ext3 and XFS models.

    A file system owns the namespace (directories, inodes) and the mapping
    from file offsets to device blocks.  It never talks to the device or the
    page cache directly; instead each operation returns an
    :class:`OperationCost` that the VFS executes against the cache, the block
    device and the virtual clock.  This separation keeps the file system
    models small and makes their costs independently testable.
    """

    #: Short machine-readable name ("ext2", "ext3", "ext4", "xfs").
    name: str = "abstract"

    #: Number of pages brought in per cache miss (cluster read size).
    cluster_pages: int = 2

    def __init__(self, capacity_bytes: int, block_size: int = 4096) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        self.capacity_bytes = int(capacity_bytes)
        self.block_size = int(block_size)
        self.total_blocks = capacity_bytes // block_size
        self.stats = FileSystemStats()
        self._inodes: Dict[int, Inode] = {}
        self._next_inode = 2  # inode 1 is reserved, 2 is the root, like ext2
        self._root = self._new_inode(InodeType.DIRECTORY)

    # ----------------------------------------------------------- inode pool
    def _new_inode(self, inode_type: InodeType) -> Inode:
        inode = Inode(number=self._next_inode, inode_type=inode_type)
        self._inodes[inode.number] = inode
        self._next_inode += 1
        return inode

    @property
    def root(self) -> Inode:
        """The root directory inode."""
        return self._root

    def inode(self, number: int) -> Inode:
        """Look up an inode by number; raises :class:`NotFoundError` if absent."""
        try:
            return self._inodes[number]
        except KeyError:
            raise NotFoundError(f"no inode {number}") from None

    def inode_count(self) -> int:
        """Number of live inodes (including directories and the root)."""
        return len(self._inodes)

    # ------------------------------------------------------------ namespace
    def resolve(self, path: str) -> Inode:
        """Resolve an absolute path to an inode (no cost accounting).

        The VFS charges path-walk costs separately; this helper only performs
        the structural traversal.
        """
        inode, _, name = self._walk_parent(path)
        if name == "":
            return inode
        entry = inode.entries.get(name)
        if entry is None:
            raise NotFoundError(path)
        return self.inode(entry.inode_number)

    def exists(self, path: str) -> bool:
        """True if ``path`` resolves to an inode."""
        try:
            self.resolve(path)
            return True
        except FsError:
            return False

    def _walk_parent(self, path: str) -> Tuple[Inode, List[str], str]:
        """Return (parent inode, components walked, final component)."""
        if not path.startswith("/"):
            raise ValueError(f"paths must be absolute: {path!r}")
        components = [c for c in path.split("/") if c]
        if not components:
            return (self._root, [], "")
        current = self._root
        walked: List[str] = []
        for component in components[:-1]:
            entry = current.entries.get(component)
            if entry is None:
                raise NotFoundError("/" + "/".join(walked + [component]))
            nxt = self.inode(entry.inode_number)
            if not nxt.is_directory:
                raise NotADirectoryError_("/" + "/".join(walked + [component]))
            current = nxt
            walked.append(component)
        return (current, walked, components[-1])

    def path_depth(self, path: str) -> int:
        """Number of components in an absolute path (used for lookup costs)."""
        return len([c for c in path.split("/") if c])

    def list_directory(self, path: str) -> List[DirectoryEntry]:
        """Return the entries of a directory, sorted by name."""
        inode = self.resolve(path)
        if not inode.is_directory:
            raise NotADirectoryError_(path)
        return sorted(inode.entries.values(), key=lambda e: e.name)

    # --------------------------------------------------------- FS interface
    @abstractmethod
    def create(self, path: str, now_ns: float) -> Tuple[Inode, OperationCost]:
        """Create an empty regular file and return it with the operation cost."""

    @abstractmethod
    def mkdir(self, path: str, now_ns: float) -> Tuple[Inode, OperationCost]:
        """Create a directory."""

    @abstractmethod
    def unlink(self, path: str, now_ns: float) -> OperationCost:
        """Remove a regular file (or symlink)."""

    @abstractmethod
    def rmdir(self, path: str, now_ns: float) -> OperationCost:
        """Remove an empty directory."""

    @abstractmethod
    def rename(self, old_path: str, new_path: str, now_ns: float) -> OperationCost:
        """Rename/move a file or directory."""

    @abstractmethod
    def allocate_range(
        self, inode: Inode, offset_bytes: int, nbytes: int, now_ns: float
    ) -> OperationCost:
        """Ensure blocks exist for ``[offset, offset+nbytes)`` (called on writes)."""

    def truncate(self, path: str, size_bytes: int, now_ns: float) -> OperationCost:
        """Shrink or extend a regular file to ``size_bytes``.

        Shrinking frees the blocks beyond the new size (and records discards
        for them); extending only grows the logical size (a hole, like
        ``ftruncate``).  Concrete models implement this; the base raises so
        minimal custom file systems remain constructible without it.
        """
        raise NotImplementedError(f"{type(self).__name__} does not implement truncate")

    @abstractmethod
    def map_read(self, inode: Inode, first_page: int, page_count: int) -> List[IORequest]:
        """Device requests needed to read the given page range from disk."""

    @abstractmethod
    def lookup_cost(self, path: str) -> OperationCost:
        """Cost of resolving ``path`` (directory traversal CPU + metadata reads)."""

    @abstractmethod
    def fsync_cost(self, inode: Inode, dirty_data_pages: int, now_ns: float) -> OperationCost:
        """Cost of making an inode durable, excluding the data-page writes themselves."""

    # ------------------------------------------------------------ utilities
    def free_blocks(self) -> int:
        """Number of unallocated data blocks remaining."""
        raise NotImplementedError

    def utilization(self) -> float:
        """Fraction of data blocks currently allocated."""
        free = self.free_blocks()
        return 1.0 - free / max(1, self.total_blocks)

    def __repr__(self) -> str:
        gib = self.capacity_bytes / (1024 ** 3)
        return f"{type(self).__name__}({gib:.0f}GiB, block={self.block_size})"
