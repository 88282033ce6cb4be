"""Shared machinery for the Unix-like file system models.

Ext2, Ext3, Ext4 and XFS differ in their allocators, journaling, directory
structures and prefetch (cluster-read) behaviour, but share the namespace
mechanics.  :class:`UnixFileSystemBase` implements those mechanics once and
exposes the differences as a handful of well-named knobs and hooks that the
concrete models override.  :class:`DelayedAllocationMixin` implements the
delalloc write path shared by the XFS and Ext4 models.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.fs.base import (
    DirectoryEntry,
    ExistsError,
    Extent,
    FileSystem,
    Inode,
    InodeType,
    IsADirectoryError_,
    NotADirectoryError_,
    NotEmptyError,
    NotFoundError,
    OperationCost,
)
from repro.storage.device import IORequest

#: Pseudo-inode number used for page-cache keys of inode-table blocks.
INODE_TABLE_PSEUDO_INO = -2
#: Pseudo-inode number used for page-cache keys of allocator bitmap blocks.
BITMAP_PSEUDO_INO = -3
#: Pseudo-inode number used for indirect/extent-map blocks of large files.
MAPPING_PSEUDO_INO = -4

PageKey = Tuple[int, int]


class UnixFileSystemBase(FileSystem):
    """Common implementation of the namespace and data-path cost model.

    Subclasses must:

    * call ``super().__init__`` and then :meth:`_setup_layout` (which calls
      the :meth:`_make_allocator` hook);
    * set the class attributes below to describe their personality.

    Class attributes
    ----------------
    cluster_pages:
        Pages brought into the cache per data miss.
    directory_scan_is_linear:
        Linear-scan directories (ext2/ext3) pay per-entry lookup CPU; B-tree
        directories (XFS, ext3+htree) pay logarithmic costs.
    inode_size_bytes:
        On-disk inode size; determines how many inodes share a metadata block.
    metadata_cpu_factor:
        Multiplier on metadata CPU costs, capturing "heavier" code paths.
    """

    directory_scan_is_linear: bool = True
    inode_size_bytes: int = 256
    metadata_cpu_factor: float = 1.0

    # Base CPU costs (ns) for metadata work; multiplied by metadata_cpu_factor.
    _DIRENT_LOOKUP_BASE_NS = 600.0
    _DIRENT_SCAN_PER_ENTRY_NS = 12.0
    _DIRENT_BTREE_PER_LEVEL_NS = 350.0
    _INODE_INIT_NS = 2_500.0
    _DIRENT_INSERT_NS = 1_200.0
    _DIRENT_REMOVE_NS = 1_000.0
    _ALLOC_CALL_NS = 3_000.0
    _EXTENT_MAP_NS = 400.0
    _FREE_CALL_NS = 2_000.0
    _FSYNC_BASE_NS = 4_000.0

    #: Directory entries per 4 KiB directory block.
    _ENTRIES_PER_DIR_BLOCK = 128
    #: First device block of the inode table region.
    _INODE_TABLE_START_BLOCK = 64
    #: File blocks covered by one indirect/extent-map block.
    _BLOCKS_PER_MAP_BLOCK = 1024

    def __init__(self, capacity_bytes: int, block_size: int = 4096) -> None:
        super().__init__(capacity_bytes, block_size)
        self._dir_goal_block: Dict[int, int] = {}
        self.allocator = self._make_allocator()
        self._inodes_per_block = max(1, self.block_size // self.inode_size_bytes)

    # ------------------------------------------------------------ subclass hooks
    def _make_allocator(self):
        """Create the block allocator for this file system."""
        raise NotImplementedError

    def _journal_transaction(self, metadata_blocks: List[int]) -> OperationCost:
        """Return the journaling cost for dirtying ``metadata_blocks``.

        The default (ext2) has no journal and returns an empty cost.
        """
        return OperationCost()

    # ------------------------------------------------------------ key helpers
    def _inode_table_block(self, inode_number: int) -> int:
        return self._INODE_TABLE_START_BLOCK + max(0, inode_number) // self._inodes_per_block

    def _inode_table_key(self, inode_number: int) -> PageKey:
        return (INODE_TABLE_PSEUDO_INO, self._inode_table_block(inode_number))

    def _inode_table_write(self, inode_number: int) -> IORequest:
        return IORequest(
            offset_bytes=self._inode_table_block(inode_number) * self.block_size,
            nbytes=self.block_size,
            is_write=True,
        )

    def _dir_block_key(self, directory: Inode, entry_index: int) -> PageKey:
        return (directory.number, entry_index // self._ENTRIES_PER_DIR_BLOCK)

    def _dir_block_count(self, directory: Inode) -> int:
        return max(1, -(-len(directory.entries) // self._ENTRIES_PER_DIR_BLOCK))

    # ------------------------------------------------------------ cpu helpers
    def _cpu(self, base_ns: float) -> float:
        return base_ns * self.metadata_cpu_factor

    def _dirent_lookup_cpu(self, directory: Inode) -> float:
        entries = max(1, len(directory.entries))
        if self.directory_scan_is_linear:
            # Expected linear scan touches half the entries.
            return self._cpu(self._DIRENT_LOOKUP_BASE_NS + self._DIRENT_SCAN_PER_ENTRY_NS * entries / 2)
        depth = max(1, entries.bit_length() // 4)  # fan-out ~16 per B-tree level
        return self._cpu(self._DIRENT_LOOKUP_BASE_NS + self._DIRENT_BTREE_PER_LEVEL_NS * depth)

    # ------------------------------------------------------------ dir storage
    def _ensure_directory_blocks(self, directory: Inode, now_ns: float) -> OperationCost:
        """Allocate backing blocks for a directory that has grown."""
        needed_blocks = self._dir_block_count(directory)
        have_blocks = directory.blocks_allocated()
        cost = OperationCost()
        while have_blocks < needed_blocks:
            goal = self._goal_block_for(directory)
            runs = self.allocator.allocate(1, goal_block=goal)
            for start, count in runs:
                directory.add_extent(Extent(have_blocks, start, count))
                have_blocks += count
            cost.cpu_ns += self._cpu(self._ALLOC_CALL_NS)
            cost.dirty_page_keys.append((BITMAP_PSEUDO_INO, self.allocator_group_of(runs[0][0])))
            self.stats.block_allocations += 1
            self.stats.blocks_allocated += sum(count for _, count in runs)
        directory.size_bytes = needed_blocks * self.block_size
        directory.mtime_ns = now_ns
        return cost

    def allocator_group_of(self, device_block: int) -> int:
        """Allocator group index for a device block (used to key bitmap pages)."""
        return self.allocator.group_of_block(device_block)

    def _discard_request(self, device_block: int, count: int) -> IORequest:
        """A discard (TRIM) request covering a freed device-block run."""
        return IORequest(
            offset_bytes=device_block * self.block_size,
            nbytes=count * self.block_size,
            is_discard=True,
        )

    def _goal_block_for(self, inode: Inode) -> int:
        """Allocation goal: keep a file near its directory's previous allocations."""
        if inode.extents:
            last = inode.extents[-1]
            return last.device_block + last.count
        goal = self._dir_goal_block.get(inode.number)
        if goal is not None:
            return goal
        # Spread unrelated inodes across the device like block-group placement.
        spread = (inode.number * 2654435761) % max(1, self.total_blocks)
        return spread

    def _remember_goal(self, parent: Inode, device_block: int) -> None:
        self._dir_goal_block.setdefault(parent.number, device_block)

    # ------------------------------------------------------------ namespace ops
    def create(self, path: str, now_ns: float) -> Tuple[Inode, OperationCost]:
        parent, _, name = self._walk_parent(path)
        if not name:
            raise ExistsError(path)
        if not parent.is_directory:
            raise NotADirectoryError_(path)
        if name in parent.entries:
            raise ExistsError(path)

        inode = self._new_inode(InodeType.REGULAR)
        inode.atime_ns = inode.mtime_ns = inode.ctime_ns = now_ns
        parent.entries[name] = DirectoryEntry(name, inode.number, InodeType.REGULAR)
        parent.mtime_ns = now_ns

        cost = OperationCost(cpu_ns=self._cpu(self._INODE_INIT_NS + self._DIRENT_INSERT_NS))
        cost = cost.merge(self._ensure_directory_blocks(parent, now_ns))
        entry_index = len(parent.entries) - 1
        dirty_blocks = [
            self._inode_table_block(inode.number),
            self._inode_table_block(parent.number),
        ]
        cost.dirty_page_keys.append(self._inode_table_key(inode.number))
        cost.dirty_page_keys.append(self._inode_table_key(parent.number))
        cost.dirty_page_keys.append(self._dir_block_key(parent, entry_index))
        cost = cost.merge(self._journal_transaction(dirty_blocks))
        self.stats.creates += 1
        return inode, cost

    def mkdir(self, path: str, now_ns: float) -> Tuple[Inode, OperationCost]:
        parent, _, name = self._walk_parent(path)
        if not name:
            raise ExistsError(path)
        if not parent.is_directory:
            raise NotADirectoryError_(path)
        if name in parent.entries:
            raise ExistsError(path)

        inode = self._new_inode(InodeType.DIRECTORY)
        inode.atime_ns = inode.mtime_ns = inode.ctime_ns = now_ns
        inode.nlink = 2
        parent.entries[name] = DirectoryEntry(name, inode.number, InodeType.DIRECTORY)
        parent.nlink += 1
        parent.mtime_ns = now_ns

        cost = OperationCost(cpu_ns=self._cpu(self._INODE_INIT_NS + 2 * self._DIRENT_INSERT_NS))
        cost = cost.merge(self._ensure_directory_blocks(parent, now_ns))
        cost = cost.merge(self._ensure_directory_blocks(inode, now_ns))
        dirty_blocks = [
            self._inode_table_block(inode.number),
            self._inode_table_block(parent.number),
        ]
        cost.dirty_page_keys.append(self._inode_table_key(inode.number))
        cost.dirty_page_keys.append(self._inode_table_key(parent.number))
        cost.dirty_page_keys.append(self._dir_block_key(parent, len(parent.entries) - 1))
        cost = cost.merge(self._journal_transaction(dirty_blocks))
        self.stats.mkdirs += 1
        return inode, cost

    def unlink(self, path: str, now_ns: float) -> OperationCost:
        parent, _, name = self._walk_parent(path)
        entry = parent.entries.get(name)
        if entry is None:
            raise NotFoundError(path)
        inode = self.inode(entry.inode_number)
        if inode.is_directory:
            raise IsADirectoryError_(path)

        del parent.entries[name]
        parent.mtime_ns = now_ns
        inode.nlink -= 1

        cost = OperationCost(cpu_ns=self._cpu(self._DIRENT_REMOVE_NS))
        cost.dirty_page_keys.append(self._inode_table_key(parent.number))
        cost.dirty_page_keys.append(self._dir_block_key(parent, 0))
        dirty_blocks = [self._inode_table_block(parent.number)]

        if inode.nlink <= 0:
            freed_blocks = 0
            for extent in inode.extents:
                self.allocator.free(extent.device_block, extent.count)
                freed_blocks += extent.count
                cost.dirty_page_keys.append(
                    (BITMAP_PSEUDO_INO, self.allocator_group_of(extent.device_block))
                )
                cost.discard_requests.append(
                    self._discard_request(extent.device_block, extent.count)
                )
            cost.cpu_ns += self._cpu(self._FREE_CALL_NS + self._EXTENT_MAP_NS * len(inode.extents))
            cost.dirty_page_keys.append(self._inode_table_key(inode.number))
            dirty_blocks.append(self._inode_table_block(inode.number))
            self.stats.blocks_freed += freed_blocks
            del self._inodes[inode.number]

        cost = cost.merge(self._journal_transaction(dirty_blocks))
        self.stats.unlinks += 1
        return cost

    def rmdir(self, path: str, now_ns: float) -> OperationCost:
        parent, _, name = self._walk_parent(path)
        entry = parent.entries.get(name)
        if entry is None:
            raise NotFoundError(path)
        inode = self.inode(entry.inode_number)
        if not inode.is_directory:
            raise NotADirectoryError_(path)
        if inode.entries:
            raise NotEmptyError(path)

        del parent.entries[name]
        parent.nlink -= 1
        parent.mtime_ns = now_ns
        cost = OperationCost(cpu_ns=self._cpu(self._DIRENT_REMOVE_NS + self._FREE_CALL_NS))
        for extent in inode.extents:
            self.allocator.free(extent.device_block, extent.count)
            cost.discard_requests.append(
                self._discard_request(extent.device_block, extent.count)
            )
        del self._inodes[inode.number]
        cost.dirty_page_keys.append(self._inode_table_key(parent.number))
        cost.dirty_page_keys.append(self._dir_block_key(parent, 0))
        cost = cost.merge(
            self._journal_transaction(
                [self._inode_table_block(parent.number), self._inode_table_block(inode.number)]
            )
        )
        self.stats.rmdirs += 1
        return cost

    def rename(self, old_path: str, new_path: str, now_ns: float) -> OperationCost:
        old_parent, _, old_name = self._walk_parent(old_path)
        entry = old_parent.entries.get(old_name)
        if entry is None:
            raise NotFoundError(old_path)
        new_parent, _, new_name = self._walk_parent(new_path)
        if not new_name:
            raise ExistsError(new_path)

        cost = OperationCost(
            cpu_ns=self._cpu(self._DIRENT_REMOVE_NS + self._DIRENT_INSERT_NS)
        )
        existing = new_parent.entries.get(new_name)
        if existing is not None:
            target = self.inode(existing.inode_number)
            if target.is_directory:
                raise IsADirectoryError_(new_path)
            cost = cost.merge(self.unlink(new_path, now_ns))

        del old_parent.entries[old_name]
        new_parent.entries[new_name] = DirectoryEntry(new_name, entry.inode_number, entry.inode_type)
        old_parent.mtime_ns = now_ns
        new_parent.mtime_ns = now_ns
        cost = cost.merge(self._ensure_directory_blocks(new_parent, now_ns))

        cost.dirty_page_keys.append(self._dir_block_key(old_parent, 0))
        cost.dirty_page_keys.append(self._dir_block_key(new_parent, len(new_parent.entries) - 1))
        cost.dirty_page_keys.append(self._inode_table_key(old_parent.number))
        cost.dirty_page_keys.append(self._inode_table_key(new_parent.number))
        cost = cost.merge(
            self._journal_transaction(
                [
                    self._inode_table_block(old_parent.number),
                    self._inode_table_block(new_parent.number),
                ]
            )
        )
        self.stats.renames += 1
        return cost

    # ------------------------------------------------------------ data path
    def allocate_range(
        self, inode: Inode, offset_bytes: int, nbytes: int, now_ns: float
    ) -> OperationCost:
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        first_block = offset_bytes // self.block_size
        last_block = (offset_bytes + nbytes - 1) // self.block_size
        cost = OperationCost()

        # Find the unmapped gaps in [first_block, last_block].
        gaps: List[Tuple[int, int]] = []
        block = first_block
        while block <= last_block:
            extent = inode.lookup_extent(block)
            if extent is not None:
                block = extent.file_end
                continue
            gap_start = block
            next_mapped = inode._next_mapped_block(block)
            gap_end = last_block + 1 if next_mapped is None else min(last_block + 1, next_mapped)
            gaps.append((gap_start, gap_end - gap_start))
            block = gap_end

        mapped_new = 0
        for gap_start, gap_count in gaps:
            goal = self._goal_block_for(inode)
            runs = self.allocator.allocate(gap_count, goal_block=goal)
            file_block = gap_start
            for start, count in runs:
                inode.add_extent(Extent(file_block, start, count))
                file_block += count
                cost.dirty_page_keys.append(
                    (BITMAP_PSEUDO_INO, self.allocator_group_of(start))
                )
            mapped_new += gap_count
            cost.cpu_ns += self._cpu(self._ALLOC_CALL_NS + self._EXTENT_MAP_NS * len(runs))
            self.stats.block_allocations += 1
            self.stats.blocks_allocated += gap_count
            self._remember_goal(inode, runs[0][0])

        if mapped_new:
            # Large files dirty one mapping (indirect/extent) block per chunk.
            map_blocks = -(-mapped_new // self._BLOCKS_PER_MAP_BLOCK)
            for index in range(map_blocks):
                cost.dirty_page_keys.append(
                    (MAPPING_PSEUDO_INO, inode.number * 4096 + (first_block // self._BLOCKS_PER_MAP_BLOCK) + index)
                )
            cost.dirty_page_keys.append(self._inode_table_key(inode.number))
            cost = cost.merge(
                self._journal_transaction([self._inode_table_block(inode.number)])
            )

        new_size = offset_bytes + nbytes
        if new_size > inode.size_bytes:
            inode.size_bytes = new_size
        inode.mtime_ns = now_ns
        return cost

    def truncate(self, path: str, size_bytes: int, now_ns: float) -> OperationCost:
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        inode = self.resolve(path)
        if not inode.is_regular:
            raise IsADirectoryError_(path)

        cost = OperationCost(cpu_ns=self._cpu(self._FREE_CALL_NS))
        keep_blocks = -(-size_bytes // self.block_size)
        freed = inode.truncate_extents(keep_blocks)
        freed_blocks = 0
        for extent in freed:
            self.allocator.free(extent.device_block, extent.count)
            freed_blocks += extent.count
            cost.dirty_page_keys.append(
                (BITMAP_PSEUDO_INO, self.allocator_group_of(extent.device_block))
            )
            cost.discard_requests.append(
                self._discard_request(extent.device_block, extent.count)
            )
        cost.cpu_ns += self._cpu(self._EXTENT_MAP_NS * len(freed))
        self.stats.blocks_freed += freed_blocks

        inode.size_bytes = size_bytes
        inode.mtime_ns = now_ns
        inode.ctime_ns = now_ns
        cost.dirty_page_keys.append(self._inode_table_key(inode.number))
        cost = cost.merge(
            self._journal_transaction([self._inode_table_block(inode.number)])
        )
        self.stats.truncates += 1
        return cost

    def map_read(self, inode: Inode, first_page: int, page_count: int) -> List[IORequest]:
        if page_count <= 0:
            raise ValueError("page_count must be positive")
        block_size = self.block_size
        extent = inode.lookup_extent(first_page)
        if extent is not None and first_page + page_count <= extent.file_end:
            # The common case: the whole range lies inside one extent.
            device_block = extent.device_block + (first_page - extent.file_block)
            return [IORequest(device_block * block_size, page_count * block_size)]
        return [
            IORequest(device_block * block_size, run * block_size)
            for device_block, run in inode.iter_device_runs(first_page, page_count)
        ]

    def lookup_cost(self, path: str) -> OperationCost:
        cost = OperationCost()
        components = [c for c in path.split("/") if c]
        current = self._root
        reads = cost.metadata_reads
        for component in components:
            cost.cpu_ns += self._dirent_lookup_cpu(current)
            block = self._inode_table_block(current.number)
            reads.append(((INODE_TABLE_PSEUDO_INO, block), block))
            extent = current.lookup_extent(0)
            if extent is not None:
                reads.append((self._dir_block_key(current, 0), extent.device_block_for(0)))
            entry = current.entries.get(component)
            if entry is None:
                break
            nxt = self._inodes.get(entry.inode_number)
            if nxt is None:
                break
            block = self._inode_table_block(nxt.number)
            reads.append(((INODE_TABLE_PSEUDO_INO, block), block))
            if not nxt.is_directory:
                break
            current = nxt
        self.stats.lookups += 1
        return cost

    def fsync_cost(self, inode: Inode, dirty_data_pages: int, now_ns: float) -> OperationCost:
        cost = OperationCost(cpu_ns=self._cpu(self._FSYNC_BASE_NS))
        cost.device_requests.append(self._inode_table_write(inode.number))
        cost.flushes += 1
        self.stats.metadata_writes += 1
        return cost

    # ------------------------------------------------------------ capacity
    def free_blocks(self) -> int:
        return self.allocator.free_blocks


class DelayedAllocationMixin:
    """Delayed allocation (delalloc) shared by the XFS and Ext4 models.

    Writes *reserve* space (cheap, in-memory bookkeeping) instead of
    allocating blocks; the reservation is converted into real, contiguous
    extents when something forces it -- a flush, an fsync, a read of the
    written range, or (on ext4) a journal commit.  Batching many small
    appends into one allocation call is what keeps delalloc file layouts
    contiguous.

    Mix in *before* :class:`UnixFileSystemBase` in the MRO and call
    :meth:`_init_delalloc` at the end of ``__init__``.
    """

    #: CPU cost of taking a delalloc reservation (in-memory only).
    _DELALLOC_RESERVE_CPU_NS = 900.0

    def _init_delalloc(self, enabled: bool) -> None:
        self.delayed_allocation = enabled
        #: Bytes reserved (delalloc) but not yet allocated, per inode number.
        self._delalloc_reservations: Dict[int, int] = {}

    # ----------------------------------------------------------- reservations
    def allocate_range(
        self, inode: Inode, offset_bytes: int, nbytes: int, now_ns: float
    ) -> OperationCost:
        if not self.delayed_allocation:
            return super().allocate_range(inode, offset_bytes, nbytes, now_ns)

        # Reserve now, allocate at flush time: extend the logical size and
        # remember the reservation; the actual extents are created lazily.
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        end = offset_bytes + nbytes
        reserved = self._delalloc_reservations.get(inode.number, 0)
        already_mapped_bytes = inode.blocks_allocated() * self.block_size
        new_reservation = max(reserved, end - already_mapped_bytes)
        if new_reservation > 0:
            self._delalloc_reservations[inode.number] = new_reservation
        else:
            # Overwriting an already-mapped range reserves nothing; a 0-byte
            # entry would still trigger commit-time resolution work.
            self._delalloc_reservations.pop(inode.number, None)
        if end > inode.size_bytes:
            inode.size_bytes = end
        inode.mtime_ns = now_ns
        return OperationCost(cpu_ns=self._cpu(self._DELALLOC_RESERVE_CPU_NS))

    def flush_delalloc(self, inode: Inode, now_ns: float) -> OperationCost:
        """Convert outstanding reservations into real, contiguous extents."""
        reserved = self._delalloc_reservations.pop(inode.number, 0)
        if reserved <= 0:
            return OperationCost()
        start_byte = inode.blocks_allocated() * self.block_size
        return super().allocate_range(inode, start_byte, reserved, now_ns)

    def delalloc_reserved_bytes(self) -> int:
        """Total bytes reserved but not yet backed by extents."""
        return sum(self._delalloc_reservations.values())

    # ------------------------------------------------------------ interactions
    def map_read(self, inode: Inode, first_page: int, page_count: int) -> List[IORequest]:
        # Reads force delayed allocations to materialise first (like a flush).
        requests: List[IORequest] = []
        if self.delayed_allocation and self._delalloc_reservations.get(inode.number):
            cost = self.flush_delalloc(inode, inode.mtime_ns)
            # The flush's device work (journal commit, checkpoint writes on
            # ext4; log writes on xfs) must reach the device with this read,
            # so it joins the returned batch.  The rest of the flush cost --
            # CPU, barrier flushes, and the dirty metadata pages
            # (bitmap/mapping/inode-table) it would mark -- is elided: the
            # map_read contract can only carry device requests.  A deliberate
            # simplification of the read-forces-materialisation model.
            requests.extend(cost.device_requests)
        requests.extend(super().map_read(inode, first_page, page_count))
        return requests

    def unlink(self, path: str, now_ns: float) -> OperationCost:
        # Dropping a never-flushed file cancels its reservation outright;
        # without this, stale reservations of dead inodes accumulate (and
        # leak into state snapshots).
        inode = self.resolve(path)
        cost = super().unlink(path, now_ns)
        if inode.nlink <= 0:
            self._delalloc_reservations.pop(inode.number, None)
        return cost

    def truncate(self, path: str, size_bytes: int, now_ns: float) -> OperationCost:
        # Shrinking trims the reservation before the extents: bytes that were
        # only ever reserved (never allocated) vanish for free, and the
        # reservation can never exceed the part of the file beyond the
        # mapped blocks.
        inode = self.resolve(path)
        cost = super().truncate(path, size_bytes, now_ns)
        reserved = self._delalloc_reservations.get(inode.number)
        if reserved is not None:
            mapped_bytes = inode.blocks_allocated() * self.block_size
            new_reserved = min(reserved, max(0, size_bytes - mapped_bytes))
            if new_reserved > 0:
                self._delalloc_reservations[inode.number] = new_reserved
            else:
                self._delalloc_reservations.pop(inode.number, None)
        return cost
