"""Block allocators.

Three allocators are provided, matching the layout philosophies of the file
systems in the case study and its ext4 extension:

* :class:`BlockGroupAllocator` -- ext2/ext3-style: the device is divided into
  block groups; files are allocated first-fit within a goal group, spilling to
  subsequent groups when the goal is full.  Large files therefore fragment at
  group boundaries.
* :class:`ExtentAllocator` -- XFS-style: free space is tracked as extents in
  (approximately) by-size order; allocations grab the largest suitable run,
  producing long contiguous extents until free space fragments.
* :class:`MultiBlockAllocator` -- ext4-style (mballoc): ext2's block-group
  geometry, but each request is first placed as one contiguous run (goal
  group first, then any group) before falling back to first-fit splitting.
  Files stay contiguous up to a group's worth of blocks, then fragment at
  group boundaries -- between the two older philosophies.

All three share :class:`FreeSpaceInspectionMixin` (free-space statistics and
snapshot export/restore) because they all keep per-group
:class:`FreeExtentMap` objects.  The allocators return *device block runs*;
the callers wrap them in :class:`~repro.fs.base.Extent` objects tied to file
offsets.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.fs.base import NoSpaceError
from repro.obs.metrics import MetricSource

BlockRun = Tuple[int, int]  # (first_device_block, count)


@dataclass
class AllocatorStats(MetricSource):
    """Counters shared by both allocator families."""

    allocations: int = 0
    frees: int = 0
    blocks_allocated: int = 0
    blocks_freed: int = 0
    split_allocations: int = 0


@dataclass(frozen=True)
class FreeSpaceStats:
    """A point-in-time description of an allocator's free space.

    Where :class:`AllocatorStats` counts allocation-side *events*, this
    describes the free-space *state*: how many free extents exist, how big
    they are, and how shredded the free space is.  Both allocator families
    report it identically (via :class:`FreeSpaceInspectionMixin`), which is
    what the aging subsystem's fragmentation metrics build on.
    """

    free_blocks: int
    extent_count: int
    largest_extent_blocks: int
    mean_extent_blocks: float

    @property
    def fragmentation_score(self) -> float:
        """0.0 = one contiguous free region, approaching 1.0 = fully shredded.

        Defined as ``1 - largest_extent / free_blocks`` (the classic
        free-space fragmentation measure); 0.0 when there is no free space.
        """
        if self.free_blocks <= 0:
            return 0.0
        return 1.0 - self.largest_extent_blocks / self.free_blocks


class FreeSpaceInspectionMixin:
    """Uniform free-space reporting and state export for both allocators.

    Both :class:`BlockGroupAllocator` and :class:`ExtentAllocator` keep their
    free space as a list of per-group :class:`FreeExtentMap` objects in
    ``self._groups``; this mixin turns that shared representation into a
    consistent public surface.  ``self._free_blocks`` is the sum of the
    groups' free counts, kept by :meth:`_take`, :meth:`_release` and
    :meth:`restore_free_state` so no allocation has to sum the groups.
    """

    _groups: List[FreeExtentMap]
    _free_blocks: int

    @property
    def free_blocks(self) -> int:
        """Total free data blocks across all groups (O(1): a maintained count)."""
        return self._free_blocks

    def _groups_from(self, goal_group: int) -> Iterator[int]:
        """Group indexes from ``goal_group`` to the last, then wrapping to the first."""
        return itertools.chain(range(goal_group, len(self._groups)), range(goal_group))

    def _take(self, group: FreeExtentMap, index: int, count: int) -> BlockRun:
        run = group.take_from_run(index, count)
        self._free_blocks -= count
        return run

    def _release(self, group: FreeExtentMap, start: int, count: int) -> None:
        group.release(start, count)
        self._free_blocks += count

    def free_runs(self) -> List[BlockRun]:
        """Every free run on the device, sorted by start block."""
        runs: List[BlockRun] = []
        for group in self._groups:
            runs.extend(group.runs())
        runs.sort()
        return runs

    def free_extent_count(self) -> int:
        """Number of free extents across all groups."""
        return sum(len(group) for group in self._groups)

    def largest_free_run(self) -> int:
        """Size (in blocks) of the largest free run anywhere on the device."""
        return max((group.largest_run() for group in self._groups), default=0)

    def free_space_stats(self) -> FreeSpaceStats:
        """Point-in-time free-space statistics (see :class:`FreeSpaceStats`)."""
        free = self.free_blocks
        count = self.free_extent_count()
        return FreeSpaceStats(
            free_blocks=free,
            extent_count=count,
            largest_extent_blocks=self.largest_free_run(),
            mean_extent_blocks=free / count if count else 0.0,
        )

    # ------------------------------------------------------- snapshot support
    def export_free_state(self) -> List[List[BlockRun]]:
        """Per-group free-run lists, suitable for JSON serialisation."""
        return [group.runs() for group in self._groups]

    def restore_free_state(self, state: List[List[BlockRun]]) -> None:
        """Overwrite the free maps with previously exported state."""
        if len(state) != len(self._groups):
            raise ValueError(
                f"snapshot has {len(state)} allocator groups, allocator has {len(self._groups)}"
            )
        for group, runs in zip(self._groups, state):
            group.replace_runs([(int(start), int(count)) for start, count in runs])
        self._free_blocks = sum(group.free_blocks for group in self._groups)


class FreeExtentMap:
    """A sorted map of free block runs supporting split and coalesce.

    Internally a sorted list of ``(start, count)`` runs with no overlaps and
    no adjacent runs (adjacent runs are coalesced on free).
    """

    def __init__(self, total_blocks: int, first_block: int = 0) -> None:
        if total_blocks <= 0:
            raise ValueError("total_blocks must be positive")
        self._starts: List[int] = [first_block]
        self._counts: List[int] = [total_blocks]
        self.free_blocks = total_blocks

    def __len__(self) -> int:
        return len(self._starts)

    def runs(self) -> List[BlockRun]:
        """Snapshot of the free runs (sorted by start block)."""
        return list(zip(self._starts, self._counts))

    def run_length(self, index: int) -> int:
        """Number of blocks in run ``index``."""
        return self._counts[index]

    def replace_runs(self, runs: List[BlockRun]) -> None:
        """Overwrite the free map with an explicit run list (snapshot restore).

        Runs must be sorted by start block, non-overlapping and non-adjacent
        -- exactly what :meth:`runs` produces; an empty list means the map is
        fully allocated.
        """
        for (start, count), (next_start, _) in zip(runs, runs[1:]):
            if start + count >= next_start:
                raise ValueError(f"free runs overlap or touch at block {next_start}")
        if any(count <= 0 for _, count in runs):
            raise ValueError("free run counts must be positive")
        self._starts = [start for start, _ in runs]
        self._counts = [count for _, count in runs]
        self.free_blocks = sum(self._counts)

    def largest_run(self) -> int:
        """Size of the largest free run (0 when empty)."""
        return max(self._counts, default=0)

    # ------------------------------------------------------------- allocate
    def take_from_run(self, index: int, count: int) -> BlockRun:
        """Take ``count`` blocks from the front of run ``index``."""
        start = self._starts[index]
        available = self._counts[index]
        if count > available:
            raise ValueError("cannot take more blocks than the run holds")
        if count == available:
            del self._starts[index]
            del self._counts[index]
        else:
            self._starts[index] = start + count
            self._counts[index] = available - count
        self.free_blocks -= count
        return (start, count)

    def find_first_fit(self, count: int, goal_block: Optional[int] = None) -> Optional[int]:
        """Index of the first run with >= ``count`` blocks at or after ``goal_block``."""
        start_idx = 0
        if goal_block is not None:
            start_idx = bisect.bisect_left(self._starts, goal_block)
            # The run containing goal_block may start before it.
            if start_idx > 0 and self._starts[start_idx - 1] + self._counts[start_idx - 1] > goal_block:
                start_idx -= 1
        for idx in range(start_idx, len(self._starts)):
            if self._counts[idx] >= count:
                return idx
        return None

    def find_best_fit(self, count: int) -> Optional[int]:
        """Index of the largest free run (used for extent-style allocation)."""
        if not self._counts:
            return None
        best = max(range(len(self._counts)), key=lambda i: self._counts[i])
        return best if self._counts[best] > 0 else None

    def find_any_fit(self, count: int) -> Optional[int]:
        """Index of any run that can satisfy ``count`` blocks, else the largest run."""
        idx = self.find_first_fit(count)
        if idx is not None:
            return idx
        return self.find_best_fit(count)

    # ----------------------------------------------------------------- free
    def release(self, start: int, count: int) -> None:
        """Return a run to the free map, coalescing with neighbours."""
        if count <= 0:
            raise ValueError("count must be positive")
        idx = bisect.bisect_left(self._starts, start)

        # Guard against double frees / overlaps with neighbours.
        if idx > 0 and self._starts[idx - 1] + self._counts[idx - 1] > start:
            raise ValueError(f"double free or overlap at block {start}")
        if idx < len(self._starts) and start + count > self._starts[idx]:
            raise ValueError(f"double free or overlap at block {start}")

        merged_with_prev = (
            idx > 0 and self._starts[idx - 1] + self._counts[idx - 1] == start
        )
        merged_with_next = idx < len(self._starts) and start + count == self._starts[idx]

        if merged_with_prev and merged_with_next:
            self._counts[idx - 1] += count + self._counts[idx]
            del self._starts[idx]
            del self._counts[idx]
        elif merged_with_prev:
            self._counts[idx - 1] += count
        elif merged_with_next:
            self._starts[idx] = start
            self._counts[idx] += count
        else:
            self._starts.insert(idx, start)
            self._counts.insert(idx, count)
        self.free_blocks += count


class BlockGroupAllocator(FreeSpaceInspectionMixin):
    """Ext2-style allocator: the device is split into fixed-size block groups.

    Allocation requests carry a *goal* group (typically the group holding the
    file's inode or its last allocated block); the allocator tries the goal
    group first, then scans forward, wrapping around.  Within a group it
    allocates first-fit and will split requests across groups when needed.

    Parameters
    ----------
    total_blocks:
        Number of allocatable data blocks.
    blocks_per_group:
        Group size; ext2 with 4 KiB blocks uses 32768 (128 MiB groups).
    reserved_blocks:
        Blocks at the start of the device reserved for the superblock and
        static metadata.
    group_metadata_blocks:
        Blocks at the start of each group holding the group's bitmaps and
        inode table.  They are never handed out for data, which is why files
        spanning multiple groups are physically discontiguous on ext2.
    """

    def __init__(
        self,
        total_blocks: int,
        blocks_per_group: int = 32768,
        reserved_blocks: int = 256,
        group_metadata_blocks: int = 64,
    ) -> None:
        if total_blocks <= reserved_blocks:
            raise ValueError("total_blocks must exceed reserved_blocks")
        if blocks_per_group <= 0:
            raise ValueError("blocks_per_group must be positive")
        if not (0 <= group_metadata_blocks < blocks_per_group):
            raise ValueError("group_metadata_blocks must be smaller than a group")
        self.total_blocks = total_blocks
        self.blocks_per_group = blocks_per_group
        self.reserved_blocks = reserved_blocks
        self.group_metadata_blocks = group_metadata_blocks
        self.group_count = max(1, (total_blocks - reserved_blocks + blocks_per_group - 1) // blocks_per_group)
        self.stats = AllocatorStats()
        self._groups: List[FreeExtentMap] = []
        block = reserved_blocks
        remaining = total_blocks - reserved_blocks
        for _ in range(self.group_count):
            size = min(blocks_per_group, remaining)
            if size <= group_metadata_blocks:
                break
            self._groups.append(
                FreeExtentMap(size - group_metadata_blocks, first_block=block + group_metadata_blocks)
            )
            block += size
            remaining -= size
        self._free_blocks = sum(group.free_blocks for group in self._groups)

    # ------------------------------------------------------------ inspection
    def group_of_block(self, block: int) -> int:
        """Index of the group containing ``block``."""
        if block < self.reserved_blocks:
            return 0
        return min(
            self.group_count - 1, (block - self.reserved_blocks) // self.blocks_per_group
        )

    def group_free_blocks(self, group_index: int) -> int:
        """Free blocks in one group."""
        return self._groups[group_index].free_blocks

    # -------------------------------------------------------------- allocate
    def allocate(self, count: int, goal_block: Optional[int] = None) -> List[BlockRun]:
        """Allocate ``count`` blocks, preferring the goal block's group.

        Returns a list of runs; a request that does not fit contiguously in
        the goal group is split across groups (this is how large files end up
        fragmented on ext2).  Raises :class:`NoSpaceError` when the device
        cannot satisfy the request.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if count > self.free_blocks:
            raise NoSpaceError(f"requested {count} blocks, {self.free_blocks} free")

        goal_group = self.group_of_block(goal_block) if goal_block is not None else 0
        runs: List[BlockRun] = []
        remaining = count
        for group_index in self._groups_from(goal_group):
            group = self._groups[group_index]
            while remaining > 0 and group.free_blocks > 0:
                idx = group.find_first_fit(remaining, goal_block if group_index == goal_group else None)
                if idx is None:
                    idx = group.find_best_fit(remaining)
                if idx is None:
                    break
                take = min(remaining, group.run_length(idx))
                runs.append(self._take(group, idx, take))
                remaining -= take
            if remaining == 0:
                break

        if remaining > 0:
            # Roll back partial allocation before reporting failure.
            for start, length in runs:
                self.free(start, length)
            raise NoSpaceError(f"could not allocate {count} blocks")

        self.stats.allocations += 1
        self.stats.blocks_allocated += count
        if len(runs) > 1:
            self.stats.split_allocations += 1
        return runs

    def free(self, start: int, count: int) -> None:
        """Return a run of blocks to its group(s)."""
        if count <= 0:
            raise ValueError("count must be positive")
        remaining = count
        block = start
        while remaining > 0:
            group_index = self.group_of_block(block)
            group = self._groups[group_index]
            group_end = (
                self.reserved_blocks + (group_index + 1) * self.blocks_per_group
            )
            in_group = min(remaining, group_end - block)
            self._release(group, block, in_group)
            block += in_group
            remaining -= in_group
        self.stats.frees += 1
        self.stats.blocks_freed += count


class MultiBlockAllocator(BlockGroupAllocator):
    """Ext4-style mballoc over ext2's block-group geometry.

    The group layout (group size, per-group metadata reservations) is exactly
    :class:`BlockGroupAllocator`'s, so aged ext4 and ext2/ext3 states are
    directly comparable group-for-group.  The allocation *strategy* differs:
    a request is first satisfied as a single contiguous run -- in the goal
    group if possible, otherwise in the first group with a large-enough run
    -- and only when no group can hold it contiguously does the request fall
    back to the parent's first-fit splitting.  That is the behaviour ext4's
    multi-block allocator buys over ext2's block-at-a-time bitmap scan:
    files stay in one extent up to roughly a block group's worth of data.
    """

    def allocate(self, count: int, goal_block: Optional[int] = None) -> List[BlockRun]:
        """Allocate ``count`` blocks, preferring one contiguous run."""
        if count <= 0:
            raise ValueError("count must be positive")
        if count > self.free_blocks:
            raise NoSpaceError(f"requested {count} blocks, {self.free_blocks} free")

        goal_group = self.group_of_block(goal_block) if goal_block is not None else 0
        for group_index in self._groups_from(goal_group):
            group = self._groups[group_index]
            if group.largest_run() < count:
                continue
            idx = group.find_first_fit(
                count, goal_block if group_index == goal_group else None
            )
            if idx is None and group_index == goal_group:
                # Only the goal constraint can make the first attempt miss
                # despite a large-enough run existing: retry without it.
                idx = group.find_first_fit(count)
            if idx is None:
                continue
            run = self._take(group, idx, count)
            self.stats.allocations += 1
            self.stats.blocks_allocated += count
            return [run]

        # No group can hold the request contiguously (it exceeds the largest
        # free run, typically because it spans group boundaries): split like
        # the block-group allocator, which accounts its own stats.
        return super().allocate(count, goal_block=goal_block)


class ExtentAllocator(FreeSpaceInspectionMixin):
    """XFS-style allocator over a handful of large allocation groups.

    Allocations prefer a single contiguous extent (best fit by size); only
    when no single run is large enough does the allocation split.  This keeps
    large files contiguous far longer than the block-group allocator.
    """

    def __init__(
        self,
        total_blocks: int,
        allocation_groups: int = 4,
        reserved_blocks: int = 256,
        max_extent_blocks: int = 2 ** 21,
    ) -> None:
        if total_blocks <= reserved_blocks:
            raise ValueError("total_blocks must exceed reserved_blocks")
        if allocation_groups <= 0:
            raise ValueError("allocation_groups must be positive")
        self.total_blocks = total_blocks
        self.reserved_blocks = reserved_blocks
        self.max_extent_blocks = max_extent_blocks
        self.stats = AllocatorStats()
        usable = total_blocks - reserved_blocks
        per_group = usable // allocation_groups
        self._groups: List[FreeExtentMap] = []
        block = reserved_blocks
        for index in range(allocation_groups):
            size = per_group if index < allocation_groups - 1 else usable - per_group * (allocation_groups - 1)
            if size <= 0:
                continue
            self._groups.append(FreeExtentMap(size, first_block=block))
            block += size
        self.group_count = len(self._groups)
        self._free_blocks = sum(group.free_blocks for group in self._groups)

    def group_of_block(self, block: int) -> int:
        """Index of the allocation group containing ``block``."""
        usable = self.total_blocks - self.reserved_blocks
        per_group = max(1, usable // self.group_count)
        return min(self.group_count - 1, max(0, (block - self.reserved_blocks) // per_group))

    def allocate(self, count: int, goal_block: Optional[int] = None) -> List[BlockRun]:
        """Allocate ``count`` blocks, preferring one contiguous extent."""
        if count <= 0:
            raise ValueError("count must be positive")
        if count > self.free_blocks:
            raise NoSpaceError(f"requested {count} blocks, {self.free_blocks} free")

        goal_group = self.group_of_block(goal_block) if goal_block is not None else 0

        capped = min(count, self.max_extent_blocks)
        # First pass: look for a group that can satisfy the request contiguously.
        for group_index in self._groups_from(goal_group):
            group = self._groups[group_index]
            idx = group.find_first_fit(capped)
            if idx is not None:
                run = self._take(group, idx, capped)
                runs = [run]
                remaining = count - capped
                if remaining:
                    runs.extend(self.allocate(remaining, goal_block=run[0] + run[1]))
                    self.stats.allocations -= 1  # the recursive call counted once already
                self.stats.allocations += 1
                self.stats.blocks_allocated += capped
                return runs

        # Second pass: take the largest runs available until satisfied.
        runs = []
        remaining = count
        for group_index in self._groups_from(goal_group):
            group = self._groups[group_index]
            while remaining > 0:
                idx = group.find_best_fit(remaining)
                if idx is None or group.free_blocks == 0:
                    break
                available = group.run_length(idx)
                if available == 0:
                    break
                take = min(remaining, available, self.max_extent_blocks)
                runs.append(self._take(group, idx, take))
                remaining -= take
            if remaining == 0:
                break
        if remaining > 0:
            for start, length in runs:
                self.free(start, length)
            raise NoSpaceError(f"could not allocate {count} blocks")
        self.stats.allocations += 1
        self.stats.blocks_allocated += count
        if len(runs) > 1:
            self.stats.split_allocations += 1
        return runs

    def free(self, start: int, count: int) -> None:
        """Return a run to the appropriate allocation group."""
        if count <= 0:
            raise ValueError("count must be positive")
        self._release(self._groups[self.group_of_block(start)], start, count)
        self.stats.frees += 1
        self.stats.blocks_freed += count
