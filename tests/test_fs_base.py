"""Tests for inode/extent machinery and the shared namespace logic."""

import copy

import pytest

from repro.fs.base import (
    ExistsError,
    Extent,
    Inode,
    InodeType,
    IsADirectoryError_,
    NotADirectoryError_,
    NotFoundError,
    OperationCost,
)
from repro.fs.common import NotEmptyError
from repro.fs.ext2 import Ext2FileSystem
from repro.storage.device import IORequest

GiB = 1024 ** 3


@pytest.fixture
def fs():
    return Ext2FileSystem(capacity_bytes=4 * GiB)


class TestExtent:
    def test_basic_mapping(self):
        extent = Extent(file_block=10, device_block=100, count=5)
        assert extent.file_end == 15
        assert extent.device_block_for(12) == 102

    def test_out_of_range_lookup_rejected(self):
        extent = Extent(0, 0, 4)
        with pytest.raises(ValueError):
            extent.device_block_for(4)

    def test_invalid_extent_rejected(self):
        with pytest.raises(ValueError):
            Extent(0, 0, 0)
        with pytest.raises(ValueError):
            Extent(-1, 0, 1)


class TestInodeMapping:
    def test_add_and_lookup_extent(self):
        inode = Inode(number=5, inode_type=InodeType.REGULAR)
        inode.add_extent(Extent(0, 1000, 10))
        inode.add_extent(Extent(10, 2000, 10))
        assert inode.lookup_extent(5).device_block_for(5) == 1005
        assert inode.lookup_extent(15).device_block_for(15) == 2005
        assert inode.lookup_extent(25) is None

    def test_adjacent_extents_are_merged(self):
        inode = Inode(number=5, inode_type=InodeType.REGULAR)
        inode.add_extent(Extent(0, 1000, 10))
        inode.add_extent(Extent(10, 1010, 10))
        assert len(inode.extents) == 1
        assert inode.extents[0].count == 20

    def test_overlapping_extent_rejected(self):
        inode = Inode(number=5, inode_type=InodeType.REGULAR)
        inode.add_extent(Extent(0, 1000, 10))
        with pytest.raises(ValueError):
            inode.add_extent(Extent(5, 5000, 10))

    def test_iter_device_runs_spans_extents(self):
        inode = Inode(number=5, inode_type=InodeType.REGULAR)
        inode.add_extent(Extent(0, 1000, 4))
        inode.add_extent(Extent(4, 9000, 4))
        runs = list(inode.iter_device_runs(2, 4))
        assert runs == [(1002, 2), (9000, 2)]

    def test_iter_device_runs_skips_holes(self):
        inode = Inode(number=5, inode_type=InodeType.REGULAR)
        inode.add_extent(Extent(10, 1000, 5))
        runs = list(inode.iter_device_runs(0, 12))
        assert runs == [(1000, 2)]

    def test_fragmentation_counts_breaks(self):
        inode = Inode(number=5, inode_type=InodeType.REGULAR)
        inode.add_extent(Extent(0, 1000, 4))
        inode.add_extent(Extent(4, 9000, 4))
        inode.add_extent(Extent(8, 9004, 4))  # physically contiguous with previous
        assert inode.fragmentation() == 1

    def test_truncate_extents(self):
        inode = Inode(number=5, inode_type=InodeType.REGULAR)
        inode.add_extent(Extent(0, 1000, 10))
        freed = inode.truncate_extents(4)
        assert freed == [Extent(4, 1004, 6)]
        assert inode.blocks_allocated() == 4

    def test_file_blocks_from_size(self):
        inode = Inode(number=5, inode_type=InodeType.REGULAR, size_bytes=10_000)
        assert inode.file_blocks(4096) == 3


class TestNamespace:
    def test_create_and_resolve(self, fs):
        inode, cost = fs.create("/a.txt", now_ns=0.0)
        assert fs.resolve("/a.txt").number == inode.number
        assert cost.cpu_ns > 0
        assert cost.dirty_page_keys

    def test_create_in_missing_directory_fails(self, fs):
        with pytest.raises(NotFoundError):
            fs.create("/nodir/a.txt", now_ns=0.0)

    def test_create_duplicate_fails(self, fs):
        fs.create("/a", 0.0)
        with pytest.raises(ExistsError):
            fs.create("/a", 0.0)

    def test_mkdir_and_nested_create(self, fs):
        fs.mkdir("/d", 0.0)
        fs.mkdir("/d/e", 0.0)
        fs.create("/d/e/file", 0.0)
        assert fs.resolve("/d/e/file").is_regular
        assert fs.resolve("/d/e").is_directory

    def test_relative_path_rejected(self, fs):
        with pytest.raises(ValueError):
            fs.resolve("not/absolute")

    def test_unlink_removes_file(self, fs):
        fs.create("/a", 0.0)
        fs.unlink("/a", 1.0)
        assert not fs.exists("/a")

    def test_unlink_directory_fails(self, fs):
        fs.mkdir("/d", 0.0)
        with pytest.raises(IsADirectoryError_):
            fs.unlink("/d", 1.0)

    def test_unlink_missing_fails(self, fs):
        with pytest.raises(NotFoundError):
            fs.unlink("/missing", 0.0)

    def test_rmdir_requires_empty(self, fs):
        fs.mkdir("/d", 0.0)
        fs.create("/d/f", 0.0)
        with pytest.raises(NotEmptyError):
            fs.rmdir("/d", 1.0)
        fs.unlink("/d/f", 1.0)
        fs.rmdir("/d", 2.0)
        assert not fs.exists("/d")

    def test_rmdir_on_file_fails(self, fs):
        fs.create("/f", 0.0)
        with pytest.raises(NotADirectoryError_):
            fs.rmdir("/f", 0.0)

    def test_rename_moves_file(self, fs):
        fs.mkdir("/d", 0.0)
        fs.create("/a", 0.0)
        fs.rename("/a", "/d/b", 1.0)
        assert not fs.exists("/a")
        assert fs.exists("/d/b")

    def test_rename_replaces_existing_file(self, fs):
        fs.create("/a", 0.0)
        fs.create("/b", 0.0)
        fs.rename("/a", "/b", 1.0)
        assert not fs.exists("/a")
        assert fs.exists("/b")

    def test_list_directory_sorted(self, fs):
        fs.create("/b", 0.0)
        fs.create("/a", 0.0)
        names = [e.name for e in fs.list_directory("/")]
        assert names == sorted(names)
        assert {"a", "b"} <= set(names)

    def test_path_depth(self, fs):
        assert fs.path_depth("/") == 0
        assert fs.path_depth("/a/b/c") == 3

    def test_file_creation_times_recorded(self, fs):
        inode, _ = fs.create("/a", now_ns=123.0)
        assert inode.ctime_ns == 123.0
        assert inode.mtime_ns == 123.0

    def test_inode_count_tracks_creates_and_unlinks(self, fs):
        before = fs.inode_count()
        fs.create("/x", 0.0)
        assert fs.inode_count() == before + 1
        fs.unlink("/x", 0.0)
        assert fs.inode_count() == before

    def test_lookup_cost_scales_with_depth(self, fs):
        fs.mkdir("/d1", 0.0)
        fs.mkdir("/d1/d2", 0.0)
        fs.create("/d1/d2/file", 0.0)
        fs.create("/file", 0.0)
        shallow = fs.lookup_cost("/file")
        deep = fs.lookup_cost("/d1/d2/file")
        assert deep.cpu_ns > shallow.cpu_ns
        assert len(deep.metadata_reads) > len(shallow.metadata_reads)


class TestOperationCost:
    def test_merge_extends_the_receiver_in_place(self):
        a = OperationCost(
            cpu_ns=1.5,
            device_requests=[IORequest(0, 4096)],
            dirty_page_keys=[(7, 0)],
            metadata_reads=[((-2, 64), 64)],
            discard_requests=[IORequest(8192, 4096, is_discard=True)],
            flushes=1,
        )
        b = OperationCost(
            cpu_ns=2.0,
            device_requests=[IORequest(4096, 8192, is_write=True)],
            dirty_page_keys=[(9, 3), (9, 4)],
            metadata_reads=[((9, 0), 900)],
            discard_requests=[IORequest(65536, 4096, is_discard=True)],
            flushes=2,
        )
        lists = ("device_requests", "dirty_page_keys", "metadata_reads", "discard_requests")
        a_items = {name: list(getattr(a, name)) for name in lists}
        b_before = copy.deepcopy(b)
        assert a.merge(b) is a
        for name in lists:
            assert getattr(a, name) == a_items[name] + getattr(b, name)
        assert b == b_before
        assert a.cpu_ns == 3.5
        assert a.flushes == 3
