"""Tests for the VFS layer: the read/write paths, metadata ops, writeback."""

import pytest

import repro.fs.common
import repro.fs.vfs
from repro.fs.common import INODE_TABLE_PSEUDO_INO
from repro.fs.stack import build_stack
from repro.storage.config import scaled_testbed
from repro.storage.readahead import NO_READAHEAD

MiB = 1024 * 1024
KiB = 1024


@pytest.fixture
def stack():
    return build_stack("ext2", testbed=scaled_testbed(1.0 / 16.0), seed=3)


@pytest.fixture
def vfs(stack):
    return stack.vfs


def make_file(vfs, path="/data", size=4 * MiB):
    vfs.create(path)
    fd = vfs.open(path)
    vfs.fallocate(fd, size, charge_time=False)
    return fd


def make_deep_file(vfs):
    """Create ``/d1/d2/f``; returns the inodes from the root down to the file.

    Padding files between the levels put each of the four inodes in its own
    inode-table block.
    """
    fs = vfs.fs
    paths = ("/d1", "/d1/d2", "/d1/d2/f")
    for depth, path in enumerate(paths):
        for pad in range(fs._inodes_per_block):
            fs.create(f"/pad{depth}-{pad}", 0.0)
        if path == paths[-1]:
            vfs.create(path)
        else:
            vfs.mkdir(path)
    chain = [fs.resolve(path) for path in ("/",) + paths]
    assert len({fs._inode_table_block(inode.number) for inode in chain}) == len(chain)
    return chain


def record_submits(vfs, monkeypatch):
    """Record every batch the device receives as ``(offset, nbytes, is_write)`` triples."""
    batches = []
    submit = vfs.device.submit

    def recording_submit(requests, rng):
        batches.append([(r.offset_bytes, r.nbytes, r.is_write) for r in requests])
        return submit(requests, rng)

    monkeypatch.setattr(vfs.device, "submit", recording_submit)
    return batches


class TestOpenClose:
    def test_open_missing_file_fails(self, vfs):
        with pytest.raises(Exception):
            vfs.open("/missing")

    def test_open_create_and_read_back(self, vfs):
        fd = vfs.open("/new", create=True)
        assert vfs.open_file(fd).inode.is_regular

    def test_open_directory_fails(self, vfs):
        vfs.mkdir("/d")
        from repro.fs.base import IsADirectoryError_

        with pytest.raises(IsADirectoryError_):
            vfs.open("/d")

    def test_close_releases_descriptor(self, vfs):
        fd = make_file(vfs)
        vfs.close(fd)
        with pytest.raises(KeyError):
            vfs.open_file(fd)

    def test_every_operation_advances_the_clock(self, stack):
        vfs = stack.vfs
        before = stack.clock.now_ns
        fd = make_file(vfs)
        vfs.read(fd, 8 * KiB, offset=0)
        assert stack.clock.now_ns > before


class TestReadPath:
    def test_cold_read_hits_device(self, stack):
        vfs = stack.vfs
        fd = make_file(vfs)
        latency = vfs.read(fd, 8 * KiB, offset=0)
        assert latency > 1_000_000  # a disk read costs milliseconds
        assert stack.device.stats.read_requests >= 1

    def test_warm_read_is_memory_speed(self, stack):
        vfs = stack.vfs
        fd = make_file(vfs)
        vfs.read(fd, 8 * KiB, offset=0)
        warm = vfs.read(fd, 8 * KiB, offset=0)
        assert warm < 100_000  # microseconds, not milliseconds

    def test_cluster_read_populates_neighbouring_pages(self, stack):
        vfs = stack.vfs
        fd = make_file(vfs)
        vfs.read(fd, 4 * KiB, offset=0)
        # ext2 brings in an 8 KiB cluster: page 1 should now be resident too.
        ino = vfs.open_file(fd).inode.number
        assert stack.cache.peek((ino, 1))

    def test_read_at_eof_returns_quickly(self, vfs):
        fd = make_file(vfs, size=64 * KiB)
        latency = vfs.read(fd, 8 * KiB, offset=10 * MiB)
        assert latency < 100_000
        assert vfs.stats.reads >= 1

    def test_read_clamped_at_eof(self, vfs):
        fd = make_file(vfs, size=10 * KiB)
        vfs.read(fd, 100 * KiB, offset=8 * KiB)
        assert vfs.stats.bytes_read <= 10 * KiB

    def test_sequential_reads_use_position(self, vfs):
        fd = make_file(vfs, size=64 * KiB)
        vfs.read(fd, 8 * KiB)
        vfs.read(fd, 8 * KiB)
        assert vfs.open_file(fd).position == 16 * KiB

    def test_invalid_read_arguments(self, vfs):
        fd = make_file(vfs)
        with pytest.raises(ValueError):
            vfs.read(fd, 0)
        with pytest.raises(ValueError):
            vfs.read(fd, 4096, offset=-1)

    def test_sequential_scan_triggers_readahead(self, stack):
        vfs = stack.vfs
        fd = make_file(vfs, size=8 * MiB)
        for offset in range(0, 2 * MiB, 128 * KiB):
            vfs.read(fd, 128 * KiB, offset=offset)
        assert vfs.stats.readahead_pages > 0

    def test_prefetch_inserts_only_missing_pages_and_promotes_none(self, stack, monkeypatch):
        vfs = stack.vfs
        make_file(vfs, "/ra", size=1 * MiB)
        stack.drop_caches()
        inode = vfs.fs.resolve("/ra")
        ino = inode.number
        stack.cache.insert((ino, 3))
        stack.cache.insert((ino, 7))
        insertions = stack.cache.stats.insertions
        batches = record_submits(vfs, monkeypatch)
        vfs._prefetch(inode, 0, 12)
        order = [page for key_ino, page in stack.cache._policy.resident_order() if key_ino == ino]
        # The resident pages keep their place at the cold end of the LRU list.
        assert order == [3, 7, 0, 1, 2, 4, 5, 6, 8, 9, 10, 11]
        assert vfs.stats.readahead_pages == 10
        assert stack.cache.stats.insertions - insertions == 10
        # One read covers the window, resident pages included.
        extent = inode.lookup_extent(0)
        assert batches == [[(extent.device_block_for(0) * 4096, 12 * 4096, False)]]

    def test_no_readahead_policy_disables_prefetch(self):
        stack = build_stack(
            "ext2", testbed=scaled_testbed(1.0 / 16.0), seed=3, readahead_policy=NO_READAHEAD
        )
        vfs = stack.vfs
        fd = make_file(vfs, size=8 * MiB)
        for offset in range(0, 2 * MiB, 128 * KiB):
            vfs.read(fd, 128 * KiB, offset=offset)
        assert vfs.stats.readahead_pages == 0

    def test_readahead_makes_sequential_scan_faster(self):
        def scan_time(policy):
            stack = build_stack(
                "ext2", testbed=scaled_testbed(1.0 / 16.0), seed=3, readahead_policy=policy
            )
            vfs = stack.vfs
            fd = make_file(vfs, size=16 * MiB)
            total = 0.0
            for offset in range(0, 16 * MiB, 128 * KiB):
                total += vfs.read(fd, 128 * KiB, offset=offset)
            return total

        from repro.storage.readahead import DEFAULT_READAHEAD

        assert scan_time(DEFAULT_READAHEAD) < scan_time(NO_READAHEAD)


class TestWritePath:
    def test_write_lands_dirty_in_cache(self, stack):
        vfs = stack.vfs
        fd = make_file(vfs)
        vfs.write(fd, 8 * KiB, offset=0)
        assert stack.cache.dirty_pages >= 2

    def test_write_extends_file(self, vfs):
        vfs.create("/log")
        fd = vfs.open("/log")
        vfs.write(fd, 8 * KiB, offset=0)
        assert vfs.open_file(fd).inode.size_bytes == 8 * KiB

    def test_overwrite_does_not_grow_file(self, vfs):
        fd = make_file(vfs, size=64 * KiB)
        vfs.write(fd, 8 * KiB, offset=0)
        assert vfs.open_file(fd).inode.size_bytes == 64 * KiB

    def test_fsync_cleans_file_pages(self, stack):
        vfs = stack.vfs
        fd = make_file(vfs)
        vfs.write(fd, 64 * KiB, offset=0)
        latency = vfs.fsync(fd)
        assert latency > 0
        ino = vfs.open_file(fd).inode.number
        assert all(key[0] != ino for key in stack.cache.dirty_keys())
        assert stack.device.stats.write_requests >= 1

    def test_dirty_throttling_kicks_in_for_heavy_writers(self, stack):
        vfs = stack.vfs
        vfs.create("/big")
        fd = vfs.open("/big")
        # Write more than the dirty limit of the (tiny) cache.
        for offset in range(0, 16 * MiB, 64 * KiB):
            vfs.write(fd, 64 * KiB, offset=offset)
        assert vfs.stats.writeback_pages > 0

    def test_sync_writes_everything_back(self, stack):
        vfs = stack.vfs
        fd = make_file(vfs)
        vfs.write(fd, 256 * KiB, offset=0)
        vfs.sync()
        assert stack.cache.dirty_pages == 0

    def test_invalid_write_arguments(self, vfs):
        fd = make_file(vfs)
        with pytest.raises(ValueError):
            vfs.write(fd, 0)


class TestMetadataOps:
    def test_create_stat_unlink_cycle(self, vfs):
        vfs.create("/x")
        assert vfs.stat("/x") > 0
        vfs.unlink("/x")
        assert not vfs.fs.exists("/x")

    def test_unlink_invalidates_cache(self, stack):
        vfs = stack.vfs
        fd = make_file(vfs, path="/gone")
        vfs.read(fd, 8 * KiB, offset=0)
        ino = vfs.open_file(fd).inode.number
        assert stack.cache.resident_pages_of(ino) > 0
        vfs.close(fd)
        vfs.unlink("/gone")
        assert stack.cache.resident_pages_of(ino) == 0

    def test_rename(self, vfs):
        vfs.create("/a")
        vfs.rename("/a", "/b")
        assert vfs.fs.exists("/b") and not vfs.fs.exists("/a")

    def test_mkdir_rmdir(self, vfs):
        vfs.mkdir("/d")
        vfs.rmdir("/d")
        assert not vfs.fs.exists("/d")

    def test_cold_metadata_ops_cost_more_than_warm(self, stack):
        vfs = stack.vfs
        vfs.create("/probe")
        cold = vfs.stat("/probe")
        warm = vfs.stat("/probe")
        assert warm <= cold

    def test_metadata_ops_counted(self, vfs):
        vfs.create("/counted")
        vfs.stat("/counted")
        vfs.unlink("/counted")
        assert vfs.stats.creates >= 1
        assert vfs.stats.stats_calls == 1
        assert vfs.stats.unlinks == 1

    def test_warm_stat_builds_no_device_request(self, vfs, monkeypatch):
        make_deep_file(vfs)
        vfs.stat("/d1/d2/f")
        built = []

        def counting(request_type):
            def build(*args, **kwargs):
                built.append(request_type)
                return request_type(*args, **kwargs)

            return build

        for module in (repro.fs.common, repro.fs.vfs):
            monkeypatch.setattr(module, "IORequest", counting(module.IORequest))
        batches = record_submits(vfs, monkeypatch)
        vfs.stat("/d1/d2/f")
        assert built == []
        assert batches == []

    def test_cold_stat_reads_each_missing_metadata_block_once(self, stack, monkeypatch):
        vfs = stack.vfs
        fs = vfs.fs
        block_size = fs.block_size
        chain = make_deep_file(vfs)
        stack.drop_caches()

        def inode_table_read(inode):
            block = fs._inode_table_block(inode.number)
            return (INODE_TABLE_PSEUDO_INO, block), block * block_size

        # Each directory on the walk: its inode, its block 0, then the child's inode.
        expected = {}
        for directory, child in zip(chain, chain[1:]):
            dir_offset = directory.lookup_extent(0).device_block_for(0) * block_size
            for key, offset in (
                inode_table_read(directory),
                ((directory.number, 0), dir_offset),
                inode_table_read(child),
            ):
                expected.setdefault(key, offset)
        read_keys = [key for key, _ in fs.lookup_cost("/d1/d2/f").metadata_reads]
        assert list(dict.fromkeys(read_keys)) == list(expected)

        batches = record_submits(vfs, monkeypatch)
        vfs.stat("/d1/d2/f")
        assert batches == [[(offset, block_size, False)] for offset in expected.values()]


class TestDeviceContention:
    def test_async_readahead_delays_subsequent_miss(self, stack):
        """Asynchronous prefetch occupies the device; a following miss must wait."""
        vfs = stack.vfs
        fd = make_file(vfs, size=32 * MiB)
        # Build up a sequential stream so a large readahead is in flight.
        for offset in range(0, 4 * MiB, 128 * KiB):
            vfs.read(fd, 128 * KiB, offset=offset)
        busy_before = vfs._device_busy_until_ns
        assert busy_before >= stack.clock.now_ns
        # A random miss far away must now include queueing delay.
        latency = vfs.read(fd, 8 * KiB, offset=30 * MiB)
        assert latency > 1_000_000
