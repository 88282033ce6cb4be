"""Tests for the block layer: requests, schedulers, merging, accounting."""

import random

import pytest

from repro.storage.device import (
    SCHEDULER_REGISTRY,
    BlockDevice,
    DeadlineScheduler,
    ElevatorScheduler,
    IORequest,
    IOScheduler,
    NoopScheduler,
    make_scheduler,
)
from repro.storage.disk import MechanicalDisk, RamDisk
from repro.storage.flash import FlashTranslationLayer, default_flash_geometry


@pytest.fixture
def rng():
    return random.Random(17)


class TestIORequest:
    def test_end_bytes(self):
        assert IORequest(4096, 8192).end_bytes == 12288

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            IORequest(-1, 10)
        with pytest.raises(ValueError):
            IORequest(0, 0)


class TestMerging:
    def test_adjacent_same_direction_merged(self):
        requests = [IORequest(0, 4096), IORequest(4096, 4096), IORequest(8192, 4096)]
        merged = IOScheduler.merge_adjacent(requests)
        assert len(merged) == 1
        assert merged[0].nbytes == 3 * 4096

    def test_non_adjacent_not_merged(self):
        requests = [IORequest(0, 4096), IORequest(16384, 4096)]
        assert len(IOScheduler.merge_adjacent(requests)) == 2

    def test_reads_and_writes_not_merged_together(self):
        requests = [IORequest(0, 4096, is_write=False), IORequest(4096, 4096, is_write=True)]
        assert len(IOScheduler.merge_adjacent(requests)) == 2

    def test_empty_batch(self):
        assert IOScheduler.merge_adjacent([]) == []

    def test_merging_preserves_arrival_order(self):
        """Coalescing must not sort the batch: ordering is the scheduler's job."""
        requests = [IORequest(0, 4096), IORequest(16384, 4096), IORequest(4096, 4096)]
        merged = IOScheduler.merge_adjacent(requests)
        # The third request is adjacent to the first but not *consecutive*
        # with it, so nothing merges and arrival order is untouched.
        assert [r.offset_bytes for r in merged] == [0, 16384, 4096]

    def test_only_consecutive_runs_merge(self):
        requests = [
            IORequest(8192, 4096),
            IORequest(12288, 4096),  # consecutive + adjacent: merges
            IORequest(0, 4096),  # out of order: breaks the run
            IORequest(4096, 4096),  # consecutive + adjacent: merges
        ]
        merged = IOScheduler.merge_adjacent(requests)
        assert [(r.offset_bytes, r.nbytes) for r in merged] == [
            (8192, 8192),
            (0, 8192),
        ]


class TestSchedulers:
    def test_noop_preserves_order(self):
        requests = [IORequest(8192, 4096), IORequest(0, 4096)]
        assert NoopScheduler().order(requests, head_offset=0) == requests

    def test_elevator_sweeps_upward_from_head(self):
        requests = [IORequest(100 * 4096, 4096), IORequest(10 * 4096, 4096), IORequest(50 * 4096, 4096)]
        ordered = ElevatorScheduler().order(requests, head_offset=40 * 4096)
        offsets = [r.offset_bytes for r in ordered]
        assert offsets == [50 * 4096, 100 * 4096, 10 * 4096]

    def test_deadline_prioritises_urgent_requests(self):
        requests = [
            IORequest(100 * 4096, 4096, priority=1),
            IORequest(0, 4096, priority=0),
        ]
        ordered = DeadlineScheduler().order(requests, head_offset=0)
        assert ordered[0].priority == 0

    def test_make_scheduler_by_name(self):
        assert make_scheduler("noop").name == "noop"
        assert make_scheduler("elevator").name == "elevator"
        assert make_scheduler("deadline").name == "deadline"
        with pytest.raises(ValueError):
            make_scheduler("bfq")


class TestBlockDevice:
    def test_single_read_accounts_stats(self, rng):
        device = BlockDevice(RamDisk())
        latency = device.read(0, 4096, rng)
        assert latency > 0
        assert device.stats.read_requests == 1
        assert device.stats.total_service_ns == pytest.approx(latency)

    def test_single_write_accounts_stats(self, rng):
        device = BlockDevice(RamDisk())
        device.write(0, 4096, rng)
        assert device.stats.write_requests == 1

    def test_submit_empty_batch_is_free(self, rng):
        device = BlockDevice(RamDisk())
        assert device.submit([], rng) == 0.0

    def test_submit_batch_merges_adjacent(self, rng):
        device = BlockDevice(RamDisk(), merge=True)
        batch = [IORequest(i * 4096, 4096) for i in range(8)]
        device.submit(batch, rng)
        assert device.stats.requests == 1
        assert device.stats.merged_requests == 7

    def test_submit_batch_without_merging(self, rng):
        device = BlockDevice(RamDisk(), merge=False)
        batch = [IORequest(i * 4096, 4096) for i in range(8)]
        device.submit(batch, rng)
        assert device.stats.requests == 8

    def test_noop_dispatches_in_arrival_order_even_with_merging(self, rng):
        """The NOOP contract: merge=True must not reorder the dispatch."""

        class SpyModel(RamDisk):
            def __init__(self):
                super().__init__()
                self.offsets = []

            def read_latency_ns(self, offset_bytes, nbytes, rng):
                self.offsets.append(offset_bytes)
                return super().read_latency_ns(offset_bytes, nbytes, rng)

        model = SpyModel()
        device = BlockDevice(model, scheduler=NoopScheduler(), merge=True)
        # Descending, non-adjacent offsets: the old sort-based merge would
        # dispatch these ascending.
        batch = [IORequest(32 * 4096, 4096), IORequest(16 * 4096, 4096), IORequest(0, 4096)]
        device.submit(batch, rng)
        assert model.offsets == [32 * 4096, 16 * 4096, 0]

    def test_elevator_scheduling_reduces_seek_time(self, rng):
        offsets = [rng.randrange(0, 200 * 10**9, 4096) for _ in range(64)]

        def total_time(scheduler):
            device = BlockDevice(MechanicalDisk(), scheduler=scheduler, merge=False)
            batch = [IORequest(offset, 4096) for offset in offsets]
            return device.submit(batch, random.Random(5))

        assert total_time(ElevatorScheduler()) < total_time(NoopScheduler())

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULER_REGISTRY))
    @pytest.mark.parametrize("kind", ["read", "write", "discard"])
    def test_one_request_batch_is_dispatched_as_ordering_and_merging_would(self, scheduler, kind):
        """A batch of one skips the scheduler and the merge, which would return it unchanged."""
        request = IORequest(
            12 * 4096, 8192, is_write=kind == "write", is_discard=kind == "discard", priority=1
        )
        assert make_scheduler(scheduler).order([request], head_offset=1 << 20) == [request]
        assert IOScheduler.merge_adjacent([request]) == [request]

        geometry = default_flash_geometry(1 << 30)
        device = BlockDevice(FlashTranslationLayer(geometry), scheduler=make_scheduler(scheduler))
        latency = device.submit([request], random.Random(3))
        twin = FlashTranslationLayer(geometry)
        expected = getattr(twin, kind)(request.offset_bytes, request.nbytes, random.Random(3))
        assert latency == expected
        assert device.model.export_state() == twin.export_state()
        stats = device.stats
        assert (stats.requests, stats.batches, stats.merged_requests) == (1, 1, 0)
        assert getattr(stats, f"{kind}_requests") == 1
        assert stats.total_service_ns == latency

    def test_flush_delegates_to_model(self, rng):
        hdd = BlockDevice(MechanicalDisk())
        ram = BlockDevice(RamDisk())
        assert hdd.flush(rng) > 0
        assert ram.flush(rng) == 0.0  # RamDisk has no flush cost

    def test_capacity_exposed(self):
        device = BlockDevice(RamDisk(capacity_bytes=10**9))
        assert device.capacity_bytes == 10**9

    def test_reset_state(self, rng):
        device = BlockDevice(RamDisk())
        device.read(0, 4096, rng)
        device.reset_state()
        assert device.stats.requests == 0
        assert device.model.stats.reads == 0
