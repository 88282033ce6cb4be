"""Tests for the flash subsystem: FTL mechanics, discard plumbing, device registry.

Unit tests use a deliberately tiny :class:`FlashGeometry` (a few MiB) so GC
pressure is reached in milliseconds; the integration tests drive the FTL
through full stacks on shrunken testbeds.
"""

import random
from dataclasses import replace

import pytest

from repro.core.runner import BenchmarkConfig, WarmupMode, run_single_repetition
from repro.fs.stack import build_stack
from repro.storage import config as storage_config
from repro.storage.config import DEVICE_REGISTRY, paper_testbed, scaled_testbed
from repro.storage.device import BlockDevice, IORequest, IOScheduler
from repro.storage.disk import RamDisk, SolidStateDisk
from repro.storage.flash import (
    FlashGeometry,
    FlashTranslationLayer,
    default_flash_geometry,
    precondition_ssd,
)

KiB = 1024
MiB = 1024 * KiB


def tiny_geometry(**overrides) -> FlashGeometry:
    """A 16 MiB device with 128 KiB blocks: GC pressure within ~100 writes."""
    parameters = dict(
        capacity_bytes=16 * MiB,
        page_bytes=16 * KiB,
        pages_per_block=8,
        over_provisioning=0.25,
        gc_low_watermark_blocks=3,
        gc_high_watermark_blocks=6,
    )
    parameters.update(overrides)
    return FlashGeometry(**parameters)


@pytest.fixture
def rng():
    return random.Random(7)


class TestFlashGeometry:
    def test_derived_quantities(self):
        geometry = tiny_geometry()
        assert geometry.logical_pages == 16 * MiB // (16 * KiB)
        assert geometry.block_bytes == 128 * KiB
        assert geometry.physical_pages == geometry.physical_blocks * 8
        assert geometry.spare_blocks > geometry.gc_high_watermark_blocks

    def test_rejects_zero_over_provisioning(self):
        with pytest.raises(ValueError):
            tiny_geometry(over_provisioning=0.0).validate()

    def test_rejects_inverted_watermarks(self):
        with pytest.raises(ValueError):
            tiny_geometry(gc_low_watermark_blocks=6, gc_high_watermark_blocks=3).validate()

    def test_rejects_op_smaller_than_watermarks(self):
        with pytest.raises(ValueError):
            tiny_geometry(over_provisioning=0.01).validate()

    def test_default_geometry_scales_watermarks(self):
        small = default_flash_geometry(1024 ** 3)
        small.validate()
        assert small.gc_low_watermark_blocks < small.gc_high_watermark_blocks


class TestFtlMechanics:
    def test_fresh_writes_have_unit_write_amplification(self, rng):
        ftl = FlashTranslationLayer(tiny_geometry())
        for index in range(64):
            ftl.write(index * 16 * KiB, 16 * KiB, rng)
        assert ftl.stats.write_amplification == 1.0
        assert ftl.stats.gc_runs == 0
        assert ftl.stats.pages_programmed == 64

    def test_overwrite_invalidates_not_grows(self, rng):
        ftl = FlashTranslationLayer(tiny_geometry())
        for _ in range(10):
            ftl.write(0, 16 * KiB, rng)
        assert ftl.utilization() == pytest.approx(1 / ftl.geometry.logical_pages)
        assert ftl.stats.pages_programmed == 10

    def test_sub_page_write_programs_whole_page(self, rng):
        ftl = FlashTranslationLayer(tiny_geometry())
        ftl.write(0, 4 * KiB, rng)
        assert ftl.stats.pages_programmed == 1

    @pytest.mark.parametrize("policy", ["greedy", "cost-benefit"])
    def test_gc_reclaims_under_pressure(self, policy, rng):
        ftl = FlashTranslationLayer(tiny_geometry(), gc_policy=policy)
        geometry = ftl.geometry
        # Fill the logical space, then keep overwriting: the fresh pool
        # drains and GC must kick in.
        for index in range(geometry.logical_pages):
            ftl.write(index * geometry.page_bytes, geometry.page_bytes, rng)
        for _ in range(4 * geometry.physical_pages):
            ftl.write(rng.randrange(geometry.logical_pages) * geometry.page_bytes,
                      geometry.page_bytes, rng)
        assert ftl.stats.gc_runs > 0
        assert ftl.stats.erases > 0
        assert ftl.stats.gc_time_ns > 0
        assert ftl.stats.write_amplification > 1.0
        assert ftl.free_physical_blocks() > 0
        wear = ftl.wear_summary()
        assert wear["total_erases"] == ftl.stats.erases
        assert wear["max_erases"] >= wear["mean_erases"]

    def test_gc_pause_lands_on_triggering_write(self, rng):
        ftl = FlashTranslationLayer(tiny_geometry())
        geometry = ftl.geometry
        latencies = []
        for _ in range(5 * geometry.physical_pages):
            offset = rng.randrange(geometry.logical_pages) * geometry.page_bytes
            latencies.append(ftl.write(offset, geometry.page_bytes, rng))
        # Writes that triggered GC carry the erase latency on top of the
        # program: the spread must exceed one erase.
        assert max(latencies) - min(latencies) >= geometry.erase_latency_ms * 1e6

    def test_unknown_gc_policy_rejected(self):
        with pytest.raises(ValueError):
            FlashTranslationLayer(tiny_geometry(), gc_policy="random")

    def test_deterministic_without_shared_rng(self):
        """FTL service times depend only on the device's own call sequence."""

        def drive(extra_rng_draws: int):
            ftl = FlashTranslationLayer(tiny_geometry())
            shared = random.Random(1)
            out = []
            for index in range(3 * ftl.geometry.physical_pages):
                for _ in range(extra_rng_draws):
                    shared.random()  # other stack components consuming rng
                offset = (index * 7) % ftl.geometry.logical_pages * ftl.geometry.page_bytes
                out.append(ftl.write(offset, ftl.geometry.page_bytes, shared))
            return out

        assert drive(0) == drive(3)

    def test_reset_state_restores_fresh_device(self, rng):
        ftl = FlashTranslationLayer(tiny_geometry())
        for index in range(ftl.geometry.logical_pages):
            ftl.write(index * ftl.geometry.page_bytes, ftl.geometry.page_bytes, rng)
        ftl.reset_state()
        assert ftl.utilization() == 0.0
        assert ftl.stats.pages_programmed == 0
        assert ftl.free_physical_blocks() == ftl.geometry.physical_blocks - 1


class TestFtlDiscard:
    def test_discard_unmaps_whole_pages(self, rng):
        ftl = FlashTranslationLayer(tiny_geometry())
        page = ftl.geometry.page_bytes
        for index in range(8):
            ftl.write(index * page, page, rng)
        ftl.discard(0, 4 * page, rng)
        assert ftl.utilization() == pytest.approx(4 / ftl.geometry.logical_pages)
        assert ftl.stats.discards == 1
        assert ftl.stats.bytes_discarded == 4 * page

    def test_partial_page_discard_keeps_mapping(self, rng):
        ftl = FlashTranslationLayer(tiny_geometry())
        page = ftl.geometry.page_bytes
        ftl.write(0, page, rng)
        ftl.discard(0, page // 2, rng)
        assert ftl.utilization() == pytest.approx(1 / ftl.geometry.logical_pages)

    def test_discard_lowers_gc_cost(self, rng):
        """TRIMmed space is space GC does not have to relocate."""

        def churn(issue_discards: bool) -> float:
            ftl = FlashTranslationLayer(tiny_geometry())
            geometry = ftl.geometry
            local = random.Random(3)
            for index in range(geometry.logical_pages):
                ftl.write(index * geometry.page_bytes, geometry.page_bytes, local)
            for round_ in range(3 * geometry.physical_pages):
                page = local.randrange(geometry.logical_pages)
                if issue_discards and round_ % 2 == 0:
                    ftl.discard(page * geometry.page_bytes, geometry.page_bytes, local)
                else:
                    ftl.write(page * geometry.page_bytes, geometry.page_bytes, local)
            return ftl.stats.pages_moved

        assert churn(issue_discards=True) < churn(issue_discards=False)


class TestFtlSnapshot:
    def test_export_restore_round_trip_is_bit_identical(self, rng):
        ftl = FlashTranslationLayer(tiny_geometry())
        geometry = ftl.geometry
        for _ in range(4 * geometry.physical_pages):
            ftl.write(rng.randrange(geometry.logical_pages) * geometry.page_bytes,
                      geometry.page_bytes, rng)
        state = ftl.export_state()
        other = FlashTranslationLayer(tiny_geometry())
        other.restore_state(state)
        assert other.export_state() == state

    def test_restored_device_behaves_identically(self, rng):
        ftl = FlashTranslationLayer(tiny_geometry())
        geometry = ftl.geometry
        for _ in range(4 * geometry.physical_pages):
            ftl.write(rng.randrange(geometry.logical_pages) * geometry.page_bytes,
                      geometry.page_bytes, rng)
        state = ftl.export_state()

        def drive(model):
            return [
                model.write((index * 11) % geometry.logical_pages * geometry.page_bytes,
                            geometry.page_bytes, random.Random(0))
                for index in range(200)
            ]

        first = FlashTranslationLayer(tiny_geometry())
        first.restore_state(state)
        second = FlashTranslationLayer(tiny_geometry())
        second.restore_state(state)
        assert drive(first) == drive(second)

    def test_geometry_mismatch_rejected(self, rng):
        ftl = FlashTranslationLayer(tiny_geometry())
        state = ftl.export_state()
        other = FlashTranslationLayer(tiny_geometry(capacity_bytes=8 * MiB))
        with pytest.raises(ValueError):
            other.restore_state(state)

    def test_restore_adopts_recorded_gc_policy(self, rng):
        source = FlashTranslationLayer(tiny_geometry(), gc_policy="cost-benefit")
        source.write(0, 16 * KiB, rng)
        state = source.export_state()
        target = FlashTranslationLayer(tiny_geometry())  # greedy by default
        target.restore_state(state)
        assert target.gc_policy == "cost-benefit"
        assert target.export_state() == state

    def test_restore_rejects_unknown_gc_policy(self, rng):
        ftl = FlashTranslationLayer(tiny_geometry())
        state = ftl.export_state()
        state["gc_policy"] = "lifo"
        with pytest.raises(ValueError):
            ftl.restore_state(state)


class TestPreconditioning:
    def test_reaches_steady_state_with_wa_above_one(self):
        ftl = FlashTranslationLayer(tiny_geometry(capacity_bytes=64 * MiB))
        report = precondition_ssd(ftl, churn_pages_per_round=512)
        assert report.reached_steady
        assert report.final_write_amplification > 1.0
        assert report.utilization == pytest.approx(0.85, abs=0.02)
        # Telemetry is reset, state is not.
        assert ftl.stats.pages_programmed == 0
        assert ftl.utilization() > 0.8

    def test_preconditioning_is_deterministic(self):
        def build():
            ftl = FlashTranslationLayer(tiny_geometry(capacity_bytes=32 * MiB))
            precondition_ssd(ftl, churn_pages_per_round=256)
            return ftl.export_state()

        assert build() == build()

    def test_rejects_non_ftl_models(self):
        with pytest.raises(TypeError):
            precondition_ssd(SolidStateDisk())

    def test_rejects_bad_arguments(self):
        ftl = FlashTranslationLayer(tiny_geometry())
        with pytest.raises(ValueError):
            precondition_ssd(ftl, target_utilization=0.0)
        with pytest.raises(ValueError):
            precondition_ssd(ftl, churn_pages_per_round=0)


class TestBlockLayerDiscard:
    def test_discards_do_not_merge_with_writes(self):
        requests = [
            IORequest(0, 4096, is_write=True),
            IORequest(4096, 4096, is_discard=True),
            IORequest(8192, 4096, is_discard=True),
        ]
        merged = IOScheduler.merge_adjacent(requests)
        assert len(merged) == 2
        assert merged[1].is_discard and merged[1].nbytes == 8192

    def test_write_and_discard_mutually_exclusive(self):
        with pytest.raises(ValueError):
            IORequest(0, 4096, is_write=True, is_discard=True)

    def test_block_device_routes_discards(self, rng):
        device = BlockDevice(FlashTranslationLayer(tiny_geometry()))
        page = 16 * KiB
        device.write(0, page, rng)
        device.submit([IORequest(0, page, is_discard=True)], rng)
        assert device.stats.discard_requests == 1
        assert device.model.stats.discards == 1
        assert device.supports_discard

    def test_discard_noop_on_non_supporting_device(self, rng):
        device = BlockDevice(RamDisk())
        assert not device.supports_discard
        assert device.discard(0, 4096, rng) == 0.0
        assert device.stats.requests == 0


class TestSolidStateDiskSeedIsolation:
    def test_legacy_default_draws_from_shared_rng(self):
        """The documented legacy behaviour: cost depends on the shared stream."""

        def drive(extra_draws: int):
            ssd = SolidStateDisk()
            shared = random.Random(5)
            for _ in range(extra_draws):
                shared.random()
            return ssd.write_latency_ns(0, 4096, shared)

        assert drive(0) != drive(1)

    def test_seed_isolated_cost_depends_on_call_order_alone(self):
        def drive(extra_draws: int):
            ssd = SolidStateDisk(rng_seed=11)
            shared = random.Random(5)
            out = []
            for _ in range(50):
                for _ in range(extra_draws):
                    shared.random()
                out.append(ssd.write_latency_ns(0, 4096, shared))
            return out

        assert drive(0) == drive(2)

    def test_reset_state_reseeds_private_rng(self):
        ssd = SolidStateDisk(rng_seed=11)
        shared = random.Random(5)
        first = [ssd.write_latency_ns(0, 4096, shared) for _ in range(10)]
        ssd.reset_state()
        second = [ssd.write_latency_ns(0, 4096, shared) for _ in range(10)]
        assert first == second


class TestDeviceRegistry:
    """Every registered device kind constructs, serves sane latencies, and
    (when stateful) round-trips its snapshot state."""

    @pytest.mark.parametrize("kind", sorted(DEVICE_REGISTRY))
    def test_construct_and_latency_sanity(self, kind, rng):
        testbed = replace(scaled_testbed(0.0625), device_kind=kind)
        testbed.validate()
        model = testbed.build_device_model()
        read = model.read(0, 4096, rng)
        write = model.write(0, 4096, rng)
        assert 0 < read < 1e9
        assert 0 < write < 1e9
        assert model.stats.reads == 1 and model.stats.writes == 1
        assert model.capacity_bytes > 0

    @pytest.mark.parametrize("kind", sorted(DEVICE_REGISTRY))
    def test_snapshot_round_trip_where_stateful(self, kind, rng):
        testbed = replace(scaled_testbed(0.0625), device_kind=kind)
        model = testbed.build_device_model()
        if not callable(getattr(model, "export_state", None)):
            pytest.skip(f"{kind} is stateless")
        model.write(0, 64 * KiB, rng)
        state = model.export_state()
        twin = testbed.build_device_model()
        twin.restore_state(state)
        assert twin.export_state() == state

    def test_steady_kind_starts_preconditioned(self):
        testbed = replace(scaled_testbed(0.0625), device_kind="ssd-ftl-steady")
        model = testbed.build_device_model()
        assert model.utilization() > 0.8
        assert model.stats.pages_programmed == 0  # telemetry reset, state kept
        fresh = replace(testbed, device_kind="ssd-ftl-fresh").build_device_model()
        assert fresh.utilization() == 0.0

    def test_ssd_testbeds_validate(self):
        ssd = replace(paper_testbed(), device_kind="ssd")
        ssd.validate()
        assert isinstance(ssd.build_device_model(), SolidStateDisk)
        for kind in ("ssd-ftl-fresh", "ssd-ftl-steady"):
            replace(paper_testbed(), device_kind=kind).validate()

    def test_unknown_kind_still_rejected(self):
        with pytest.raises(ValueError):
            storage_config.TestbedConfig(device_kind="nvme-zns").validate()


class TestDiscardThroughTheStack:
    @pytest.fixture
    def ftl_stack(self):
        testbed = replace(scaled_testbed(0.0625), device_kind="ssd-ftl")
        return build_stack("ext4", testbed=testbed, seed=7)

    def _populate(self, stack, count=6, size=256 * KiB):
        vfs = stack.vfs
        vfs.mkdirs_uncharged("/d")
        for index in range(count):
            fd = vfs.open(f"/d/f{index}", create=True)
            # fallocate first so delalloc file systems materialise real
            # extents before writeback (otherwise the data lands before the
            # reservation resolves and there is nothing for TRIM to unmap).
            vfs.fallocate(fd, size)
            vfs.write(fd, size)
            vfs.fsync(fd)
            vfs.close(fd)
        # Push the data (not just the journal) to the device: discards can
        # only unmap pages the device actually holds.
        vfs.sync()

    def test_unlink_issues_discards_to_ftl(self, ftl_stack):
        self._populate(ftl_stack)
        before = ftl_stack.device.model.utilization()
        for index in range(6):
            ftl_stack.vfs.unlink(f"/d/f{index}")
        assert ftl_stack.vfs.stats.discards_issued > 0
        assert ftl_stack.vfs.stats.discards_dropped == 0
        assert ftl_stack.device.model.stats.discards > 0
        assert ftl_stack.device.model.utilization() < before

    def test_truncate_issues_discards_and_frees_blocks(self, ftl_stack):
        self._populate(ftl_stack, count=1, size=512 * KiB)
        fs = ftl_stack.fs
        free_before = fs.free_blocks()
        latency = ftl_stack.vfs.truncate("/d/f0", 64 * KiB)
        assert latency > 0
        assert fs.free_blocks() > free_before
        assert fs.resolve("/d/f0").size_bytes == 64 * KiB
        assert ftl_stack.vfs.stats.truncates == 1
        assert ftl_stack.device.model.stats.discards > 0

    def test_truncate_extends_as_hole(self, ftl_stack):
        self._populate(ftl_stack, count=1, size=64 * KiB)
        blocks_before = fs_blocks = ftl_stack.fs.resolve("/d/f0").blocks_allocated()
        ftl_stack.vfs.truncate("/d/f0", 1 * MiB)
        inode = ftl_stack.fs.resolve("/d/f0")
        assert inode.size_bytes == 1 * MiB
        assert inode.blocks_allocated() == blocks_before

    def test_discards_dropped_on_non_trim_devices(self):
        stack = build_stack("ext4", testbed=scaled_testbed(0.0625), seed=7)
        self._populate(stack, count=3)
        for index in range(3):
            stack.vfs.unlink(f"/d/f{index}")
        assert stack.vfs.stats.discards_issued == 0
        assert stack.vfs.stats.discards_dropped > 0
        assert stack.device.stats.discard_requests == 0

    @pytest.mark.parametrize("fs_type", ["ext2", "ext3", "ext4", "xfs"])
    def test_every_filesystem_free_path_emits_discards(self, fs_type):
        testbed = replace(scaled_testbed(0.0625), device_kind="ssd-ftl")
        stack = build_stack(fs_type, testbed=testbed, seed=7)
        self._populate(stack, count=2)
        for index in range(2):
            stack.vfs.unlink(f"/d/f{index}")
        assert stack.vfs.stats.discards_issued > 0

    def test_delalloc_truncate_trims_reservation(self, ftl_stack):
        vfs = ftl_stack.vfs
        fs = ftl_stack.fs
        vfs.mkdirs_uncharged("/d")
        fd = vfs.open("/d/delalloc", create=True)
        vfs.write(fd, 512 * KiB)  # reserved, not yet allocated (ext4 delalloc)
        assert fs.delalloc_reserved_bytes() > 0
        vfs.truncate("/d/delalloc", 0)
        assert fs.delalloc_reserved_bytes() == 0
        vfs.close(fd)


class TestStackSnapshotWithDevice:
    def test_ftl_stack_snapshot_round_trip(self):
        from repro.aging.snapshot import restore_stack, snapshot_stack

        testbed = replace(scaled_testbed(0.0625), device_kind="ssd-ftl")
        stack = build_stack("ext4", testbed=testbed, seed=7)
        vfs = stack.vfs
        vfs.mkdirs_uncharged("/d")
        for index in range(8):
            fd = vfs.open(f"/d/f{index}", create=True)
            vfs.write(fd, 128 * KiB)
            vfs.fsync(fd)
            vfs.close(fd)
        vfs.unlink("/d/f0")
        vfs.sync()
        snapshot = snapshot_stack(stack)
        assert "device" in snapshot.data
        restored = snapshot_stack(restore_stack(snapshot, restore_rng=True))
        assert restored.fingerprint == snapshot.fingerprint

    def test_legacy_device_snapshot_omits_device_section(self):
        from repro.aging.snapshot import snapshot_stack

        stack = build_stack("ext2", testbed=scaled_testbed(0.0625), seed=7)
        snapshot = snapshot_stack(stack)
        assert "device" not in snapshot.data


class TestFreshVsSteadyExperiment:
    def test_quick_run_shows_divergence(self):
        from repro.experiments.ssd_steady import run_fresh_vs_steady

        result = run_fresh_vs_steady(
            fs_type="ext4", quick=True, testbed=scaled_testbed(0.0625)
        )
        assert result.steady_write_amplification > 1.0
        assert result.fresh_write_amplification == pytest.approx(1.0, abs=0.01)
        assert result.slowdown_factor > 1.02
        assert all(result.checks().values())
        rendered = result.render()
        assert "fresh" in rendered and "steady" in rendered

    @pytest.mark.slow
    def test_serial_equals_parallel(self):
        from repro.experiments.ssd_steady import run_fresh_vs_steady

        def frame_rows(n_workers):
            result = run_fresh_vs_steady(
                fs_type="ext2",
                workload="create-delete",
                quick=True,
                testbed=scaled_testbed(0.0625),
                n_workers=n_workers,
            )
            return result.frame.rows

        assert frame_rows(1) == frame_rows(2)

    def test_device_axis_separates_cache_keys(self):
        from repro.core.parallel import cache_key
        from repro.core.runner import BenchmarkConfig
        from repro.workloads.micro import sequential_read_workload

        spec = sequential_read_workload(8 * MiB)
        base = scaled_testbed(0.0625)
        keys = {
            cache_key("ext2", spec, BenchmarkConfig(), 42,
                      replace(base, device_kind=kind))
            for kind in ("ssd", "ssd-ftl", "ssd-ftl-fresh", "ssd-ftl-steady")
        }
        assert len(keys) == 4


class TestRunnerTelemetry:
    def test_ftl_runs_report_flash_environment(self):
        testbed = replace(scaled_testbed(0.0625), device_kind="ssd-ftl-steady")
        from repro.workloads.registry import WORKLOAD_REGISTRY

        spec = WORKLOAD_REGISTRY["create-delete"](testbed)
        config = BenchmarkConfig(
            duration_s=1.0, repetitions=1, warmup_mode=WarmupMode.NONE
        )
        run = run_single_repetition("ext4", spec, 0, testbed, config)
        assert "device_write_amplification" in run.environment
        assert run.environment["device_write_amplification"] >= 1.0

    def test_legacy_runs_keep_environment_keys_unchanged(self):
        testbed = scaled_testbed(0.0625)
        from repro.workloads.registry import WORKLOAD_REGISTRY

        spec = WORKLOAD_REGISTRY["create-delete"](testbed)
        config = BenchmarkConfig(
            duration_s=1.0, repetitions=1, warmup_mode=WarmupMode.NONE
        )
        run = run_single_repetition("ext2", spec, 0, testbed, config)
        assert sorted(run.environment) == ["cpu_speed_factor", "page_cache_bytes"]
