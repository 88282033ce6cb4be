"""Tests for the aging & state-snapshot subsystem (repro.aging).

Covers the acceptance contract of the subsystem:

* both allocator families report free-space extents consistently;
* the churn ager reaches its free-space target and shreds free space;
* snapshots survive save -> load with fingerprint verification, and
  restoring one yields the identical file system state;
* restore + re-run is bit-identical across independent restores;
* traces round-trip with full fidelity when replayed onto aged
  (snapshot-restored) stacks;
* the aged-vs-fresh experiment shows an asserted throughput delta on both
  ext2 and xfs, with fragmentation metrics reported alongside;
* the snapshot fingerprint joins the parallel executor's cache key;
* the ``age`` CLI produces a loadable snapshot and ``--version`` works.
"""

import json
import os

import pytest

from repro.aging import (
    AgingConfig,
    ChurnAger,
    TraceAger,
    load_snapshot,
    measure_fragmentation,
    restore_stack,
    run_aged_vs_fresh,
    save_snapshot,
    snapshot_stack,
)
from repro.aging.snapshot import snapshot_fingerprint, snapshot_stack_factory
from repro.analysis.fragility import assess_aging
from repro.core.histogram import LatencyHistogram
from repro.core.parallel import ParallelExecutor, ResultCache, WorkUnit, cache_key
from repro.core.persistence import run_result_to_dict
from repro.core.results import RepetitionSet, RunResult
from repro.core.runner import BenchmarkConfig, WarmupMode, run_single_repetition
from repro.core.timeline import IntervalSeries
from repro.cli import main as cli_main
from repro.fs.allocation import BlockGroupAllocator, ExtentAllocator
from repro.fs.stack import build_stack
from repro.storage.config import scaled_testbed
from repro.workloads.micro import sequential_read_workload
from repro.workloads.trace import TraceRecord, TraceReplayer, load_trace, save_trace

MiB = 1024 * 1024

TESTBED = scaled_testbed(0.0625)


def tiny_aging_config(seed: int = 777) -> AgingConfig:
    """An even smaller profile than quick_aging_config, for unit tests."""
    return AgingConfig(
        free_space_target_bytes=64 * MiB,
        hole_bytes=256 * 1024,
        fill_file_bytes=2048 * MiB,
        churn_ops=50,
        seed=seed,
    )


@pytest.fixture(scope="module")
def aged_ext2_snapshot(tmp_path_factory):
    """One aged ext2 stack, snapshotted to disk (shared across tests)."""
    stack = build_stack("ext2", testbed=TESTBED, seed=7)
    result = ChurnAger(tiny_aging_config()).age(stack)
    path = str(tmp_path_factory.mktemp("snap") / "aged-ext2.snapshot.json")
    save_snapshot(snapshot_stack(stack), path)
    return stack, result, path


# --------------------------------------------------------------------------
class TestFreeSpaceStats:
    def test_both_families_report_free_extents_consistently(self):
        for allocator in (
            BlockGroupAllocator(total_blocks=200_000),
            ExtentAllocator(total_blocks=200_000),
        ):
            stats = allocator.free_space_stats()
            assert stats.free_blocks == allocator.free_blocks
            assert stats.extent_count == allocator.free_extent_count() > 0
            assert stats.largest_extent_blocks == allocator.largest_free_run()
            assert stats.extent_count == len(allocator.free_runs())
            # A fresh allocator's free space is unfragmented.
            assert stats.fragmentation_score < 0.999
            assert stats.mean_extent_blocks == pytest.approx(
                stats.free_blocks / stats.extent_count
            )

    def test_fragmentation_score_rises_with_holes(self):
        for allocator in (
            BlockGroupAllocator(total_blocks=200_000),
            ExtentAllocator(total_blocks=200_000),
        ):
            before = allocator.free_space_stats()
            runs = [allocator.allocate(64) for _ in range(50)]
            # Free every other allocation: checkerboard holes.
            for index, run_list in enumerate(runs):
                if index % 2 == 0:
                    for start, count in run_list:
                        allocator.free(start, count)
            after = allocator.free_space_stats()
            assert after.extent_count > before.extent_count
            assert after.mean_extent_blocks < before.mean_extent_blocks

    def test_export_restore_roundtrip(self):
        for make in (
            lambda: BlockGroupAllocator(total_blocks=100_000),
            lambda: ExtentAllocator(total_blocks=100_000),
        ):
            source = make()
            source.allocate(500)
            keep = source.allocate(300)
            source.allocate(100)
            for start, count in keep:
                source.free(start, count)
            state = source.export_free_state()
            target = make()
            target.restore_free_state(json.loads(json.dumps(state)))
            assert target.free_runs() == source.free_runs()
            assert target.free_blocks == source.free_blocks

    def test_restore_rejects_group_count_mismatch(self):
        source = ExtentAllocator(total_blocks=100_000, allocation_groups=4)
        target = ExtentAllocator(total_blocks=100_000, allocation_groups=2)
        with pytest.raises(ValueError):
            target.restore_free_state(source.export_free_state())


# --------------------------------------------------------------------------
class TestChurnAger:
    def test_reaches_free_space_target_and_shreds(self, aged_ext2_snapshot):
        stack, result, _ = aged_ext2_snapshot
        config = tiny_aging_config()
        free_bytes = stack.fs.free_blocks() * stack.fs.block_size
        # Final free space lands near the target (churn adds jitter).
        assert free_bytes == pytest.approx(config.free_space_target_bytes, rel=0.5)
        assert result.files_created > 0 and result.files_deleted > 0
        frag = result.fragmentation
        assert frag is not None and frag.free_space is not None
        # The point of aging: free space is many small extents, not one run.
        assert frag.free_space.extent_count > 20
        assert frag.free_space.fragmentation_score > 0.5
        assert "Aged with churn" in result.render()

    def test_aging_is_deterministic(self):
        fingerprints = []
        for _ in range(2):
            stack = build_stack("xfs", testbed=TESTBED, seed=3)
            ChurnAger(tiny_aging_config(seed=11)).age(stack)
            fingerprints.append(snapshot_stack(stack).fingerprint)
        assert fingerprints[0] == fingerprints[1]

    def test_different_seed_different_state(self):
        fingerprints = []
        for seed in (1, 2):
            stack = build_stack("ext2", testbed=TESTBED, seed=3)
            ChurnAger(tiny_aging_config(seed=seed)).age(stack)
            fingerprints.append(snapshot_stack(stack).fingerprint)
        assert fingerprints[0] != fingerprints[1]

    def test_churn_survives_space_exhaustion(self):
        """Failed creates roll back cleanly so the same path can be retried."""
        config = AgingConfig(
            free_space_target_bytes=8 * MiB,
            hole_bytes=4 * MiB,
            fill_file_bytes=2048 * MiB,
            churn_ops=300,  # far more churn than the free space can absorb
            seed=3,
        )
        stack = build_stack("ext2", testbed=TESTBED, seed=3)
        result = ChurnAger(config).age(stack)
        assert result.files_created > 0
        assert stack.fs.free_blocks() >= 0

    def test_sub_block_holes_are_clamped(self):
        """hole_bytes below the block size must age cleanly, not crash."""
        config = AgingConfig(
            free_space_target_bytes=4 * MiB,
            hole_bytes=2048,  # below the 4096-byte block size
            fill_file_bytes=2048 * MiB,
            churn_ops=30,
        )
        stack = build_stack("ext2", testbed=TESTBED, seed=5)
        result = ChurnAger(config).age(stack)
        assert result.files_created > 0
        assert result.fragmentation is not None

    def test_trace_ager(self):
        records = [
            TraceRecord(float(i), "create", f"/traced/f{i:03d}", 0, 0) for i in range(20)
        ] + [
            TraceRecord(20.0 + i, "write", f"/traced/f{i:03d}", 0, 64 * 1024)
            for i in range(20)
        ] + [
            TraceRecord(40.0 + i, "delete", f"/traced/f{i:03d}", 0, 0)
            for i in range(0, 20, 2)
        ]
        stack = build_stack("ext2", testbed=TESTBED, seed=5)
        result = TraceAger(records, passes=2).age(stack)
        assert result.files_created >= 20
        assert result.files_deleted >= 10
        assert result.fragmentation is not None
        assert stack.fs.exists("/traced/f001")


# --------------------------------------------------------------------------
class TestSnapshot:
    def test_save_load_roundtrip_fingerprint(self, aged_ext2_snapshot):
        _, _, path = aged_ext2_snapshot
        snapshot = load_snapshot(path)
        assert snapshot.fingerprint == snapshot_fingerprint(path)
        assert snapshot.fs_type == "ext2"
        assert "fingerprint" in snapshot.describe()

    def test_corrupt_snapshot_rejected(self, aged_ext2_snapshot, tmp_path):
        _, _, path = aged_ext2_snapshot
        with open(path) as handle:
            document = json.load(handle)
        document["data"]["fs"]["next_inode"] += 1
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="fingerprint"):
            load_snapshot(str(corrupt))

    def test_restore_reproduces_fs_state(self, aged_ext2_snapshot):
        stack, _, path = aged_ext2_snapshot
        restored = restore_stack(load_snapshot(path), seed=99)
        assert restored.fs.free_blocks() == stack.fs.free_blocks()
        assert restored.fs.inode_count() == stack.fs.inode_count()
        assert restored.fs.allocator.free_runs() == stack.fs.allocator.free_runs()
        assert restored.clock.now_ns == stack.clock.now_ns
        original = measure_fragmentation(stack.fs)
        again = measure_fragmentation(restored.fs)
        assert again.extent_histogram == original.extent_histogram
        assert again.free_space == original.free_space

    @pytest.mark.parametrize("fs_type", ["ext2", "ext3", "ext4", "xfs"])
    def test_restore_preserves_cache_journal_and_clock(self, fs_type, tmp_path):
        stack = build_stack(fs_type, testbed=TESTBED, seed=13)
        vfs = stack.vfs
        vfs.mkdir("/data")
        vfs.create("/data/file")
        fd = vfs.open("/data/file")
        vfs.write(fd, 256 * 1024, offset=0)
        vfs.read(fd, 64 * 1024, offset=0)

        snapshot = snapshot_stack(stack)
        path = tmp_path / f"{fs_type}.json"
        save_snapshot(snapshot, str(path))
        restored = restore_stack(load_snapshot(str(path)), seed=13)

        assert len(restored.cache) == len(stack.cache)
        assert restored.cache.dirty_pages == stack.cache.dirty_pages
        assert restored.clock.now_ns == stack.clock.now_ns
        assert restored.fs.exists("/data/file")
        inode = restored.fs.resolve("/data/file")
        assert inode.size_bytes == stack.fs.resolve("/data/file").size_bytes
        for attr in ("journal", "log"):
            original = getattr(stack.fs, attr, None)
            if original is not None:
                twin = getattr(restored.fs, attr)
                assert twin._head == original._head
                assert twin._pending_checkpoint_blocks == original._pending_checkpoint_blocks

    def test_restore_rejects_page_size_mismatch(self, aged_ext2_snapshot):
        from dataclasses import replace

        _, _, path = aged_ext2_snapshot
        other_pages = replace(TESTBED, page_size=8192)
        with pytest.raises(ValueError, match="geometry mismatch"):
            restore_stack(load_snapshot(path), testbed=other_pages)

    def test_restore_rejects_wrong_fs_type(self, aged_ext2_snapshot):
        _, _, path = aged_ext2_snapshot
        factory = snapshot_stack_factory(path)
        with pytest.raises(ValueError, match="snapshot"):
            factory("xfs", TESTBED, 1, 1.0)


# --------------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("fs_type", ["ext2", "xfs"])
    def test_restored_reruns_are_bit_identical(self, fs_type, tmp_path):
        stack = build_stack(fs_type, testbed=TESTBED, seed=21)
        ChurnAger(tiny_aging_config()).age(stack)
        path = str(tmp_path / "aged.json")
        save_snapshot(snapshot_stack(stack), path)

        spec = sequential_read_workload(24 * MiB)
        config = BenchmarkConfig(
            duration_s=1.0, repetitions=1, warmup_mode=WarmupMode.NONE
        )
        results = [
            run_single_repetition(
                fs_type, spec, 0, TESTBED, config, snapshot_path=path
            )
            for _ in range(2)
        ]
        serialized = [
            json.dumps(run_result_to_dict(run), sort_keys=True) for run in results
        ]
        assert serialized[0] == serialized[1]

    def test_aged_differs_from_fresh(self, tmp_path):
        stack = build_stack("ext2", testbed=TESTBED, seed=21)
        ChurnAger(tiny_aging_config()).age(stack)
        path = str(tmp_path / "aged.json")
        save_snapshot(snapshot_stack(stack), path)
        spec = sequential_read_workload(24 * MiB)
        config = BenchmarkConfig(
            duration_s=1.0, repetitions=1, warmup_mode=WarmupMode.NONE
        )
        fresh = run_single_repetition("ext2", spec, 0, TESTBED, config)
        aged = run_single_repetition(
            "ext2", spec, 0, TESTBED, config, snapshot_path=path
        )
        assert fresh.throughput_ops_s != aged.throughput_ops_s


# --------------------------------------------------------------------------
class TestTraceRoundTrip:
    def _records(self):
        return (
            [TraceRecord(float(i), "create", f"/t/f{i}", 0, 0) for i in range(10)]
            + [TraceRecord(10.0 + i, "write", f"/t/f{i}", 0, 32 * 1024) for i in range(10)]
            + [TraceRecord(20.0 + i, "read", f"/t/f{i}", 0, 32 * 1024) for i in range(10)]
            + [TraceRecord(30.0 + i, "fsync", f"/t/f{i}", 0, 0) for i in range(3)]
        )

    def test_trace_survives_save_load(self, tmp_path):
        records = self._records()
        path = tmp_path / "ops.trace"
        assert save_trace(records, str(path)) == len(records)
        assert load_trace(str(path)) == records

    def test_replay_on_restored_stacks_is_identical(self, aged_ext2_snapshot, tmp_path):
        _, _, snapshot_path = aged_ext2_snapshot
        path = tmp_path / "ops.trace"
        save_trace(self._records(), str(path))
        records = load_trace(str(path))

        latencies = []
        for _ in range(2):
            restored = restore_stack(load_snapshot(snapshot_path), seed=4)
            replayer = TraceReplayer(restored, honour_timing=False)
            latencies.append(list(replayer.replay(records)))
        assert latencies[0] == latencies[1]
        assert len(latencies[0]) == len(records)
        assert any(latency > 0 for latency in latencies[0])


# --------------------------------------------------------------------------
@pytest.mark.slow
class TestAgedVsFresh:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        return run_aged_vs_fresh(
            fs_types=("ext2", "xfs"),
            testbed=TESTBED,
            quick=True,
            snapshot_dir=str(tmp_path_factory.mktemp("aged-vs-fresh")),
        )

    def test_measurable_delta_on_ext2_and_xfs(self, result):
        for fs_type in ("ext2", "xfs"):
            cell = result.cells[fs_type]
            # Aging must slow the cold sequential read down measurably.
            assert cell.slowdown_factor > 1.05, (
                f"{fs_type}: aged state did not slow the benchmark "
                f"(factor {cell.slowdown_factor:.3f})"
            )
            assert cell.warnings, f"{fs_type}: expected an aging fragility warning"

    def test_fragmentation_reported_alongside(self, result):
        rendered = result.render()
        for fs_type in ("ext2", "xfs"):
            cell = result.cells[fs_type]
            frag = cell.aging.fragmentation
            assert frag is not None and frag.free_space is not None
            assert frag.free_space.fragmentation_score > 0.5
            assert cell.snapshot_fingerprint in rendered
            assert os.path.exists(cell.snapshot_path)
        assert "slowdown" in rendered

    def test_snapshots_are_reusable_artifacts(self, result):
        cell = result.cells["ext2"]
        snapshot = load_snapshot(cell.snapshot_path)
        assert snapshot.fingerprint == cell.snapshot_fingerprint
        restored = restore_stack(snapshot)
        assert restored.fs_name == "ext2"


# --------------------------------------------------------------------------
class TestAssessAging:
    def _runs(self, throughputs, hit_ratio):
        repetitions = RepetitionSet(label="synthetic")
        for index, throughput in enumerate(throughputs):
            repetitions.add(
                RunResult(
                    workload_name="w",
                    fs_name="ext2",
                    repetition=index,
                    seed=index,
                    measured_duration_s=1.0,
                    warmup_duration_s=0.0,
                    operations=int(throughput),
                    throughput_ops_s=throughput,
                    histogram=LatencyHistogram(),
                    timeline=IntervalSeries(interval_s=1.0, origin_ns=0.0),
                    cache_hit_ratio=hit_ratio,
                )
            )
        return repetitions

    def test_clean_when_states_agree(self):
        fresh = self._runs([1000.0, 1010.0], hit_ratio=0.2)
        aged = self._runs([990.0, 1005.0], hit_ratio=0.2)
        assert assess_aging(fresh, aged) == []

    def test_warns_on_throughput_divergence(self):
        fresh = self._runs([1000.0] * 3, hit_ratio=0.2)
        aged = self._runs([600.0] * 3, hit_ratio=0.2)
        warnings = assess_aging(fresh, aged)
        assert any(w.kind == "aged-state sensitivity" for w in warnings)

    def test_severe_on_regime_shift(self):
        fresh = self._runs([10000.0] * 3, hit_ratio=0.99)
        aged = self._runs([500.0] * 3, hit_ratio=0.1)
        warnings = assess_aging(fresh, aged)
        kinds = {w.kind for w in warnings}
        assert "aging regime shift" in kinds
        assert any(w.severity == "severe" for w in warnings)

    def test_rejects_bad_factor(self):
        fresh = self._runs([1.0], hit_ratio=0.5)
        with pytest.raises(ValueError):
            assess_aging(fresh, fresh, delta_factor=1.0)


# --------------------------------------------------------------------------
class TestCacheKeyWithSnapshot:
    def test_fingerprint_changes_key(self):
        spec = sequential_read_workload(8 * MiB)
        config = BenchmarkConfig(duration_s=1.0, repetitions=1)
        fresh_key = cache_key("ext2", spec, config, 42, TESTBED)
        aged_key = cache_key("ext2", spec, config, 42, TESTBED, snapshot_fingerprint="abc")
        other_key = cache_key("ext2", spec, config, 42, TESTBED, snapshot_fingerprint="def")
        assert len({fresh_key, aged_key, other_key}) == 3
        # Omitting the fingerprint keeps pre-aging keys stable.
        assert fresh_key == cache_key("ext2", spec, config, 42, TESTBED)

    def test_workunit_derives_fingerprint_from_path_alone(self, aged_ext2_snapshot):
        """A unit carrying only the path must not collide with fresh-state keys."""
        _, _, path = aged_ext2_snapshot
        spec = sequential_read_workload(8 * MiB)
        config = BenchmarkConfig(duration_s=1.0, repetitions=1)
        fresh_unit = WorkUnit(fs_type="ext2", spec=spec, config=config, testbed=TESTBED)
        pathonly_unit = WorkUnit(
            fs_type="ext2", spec=spec, config=config, testbed=TESTBED, snapshot_path=path
        )
        explicit_unit = WorkUnit(
            fs_type="ext2",
            spec=spec,
            config=config,
            testbed=TESTBED,
            snapshot_path=path,
            snapshot_fingerprint=snapshot_fingerprint(path),
        )
        assert pathonly_unit.key() == explicit_unit.key()
        assert pathonly_unit.key() != fresh_unit.key()

    def test_suite_rejects_mismatched_snapshot_fs_early(self, aged_ext2_snapshot):
        from repro.core.suite import NanoBenchmarkSuite

        _, _, path = aged_ext2_snapshot
        suite = NanoBenchmarkSuite(testbed=TESTBED, quick=True, snapshot_path=path)
        with pytest.raises(ValueError, match="holds 'ext2' state"):
            suite.as_experiment(["ext2", "xfs"]).cells()
        # The matching file system alone is fine.
        assert suite.as_experiment(["ext2"]).cells()

    def test_workunit_threads_fingerprint(self, aged_ext2_snapshot):
        _, _, path = aged_ext2_snapshot
        fingerprint = snapshot_fingerprint(path)
        spec = sequential_read_workload(8 * MiB)
        config = BenchmarkConfig(duration_s=1.0, repetitions=1)
        fresh_unit = WorkUnit(fs_type="ext2", spec=spec, config=config, testbed=TESTBED)
        aged_unit = WorkUnit(
            fs_type="ext2",
            spec=spec,
            config=config,
            testbed=TESTBED,
            snapshot_path=path,
            snapshot_fingerprint=fingerprint,
        )
        assert fresh_unit.key() != aged_unit.key()

    def test_executor_caches_fresh_and_aged_separately(self, aged_ext2_snapshot, tmp_path):
        _, _, path = aged_ext2_snapshot
        fingerprint = snapshot_fingerprint(path)
        spec = sequential_read_workload(8 * MiB)
        config = BenchmarkConfig(
            duration_s=0.5, repetitions=1, warmup_mode=WarmupMode.NONE
        )
        units = [
            WorkUnit(fs_type="ext2", spec=spec, config=config, testbed=TESTBED),
            WorkUnit(
                fs_type="ext2",
                spec=spec,
                config=config,
                testbed=TESTBED,
                snapshot_path=path,
                snapshot_fingerprint=fingerprint,
            ),
        ]
        cache = ResultCache(str(tmp_path / "cache"))
        executor = ParallelExecutor(n_workers=1, cache=cache)
        first = executor.run_units(units)
        assert cache.stats.stores == 2  # fresh and aged are distinct cells
        second = executor.run_units(units)
        assert cache.stats.hits == 2
        for before, after in zip(first, second):
            assert json.dumps(run_result_to_dict(before), sort_keys=True) == json.dumps(
                run_result_to_dict(after), sort_keys=True
            )
        # The aged run really started from the aged state: it is slower.
        assert first[0].throughput_ops_s != first[1].throughput_ops_s


# --------------------------------------------------------------------------
class TestAgeCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0
        from repro import __version__

        assert __version__ in capsys.readouterr().out

    def test_suite_snapshot_fs_mismatch_is_a_clean_usage_error(
        self, aged_ext2_snapshot, capsys
    ):
        _, _, path = aged_ext2_snapshot
        # Default fs list includes ext3/xfs, which the ext2 snapshot cannot serve.
        assert cli_main(["suite", "--quick", "--snapshot", path]) == 2
        err = capsys.readouterr().err
        assert "holds 'ext2' state" in err
        assert "--fs ext2" in err

    def test_suite_snapshot_missing_file_is_a_clean_usage_error(self, capsys):
        assert (
            cli_main(["suite", "--quick", "--snapshot", "/nonexistent/snap.json"]) == 2
        )
        assert "error" in capsys.readouterr().err

    def test_age_produces_snapshot(self, tmp_path, capsys):
        out = str(tmp_path / "aged.snapshot.json")
        assert (
            cli_main(
                [
                    "age",
                    "--quick",
                    "--scaled-testbed",
                    "0.0625",
                    "--fs",
                    "ext2",
                    "--out",
                    out,
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Aged with churn" in output
        assert os.path.exists(out)
        snapshot = load_snapshot(out)
        assert snapshot.fs_type == "ext2"
