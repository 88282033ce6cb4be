"""Tests for the observability layer (repro.obs).

The load-bearing guarantees, in order of importance:

* **Non-perturbation** -- a traced run is the *same measurement* as an
  untraced run: serialized payloads are byte-identical (pinned against the
  pre-observability golden hash) and cache keys ignore the ``trace`` flag
  entirely, so traced and untraced runs share one cache entry.
* **Exactness** -- per op type, the attributed category components sum to
  the op's measured latency (up to float accumulation order), the grand
  total matches the latency histogram's sum, and per-client attribution
  matches each client's exact sample arithmetic.
* **Boundedness** -- the event ring never exceeds its capacity, keeps exact
  drop counters, and a full ring never loses attribution.
* **Classification** -- journal-less file systems attribute no journal
  time, the FTL's garbage-collection pauses land in ``gc-pause``, and
  fire-and-forget work stays out of attribution.
* **Hooks** -- ``attach_tracer`` and ``metrics_registry()`` wire their
  hooks without checking, so every registered file system and device
  model runs a traced and an untraced window, and every mutable ``*Stats``
  dataclass is a ``MetricSource``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import io
import math
import pkgutil
from collections import defaultdict
from dataclasses import replace

import pytest

import repro
from repro.core.frame import run_metrics
from repro.core.parallel import WorkUnit, cache_key
from repro.core.persistence import run_result_to_dict, save_run_result
from repro.core.runner import (
    TRACE_RING_CAPACITY,
    BenchmarkConfig,
    BenchmarkRunner,
    WarmupMode,
)
from repro.obs import (
    BACKGROUND,
    CATEGORIES,
    Attribution,
    MetricSource,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    payloads_match,
    render_attribution,
    render_client_attribution,
    run_unit_traced,
    write_jsonl,
)
from repro.fs.stack import FS_REGISTRY, build_stack
from repro.storage.config import DEVICE_REGISTRY, scaled_testbed
from repro.workloads.registry import postmark_workload

MiB = 1024 * 1024

# Pinned in tests/test_concurrency.py against the pre-concurrency repository;
# repeated here because tracing must never move them either.
GOLDEN_KEY_EXT4_POSTMARK = "e84a62e530984408d1f1a1e58160ca91292d5bcd0392fdbf0e652d2c5f14789f"
GOLDEN_RUN_SHA256 = "bfa10d8b6cb1e93e3e6f295f1fd5e3a6510048f5614aa9cce65a71a02f238140"


def golden_unit(trace: bool = False, clients: int = 1) -> WorkUnit:
    """The work unit whose untraced payload hash is pinned as the golden."""
    return WorkUnit(
        fs_type="ext4",
        spec=postmark_workload(file_count=120),
        config=BenchmarkConfig(
            duration_s=2.0, repetitions=1, trace=trace, clients=clients
        ),
        testbed=scaled_testbed(0.0625),
    )


def run_unit(unit: WorkUnit):
    runner = BenchmarkRunner(fs_type=unit.fs_type, testbed=unit.testbed, config=unit.config)
    return runner.run_once(unit.spec, unit.repetition)


def quick_config(**overrides) -> BenchmarkConfig:
    values = dict(duration_s=0.5, repetitions=1, warmup_mode=WarmupMode.NONE, trace=True)
    values.update(overrides)
    return BenchmarkConfig(**values)


def assert_attribution_sums(run) -> None:
    """Per op type, the attributed components sum to the op's latency, and
    all of them to the histogram's sum."""
    attr = run.attribution
    per_op_latency = defaultdict(float)
    for event in run.trace_events:
        if event.cat == "op":
            per_op_latency[event.name] += event.dur_ns
    assert set(attr["ops"]) == {op for op, total in per_op_latency.items() if total > 0}
    for op, categories in attr["ops"].items():
        assert math.isclose(sum(categories.values()), per_op_latency[op], rel_tol=1e-9)
    assert math.isclose(sum(attr["totals"].values()), run.histogram.sum_ns, rel_tol=1e-9)


# ---------------------------------------------------------- non-perturbation
class TestNonPerturbation:
    def test_traced_payload_matches_golden_hash(self):
        """The serialized bytes of a traced run equal the pinned untraced golden."""
        run = run_unit(golden_unit(trace=True))
        buffer = io.StringIO()
        save_run_result(run, buffer)
        digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
        assert digest == GOLDEN_RUN_SHA256
        # ...even though the in-memory result carries the evidence:
        assert run.attribution is not None
        assert run.trace_events

    def test_traced_and_untraced_payloads_are_equal(self):
        traced = run_unit(golden_unit(trace=True))
        untraced = run_unit(golden_unit(trace=False))
        assert payloads_match(traced, untraced)
        assert untraced.attribution is None
        assert untraced.trace_events is None
        payload = run_result_to_dict(traced)
        assert "attribution" not in payload
        assert "trace_events" not in payload

    def test_cache_key_ignores_trace_flag(self):
        assert (
            cache_key("ext4", postmark_workload(), BenchmarkConfig(trace=True), seed=42)
            == cache_key("ext4", postmark_workload(), BenchmarkConfig(trace=False), seed=42)
            == GOLDEN_KEY_EXT4_POSTMARK
        )

    def test_multi_client_traced_payload_is_identical(self):
        traced = run_unit(golden_unit(trace=True, clients=2))
        untraced = run_unit(golden_unit(trace=False, clients=2))
        assert payloads_match(traced, untraced)

    def test_run_unit_traced_bypasses_nothing_it_measures(self):
        """run_unit_traced returns the same measurement, plus attribution."""
        reference = run_unit(golden_unit(trace=False))
        traced = run_unit_traced(golden_unit(trace=False))
        assert payloads_match(reference, traced)
        assert traced.attribution is not None


# ------------------------------------------------------------------ exactness
class TestAttributionExactness:
    def test_per_op_sums_match_measured_latency_journalled(self):
        run = run_unit(golden_unit(trace=True))
        assert_attribution_sums(run)
        # Journalled metadata churn must show journal time somewhere.
        assert run.attribution["totals"].get("journal", 0.0) > 0

    def test_per_op_sums_match_measured_latency_journal_less(self):
        unit = replace(golden_unit(trace=True), fs_type="ext2")
        run = run_unit(unit)
        assert_attribution_sums(run)
        # ext2 has no journal: nothing may be classified as journal time.
        assert run.attribution["totals"].get("journal", 0.0) == 0.0

    def test_ftl_gc_pauses_are_carved_out(self):
        unit = golden_unit(trace=True)
        unit = replace(unit, testbed=replace(unit.testbed, device_kind="ssd-ftl-steady"))
        run = run_unit(unit)
        assert_attribution_sums(run)
        totals = run.attribution["totals"]
        assert totals.get("gc-pause", 0.0) > 0
        # Seek is a mechanical-disk concept; the SSD must never report it.
        assert totals.get("seek", 0.0) == 0.0

    def test_per_client_attribution_matches_exact_samples(self):
        run = run_unit(golden_unit(trace=True, clients=2))
        clients = run.attribution["clients"]
        assert sorted(clients) == ["0", "1"]
        for row in run.client_metrics:
            index = str(int(row["client"]))
            expected = row["mean_latency_ns"] * row["operations"]
            assert math.isclose(sum(clients[index].values()), expected, rel_tol=1e-9)

    def test_frame_metrics_carry_attribution_totals(self):
        run = run_unit(golden_unit(trace=True))
        metrics = run_metrics(run)
        for category in CATEGORIES:
            key = f"attr_{category.replace('-', '_')}_ns"
            assert key in metrics
            assert metrics[key] == run.attribution["totals"].get(category, 0.0)
        assert math.isclose(
            sum(metrics[f"attr_{c.replace('-', '_')}_ns"] for c in CATEGORIES),
            run.histogram.sum_ns,
            rel_tol=1e-9,
        )

    def test_untraced_frame_metrics_are_unchanged(self):
        run = run_unit(golden_unit(trace=False))
        assert not any(key.startswith("attr_") for key in run_metrics(run))


# --------------------------------------------------------------- ring buffer
class _FakeClock:
    def __init__(self) -> None:
        self.now_ns = 0.0


class TestRingBuffer:
    def test_ring_is_bounded_and_counts_drops(self):
        tracer = Tracer(_FakeClock(), capacity=16)
        tracer.begin_op("read")
        for _ in range(100):
            tracer.cpu(1.0)
        tracer.end_op(100.0)
        assert len(tracer.events) == 16
        assert tracer.total_events == 101
        assert tracer.dropped == 85

    def test_full_ring_never_loses_attribution(self):
        tracer = Tracer(_FakeClock(), capacity=4)
        tracer.begin_op("write")
        for _ in range(1000):
            tracer.cpu(2.0)
        tracer.end_op(2000.0)
        assert tracer.attribution.op_total("write") == 2000.0

    def test_runner_ring_capacity_bounds_long_runs(self):
        run = run_unit(golden_unit(trace=True))
        assert len(run.trace_events) <= TRACE_RING_CAPACITY

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(_FakeClock(), capacity=0)


# ----------------------------------------------------------- tracer semantics
class TestTracerSemantics:
    def test_async_records_are_ring_only(self):
        tracer = Tracer(_FakeClock())
        tracer.begin_op("read")
        tracer.push_context("readahead", async_=True)
        tracer.record("transfer", 50.0)
        tracer.pop_context()
        tracer.end_op(0.0)
        assert tracer.attribution.ops == {}
        assert any(event.cat == "transfer" for event in tracer.events)

    def test_out_of_span_records_land_in_background(self):
        tracer = Tracer(_FakeClock())
        tracer.record("writeback", 10.0)
        assert tracer.attribution.background == {"writeback": 10.0}
        assert tracer.attribution.ops == {}

    def test_cursor_tiles_components_within_a_span(self):
        clock = _FakeClock()
        clock.now_ns = 1000.0
        tracer = Tracer(clock)
        tracer.begin_op("write")
        tracer.cpu(5.0)
        tracer.record("writeback", 7.0)
        tracer.end_op(12.0)
        spans = [event for event in tracer.events if event.cat != "op"]
        assert [event.ts_ns for event in spans] == [1000.0, 1005.0]
        op = [event for event in tracer.events if event.cat == "op"][0]
        assert (op.ts_ns, op.dur_ns) == (1000.0, 12.0)

    def test_zero_duration_records_are_skipped(self):
        tracer = Tracer(_FakeClock())
        tracer.begin_op("read")
        tracer.record("cpu", 0.0)
        tracer.end_op(0.0)
        assert tracer.attribution.ops == {}

    def test_flush_classification_follows_journal_presence(self):
        journalled = Tracer(_FakeClock())
        journalled.has_journal = True
        journalled.begin_op("fsync")
        journalled.flush(3.0)
        journalled.end_op(3.0)
        assert journalled.attribution.ops["fsync"] == {"journal": 3.0}

        bare = Tracer(_FakeClock())
        bare.begin_op("fsync")
        bare.flush(3.0)
        bare.end_op(3.0)
        assert bare.attribution.ops["fsync"] == {"writeback": 3.0}


# -------------------------------------------------------------------- exports
class TestExports:
    def test_write_jsonl_round_trips_every_field(self):
        import json

        run = run_unit(golden_unit(trace=True))
        buffer = io.StringIO()
        count = write_jsonl(run.trace_events, buffer)
        lines = [line for line in buffer.getvalue().splitlines() if line]
        assert count == len(lines) == len(run.trace_events)
        first = json.loads(lines[0])
        assert set(first) == {"ts_ns", "dur_ns", "name", "cat", "op", "client"}

    def test_chrome_trace_shape(self):
        run = run_unit(golden_unit(trace=True, clients=2))
        document = chrome_trace(run.trace_events)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert len(events) == len(run.trace_events)
        assert all(event["ph"] == "X" for event in events)
        assert {event["tid"] for event in events} == {0, 1}

    def test_render_attribution_pivot(self):
        run = run_unit(golden_unit(trace=True))
        text = render_attribution(run.attribution, title="cell: latency attribution")
        assert text.startswith("cell: latency attribution")
        for category in CATEGORIES:
            assert f"{category}_ms" in text
        assert "(all ops)" in text
        assert "share" in text
        assert BACKGROUND not in text  # no background charges in this run

    def test_render_client_attribution_only_for_multi_client(self):
        single = run_unit(golden_unit(trace=True))
        assert render_client_attribution(single.attribution) == ""
        multi = run_unit(golden_unit(trace=True, clients=2))
        table = render_client_attribution(multi.attribution)
        assert "client" in table and "total_ms" in table


# ------------------------------------------------------------ metrics registry
class TestMetricsRegistry:
    def test_stack_registry_names_and_snapshot(self):
        from repro.fs.stack import build_stack

        stack = build_stack("ext4", testbed=scaled_testbed(0.0625))
        registry = stack.metrics_registry()
        assert {"vfs", "cache", "fs", "block", "device", "journal"} <= set(iter(registry))
        snapshot = registry.snapshot()
        assert snapshot["cache"]["hit_ratio"] == 0.0
        assert all(
            isinstance(value, float)
            for source in snapshot.values()
            for value in source.values()
        )

    def test_journal_less_stack_has_no_journal_source(self):
        from repro.fs.stack import build_stack

        stack = build_stack("ext2", testbed=scaled_testbed(0.0625))
        assert "journal" not in stack.metrics_registry()

    def test_reset_restores_defaults(self):
        from dataclasses import dataclass, field

        @dataclass
        class Sample(MetricSource):
            hits: int = 0
            values: list = field(default_factory=list)

        sample = Sample(hits=7)
        sample.values.append(1)
        sample.reset()
        assert sample.hits == 0
        assert sample.values == []

    def test_registry_wide_snapshot_reset_round_trip(self):
        """Every registered source survives snapshot -> reset -> snapshot.

        Exercised over a full journalled stack after real traffic: the reset
        snapshot must equal a pristine stack's snapshot source for source --
        a source whose counters stick (or that silently drops out of the
        registry) fails here, not in production reports.
        """
        from repro.fs.stack import build_stack

        unit = golden_unit()
        stack = build_stack(unit.fs_type, testbed=unit.testbed)
        runner = BenchmarkRunner(
            fs_type=unit.fs_type,
            testbed=unit.testbed,
            config=quick_config(trace=False),
            stack_factory=lambda *args: stack,
        )
        runner.run_once(unit.spec, 0)

        registry = stack.metrics_registry()
        pristine = build_stack(unit.fs_type, testbed=unit.testbed).metrics_registry()
        before = registry.snapshot()
        assert set(before) == set(pristine.snapshot())
        # Traffic moved at least one counter in the I/O path sources.
        assert any(
            any(value != 0.0 for value in counters.values())
            for name, counters in before.items()
        )
        registry.reset()
        after = registry.snapshot()
        assert set(after) == set(before)
        assert after == pristine.snapshot()
        for name, counters in before.items():
            # Identical counter names per source across the round trip.
            assert set(after[name]) == set(counters)

    def test_result_cache_stats_are_a_metric_source(self, tmp_path):
        from repro.core.parallel import CacheStats, ResultCache

        cache = ResultCache(str(tmp_path))
        assert isinstance(cache.stats, MetricSource)
        cache.get("0" * 64)
        snapshot = cache.stats.snapshot()
        assert snapshot["misses"] == 1.0
        assert snapshot["hit_ratio"] == 0.0
        for name in ("hits", "misses", "stores", "corrupt", "pack_hits", "blocks_read"):
            assert name in snapshot
        registry = MetricsRegistry()
        registry.register("result-cache", cache.stats)
        assert registry.snapshot()["result-cache"]["misses"] == 1.0
        registry.reset()
        assert cache.stats.misses == 0
        assert CacheStats().snapshot()["hit_ratio"] == 0.0

    def test_every_mutable_stats_dataclass_is_a_metric_source(self):
        """Every non-frozen ``*Stats`` dataclass in ``repro`` mixes in
        ``MetricSource``, so ``metrics_registry()`` can snapshot and reset
        it (a frozen one is a summary, not a set of counters)."""
        found = set()
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            found.update(
                value
                for value in vars(module).values()
                if isinstance(value, type)
                and value.__name__.endswith("Stats")
                and dataclasses.is_dataclass(value)
                and not value.__dataclass_params__.frozen
            )
        layers = {"VfsStats", "CacheStats", "FileSystemStats", "JournalStats"}
        layers |= {"BlockDeviceStats", "DeviceStats", "AllocatorStats"}
        assert layers <= {cls.__name__ for cls in found}
        assert sorted(cls.__qualname__ for cls in found if not issubclass(cls, MetricSource)) == []

    def test_registry_rejects_duplicates_and_bad_sources(self):
        registry = MetricsRegistry()
        stats = Attribution()  # has no snapshot/reset
        with pytest.raises(TypeError):
            registry.register("bad", stats)

        @_simple_source
        class Good:
            pass

        good = Good()
        registry.register("good", good)
        with pytest.raises(ValueError):
            registry.register("good", good)


#: Whether each registered file system mounts a journal (or a log).  Stated
#: here rather than read from a stack, so a new file system needs an entry.
JOURNALLED = {"ext2": False, "ext3": True, "ext4": True, "xfs": True}


class TestRegistryHooks:
    """Every registered stack honours the hooks wired without checking.

    ``attach_tracer`` sets the device model's ``component_trace_enabled``
    and ``last_components`` and reads the journal's geometry;
    ``metrics_registry()`` reads each layer's ``stats``.  A model or journal
    that misses one fails only on the path that uses it, so every
    ``FS_REGISTRY`` x ``DEVICE_REGISTRY`` pair runs that path here.
    """

    @pytest.mark.parametrize("device_kind", sorted(DEVICE_REGISTRY))
    @pytest.mark.parametrize("fs_type", sorted(FS_REGISTRY))
    def test_traced_window_uses_every_hook(self, fs_type, device_kind):
        unit = golden_unit()
        testbed = replace(unit.testbed, device_kind=device_kind)
        stacks = []

        def build(fs_type, testbed, seed, cpu_speed_factor):
            stacks.append(
                build_stack(fs_type, testbed=testbed, seed=seed, cpu_speed_factor=cpu_speed_factor)
            )
            return stacks[-1]

        runs = [
            BenchmarkRunner(
                fs_type=fs_type,
                testbed=testbed,
                config=replace(unit.config, max_ops=300, trace=trace),
                stack_factory=build,
            ).run_once(unit.spec, unit.repetition)
            for trace in (False, True)
        ]
        untraced, traced = runs
        assert payloads_match(untraced, traced)
        assert_attribution_sums(traced)

        journalled = JOURNALLED[fs_type]
        layers = {"vfs", "cache", "fs", "block", "device"} | ({"journal"} if journalled else set())
        for stack in stacks:
            assert set(stack.metrics_registry()) == layers
        totals = traced.attribution["totals"]
        assert (totals.get("journal", 0.0) > 0) == journalled
        if device_kind == "hdd":
            assert totals.get("seek", 0.0) > 0


def _simple_source(cls):
    """Decorate a class with trivial snapshot/reset for registry tests."""
    cls.snapshot = lambda self: {}
    cls.reset = lambda self: None
    return cls
