"""Campaign telemetry: event log, phase profiler, progress, bench gate.

The heart of this file is the non-perturbation suite: wall-clock telemetry
and profiling observe the harness, never the simulation, so the golden
payload hash and the golden cache key -- pinned before telemetry existed --
must survive with a sink attached and the profiler armed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os

import pytest

from repro.cli import main
from repro.core.parallel import ParallelExecutor, ResultCache, WorkUnit
from repro.core.persistence import run_result_to_dict, save_run_result
from repro.core.runner import BenchmarkConfig, WarmupMode
from repro.obs import (
    EVENT_KINDS,
    BenchStats,
    PhaseProfiler,
    ProgressReporter,
    TelemetrySink,
    diff_benchmarks,
    dump_bench_json,
    hotspot_report,
    load_bench_json,
    load_events,
    payloads_match,
    render_report,
    timed_execute,
)
from repro.obs.benchjson import normalize
from repro.obs.profile import top_phases
from repro.obs.telemetry import TelemetryEvent, events_to_dicts
from repro.storage.config import scaled_testbed
from repro.workloads.registry import postmark_workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The pins of tests/test_obs.py and tests/test_concurrency.py, repeated here
# because wall-clock telemetry must never move them either.
GOLDEN_KEY_EXT4_POSTMARK = "e84a62e530984408d1f1a1e58160ca91292d5bcd0392fdbf0e652d2c5f14789f"
GOLDEN_RUN_SHA256 = "bfa10d8b6cb1e93e3e6f295f1fd5e3a6510048f5614aa9cce65a71a02f238140"


def golden_unit() -> WorkUnit:
    return WorkUnit(
        fs_type="ext4",
        spec=postmark_workload(file_count=120),
        config=BenchmarkConfig(duration_s=2.0, repetitions=1),
        testbed=scaled_testbed(0.0625),
    )


def quick_units(repetitions: int = 2, fs_type: str = "ext4") -> list:
    testbed = scaled_testbed(0.0625)
    spec = postmark_workload(file_count=60)
    config = BenchmarkConfig(
        duration_s=0.5,
        repetitions=repetitions,
        warmup_mode=WarmupMode.NONE,
    )
    return [
        WorkUnit(
            fs_type=fs_type,
            spec=spec,
            config=config,
            repetition=index,
            testbed=testbed,
            group=f"postmark@{fs_type}",
        )
        for index in range(repetitions)
    ]


def payload_sha256(run) -> str:
    buffer = io.StringIO()
    save_run_result(run, buffer)
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


# ---------------------------------------------------------- non-perturbation
class TestNonPerturbation:
    def test_timed_execute_preserves_golden_payload_and_key(self):
        """With the profiler armed, payload bytes and cache key are pinned."""
        unit = golden_unit()
        run, timing = timed_execute(unit)
        assert payload_sha256(run) == GOLDEN_RUN_SHA256
        from repro.core.parallel import cache_key

        assert (
            cache_key("ext4", postmark_workload(), BenchmarkConfig(), seed=42)
            == GOLDEN_KEY_EXT4_POSTMARK
        )
        # ...even though the timing side-channel carries the evidence:
        assert timing.wall_s > 0
        assert timing.phases
        assert timing.pid == os.getpid()

    def test_telemetry_fields_never_enter_the_payload(self):
        run, timing = timed_execute(golden_unit())
        payload = run_result_to_dict(run)
        for name in ("wall_s", "phases", "worker", "t_s", "kind"):
            assert name not in payload
        assert set(timing.phases) & {"stack-build", "setup", "measured-run"}

    def test_executor_results_identical_with_and_without_sink(self, tmp_path):
        units = quick_units()
        plain = ParallelExecutor(n_workers=1).run_units(units)
        sink = TelemetrySink(str(tmp_path / "telemetry.jsonl"))
        observed = ParallelExecutor(n_workers=1, telemetry=sink).run_units(units)
        sink.close()
        assert all(payloads_match(a, b) for a, b in zip(plain, observed))

    @pytest.mark.slow
    def test_serial_and_parallel_identical_under_telemetry(self, tmp_path):
        units = quick_units(repetitions=3)
        serial_sink = TelemetrySink(str(tmp_path / "serial.jsonl"))
        pool_sink = TelemetrySink(str(tmp_path / "pool.jsonl"))
        serial = ParallelExecutor(n_workers=1, telemetry=serial_sink).run_units(units)
        parallel = ParallelExecutor(n_workers=2, telemetry=pool_sink).run_units(units)
        serial_sink.close()
        pool_sink.close()
        assert [payload_sha256(run) for run in serial] == [
            payload_sha256(run) for run in parallel
        ]
        # Both sinks saw one queued + exec-start + exec-done per unit.
        for sink in (serial_sink, pool_sink):
            assert sink.counts["queued"] == 3
            assert sink.counts["exec-done"] == 3

    def test_cached_results_identical_with_and_without_sink(self, tmp_path):
        units = quick_units()
        reference_cache = ResultCache(str(tmp_path / "a"))
        reference = ParallelExecutor(n_workers=1, cache=reference_cache).run_units(units)
        sink = TelemetrySink(str(tmp_path / "telemetry.jsonl"))
        cache = ResultCache(str(tmp_path / "b"))
        executor = ParallelExecutor(n_workers=1, cache=cache, telemetry=sink)
        fresh = executor.run_units(units)
        hits = executor.run_units(units)
        sink.close()
        for runs in (fresh, hits):
            assert all(payloads_match(a, b) for a, b in zip(reference, runs))


# ------------------------------------------------------------ event lifecycle
class TestEventLifecycle:
    def test_every_unit_gets_queued_and_one_terminal_event(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        sink = TelemetrySink(path)
        cache = ResultCache(str(tmp_path / "cache"))
        executor = ParallelExecutor(n_workers=1, cache=cache, telemetry=sink)
        units = quick_units()
        executor.run_units(units)
        executor.run_units(units)
        sink.close()

        events = load_events(path)
        assert all(event["kind"] in EVENT_KINDS for event in events)
        kinds = [event["kind"] for event in events]
        assert kinds.count("queued") == 4
        assert kinds.count("exec-start") == 2
        assert kinds.count("exec-done") == 2
        assert kinds.count("cache-hit") == 2
        done = [event for event in events if event["kind"] == "exec-done"]
        for event in done:
            assert event["wall_s"] > 0
            assert event["worker"] == os.getpid()
            assert event["key"] == quick_units()[event["repetition"]].key()
            # The full pipeline is phased, parent-side serialization included.
            assert {"setup", "measured-run", "serialize"} <= set(event["phases"])

    def test_pack_hits_are_distinguished_from_loose_hits(self, tmp_path):
        from repro.store import pack_result_cache

        units = quick_units()
        loose_dir = str(tmp_path / "loose")
        ParallelExecutor(n_workers=1, cache=ResultCache(loose_dir)).run_units(units)
        pack_path = str(tmp_path / "campaign.frpack")
        pack_result_cache(loose_dir, pack_path)

        sink = TelemetrySink()
        cache = ResultCache(cache_dir=None, pack_paths=(pack_path,))
        ParallelExecutor(n_workers=1, cache=cache, telemetry=sink).run_units(units)
        assert sink.counts.get("pack-hit") == 2
        assert "cache-hit" not in sink.counts
        assert cache.stats.pack_hits == 2
        assert cache.stats.blocks_read > 0
        cache.close()

    def test_failed_unit_emits_terminal_event_then_raises(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        sink = TelemetrySink(path)
        executor = ParallelExecutor(n_workers=1, telemetry=sink)
        bad = quick_units()[:1]
        bad[0].fs_type = "no-such-fs"
        with pytest.raises(Exception):
            executor.run_units(bad)
        sink.close()
        events = load_events(path)
        assert [event["kind"] for event in events] == ["queued", "failed"]
        assert "no-such-fs" in events[1]["error"]

    def test_event_ring_is_bounded_but_jsonl_and_counts_are_complete(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        sink = TelemetrySink(path, capacity=4)
        for index in range(10):
            sink.emit(TelemetryEvent(kind="queued", repetition=index))
        sink.close()
        assert len(sink.events) == 4
        assert sink.events[0].repetition == 6  # oldest evicted
        assert sink.total_events == 10
        assert sink.counts == {"queued": 10}
        assert len(load_events(path)) == 10

    def test_sink_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TelemetrySink(capacity=0)

    def test_event_to_dict_omits_empty_fields(self):
        event = TelemetryEvent(kind="queued", group="g", fs="ext4")
        out = event.to_dict()
        for absent in ("key", "error", "phases", "wall_s", "worker"):
            assert absent not in out
        full = TelemetryEvent(
            kind="exec-done", key="k", wall_s=1.5, worker=7, phases={"setup": 1.0}
        ).to_dict()
        assert full["key"] == "k" and full["worker"] == 7


# ------------------------------------------------------------- phase profiler
class TestPhaseProfiler:
    def test_disabled_profiler_is_inert(self):
        from repro.obs import profile

        assert profile.active() is None
        with profile.phase("anything"):
            pass
        assert profile.active() is None

    def test_nested_brackets_account_self_time(self):
        from repro.obs import profile

        profiler = profile.enable()
        try:
            with profile.phase("outer"):
                with profile.phase("inner"):
                    sum(range(20000))
        finally:
            profile.disable()
        totals = profiler.totals()
        assert set(totals) == {"outer", "inner"}
        assert profiler.calls() == {"outer": 1, "inner": 1}
        # Self time, not inclusive time: outer excludes inner's elapsed.
        assert totals["outer"] >= 0.0
        assert totals["inner"] > 0.0

    def test_merge_accumulates(self):
        profiler = PhaseProfiler()
        profiler.merge({"setup": 1.0}, calls={"setup": 2})
        profiler.merge({"setup": 0.5, "warmup": 0.25})
        assert profiler.totals() == {"setup": 1.5, "warmup": 0.25}
        # A merge without counts charges one call per phase present.
        assert profiler.calls() == {"setup": 3, "warmup": 1}

    def test_top_phases_orders_by_self_time(self):
        phases = {"a": 1.0, "b": 3.0, "c": 2.0, "d": 0.5}
        assert top_phases(phases, top=3) == [("b", 3.0), ("c", 2.0), ("a", 1.0)]

    def test_hotspot_report_lists_shares(self):
        text = hotspot_report({"setup": 3.0, "measured-run": 1.0}, title="stages")
        assert text.startswith("stages")
        assert "75.0%" in text and "25.0%" in text
        assert "total" in text

    def test_hotspot_names_top3_phases_for_ssd_ftl_steady_cell(self):
        """The acceptance cell: a repetition on the steady-state FTL SSD."""
        from dataclasses import replace

        unit = quick_units()[0]
        unit.testbed = replace(scaled_testbed(0.0625), device_kind="ssd-ftl-steady")
        run, timing = timed_execute(unit)
        ranked = top_phases(timing.phases, top=3)
        assert len(ranked) == 3
        assert all(name in timing.phases for name, _ in ranked)
        text = hotspot_report(timing.phases, timing.calls, top=3)
        for name, _ in ranked:
            assert name in text


# ------------------------------------------------------------- live progress
class TestProgressReporter:
    def test_cell_lines_compose_with_unit_hook(self, tmp_path):
        from repro.core.experiment import Experiment, ParameterGrid

        lines = []
        sink = TelemetrySink(str(tmp_path / "telemetry.jsonl"))
        experiment = Experiment(
            grid=ParameterGrid.of(fs=("ext2",), workload=("random-read-cached",)),
            config=BenchmarkConfig(
                duration_s=0.5, repetitions=2, warmup_mode=WarmupMode.NONE
            ),
            testbed=scaled_testbed(0.0625),
            telemetry=sink,
        )
        reporter = ProgressReporter(
            total_units=2, total_cells=1, sink=sink, emit=lines.append
        )
        experiment.run(on_unit=reporter.unit_done, on_cell=reporter.cell_done)
        sink.close()
        assert reporter.units_done == 2
        assert len(lines) == 1
        assert lines[0].startswith("[1/1] random-read-cached@ext2:")
        assert "units 2/2" in lines[0]
        # With a sink the utilization/ETA figures come from exec-done events.
        assert sink.exec_wall_s > 0
        assert "util" in lines[0] and "eta" in lines[0]

    def test_status_without_sink_uses_record_wall(self):
        reporter = ProgressReporter(total_units=4, total_cells=2, emit=lambda _: None)
        reporter.unit_done(None, None, cached=True)
        reporter.unit_done(None, None, cached=False)
        reporter.record_wall(0.5)
        status = reporter.status()
        assert "units 2/4" in status
        assert "hits 1 (50%)" in status
        assert "util" in status and "eta" in status


# ---------------------------------------------------- callbacks + telemetry
class TestCallbackOrdering:
    def test_terminal_event_precedes_on_unit_and_on_cell(self, tmp_path):
        from repro.core.experiment import Experiment, ParameterGrid

        sink = TelemetrySink()
        experiment = Experiment(
            grid=ParameterGrid.of(fs=("ext2",), workload=("random-read-cached",)),
            config=BenchmarkConfig(
                duration_s=0.5, repetitions=2, warmup_mode=WarmupMode.NONE
            ),
            testbed=scaled_testbed(0.0625),
            telemetry=sink,
        )
        order = []

        def on_unit(unit, run, cached):
            # By the time the callback fires, this unit's terminal event is
            # already in the sink.
            settled = sink.counts.get("exec-done", 0) + sink.counts.get(
                "cache-hit", 0
            ) + sink.counts.get("pack-hit", 0)
            order.append(("unit", unit.repetition, settled))

        def on_cell(cell, repetitions):
            order.append(("cell", cell.label, len(repetitions)))

        experiment.run(on_unit=on_unit, on_cell=on_cell)
        assert [kind for kind, *_ in order] == ["unit", "unit", "cell"]
        # settled-event count at callback time covers the unit itself:
        assert [entry[2] for entry in order[:2]] == [1, 2]
        assert order[2] == ("cell", "random-read-cached@ext2", 2)

    def test_failed_unit_fires_no_callbacks_but_is_logged(self):
        sink = TelemetrySink()
        executor = ParallelExecutor(n_workers=1, telemetry=sink)
        bad = quick_units()[:1]
        bad[0].fs_type = "no-such-fs"
        seen = []
        with pytest.raises(Exception):
            executor.run_units(bad, on_result=lambda *args: seen.append(args))
        assert seen == []
        assert sink.counts.get("failed") == 1


# ------------------------------------------------------------------ reporting
class TestRenderReport:
    def run_campaign(self, tmp_path) -> str:
        path = str(tmp_path / "telemetry.jsonl")
        sink = TelemetrySink(path)
        cache = ResultCache(str(tmp_path / "cache"))
        executor = ParallelExecutor(n_workers=1, cache=cache, telemetry=sink)
        units = quick_units()
        executor.run_units(units)
        executor.run_units(units)
        sink.close()
        return path

    def test_report_renders_stage_breakdown_and_cache_rate(self, tmp_path):
        path = self.run_campaign(tmp_path)
        text = render_report(load_events(path))
        assert "campaign telemetry report" in text
        assert "4 queued, 2 executed, 2 cache hits, 0 failed" in text
        assert "cache efficiency: 2/4 (50%) -- 2 loose, 0 pack" in text
        assert "stage breakdown (wall-clock self time)" in text
        for phase in ("setup", "measured-run", "serialize"):
            assert phase in text
        assert "slowest cells" in text
        assert "postmark@ext4" in text
        assert "worker utilization" in text

    def test_report_accepts_live_sink_dicts(self):
        sink = TelemetrySink()
        ParallelExecutor(n_workers=1, telemetry=sink).run_units(quick_units(1))
        text = render_report(events_to_dicts(sink))
        assert "1 queued, 1 executed" in text

    def test_report_lists_failures(self):
        events = [
            {"kind": "queued", "group": "g", "t_s": 0.0},
            {"kind": "failed", "group": "g", "repetition": 0, "error": "boom", "t_s": 0.1},
        ]
        text = render_report(events)
        assert "failures" in text
        assert "boom" in text


# ------------------------------------------------------------ bench json/diff
class TestBenchJson:
    def test_normalized_round_trip(self, tmp_path):
        stats = {
            "test_bench_a": BenchStats(
                mean=1.0, min=0.9, max=1.1, stddev=0.05, median=1.0, rounds=3
            )
        }
        path = str(tmp_path / "bench.json")
        dump_bench_json(stats, path)
        assert load_bench_json(path) == stats
        with open(path) as handle:
            document = json.load(handle)
        assert document["schema"] == "fsbench-bench/1"
        assert normalize(document) == stats

    def test_loads_committed_raw_baselines(self):
        for name in ("BENCH_PR6.json", "BENCH_PR7.json", "BENCH_PR9.json"):
            stats = load_bench_json(os.path.join(REPO_ROOT, name))
            assert stats, name
            for bench in stats.values():
                assert bench.mean > 0
                assert bench.rounds >= 1

    def test_prefers_embedded_normalized_section(self, tmp_path):
        document = {
            "benchmarks": [
                {"name": "raw_one", "stats": {"mean": 9.0, "min": 9.0, "max": 9.0,
                                             "stddev": 0.0, "median": 9.0, "rounds": 1}}
            ],
            "normalized": {
                "schema": "fsbench-bench/1",
                "benchmarks": {"norm_one": {"mean": 1.0, "min": 1.0, "max": 1.0,
                                            "stddev": 0.0, "median": 1.0, "rounds": 1}},
            },
        }
        path = str(tmp_path / "bench.json")
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert list(load_bench_json(path)) == ["norm_one"]

    def test_rejects_non_bench_documents(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"something": 1}, handle)
        with pytest.raises(ValueError):
            load_bench_json(path)

    def test_conftest_hook_embeds_normalized_shape(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "bench_conftest", os.path.join(REPO_ROOT, "benchmarks", "conftest.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        output = {
            "benchmarks": [
                {"name": "b", "stats": {"mean": 2.0, "min": 2.0, "max": 2.0,
                                        "stddev": 0.0, "median": 2.0, "rounds": 1}}
            ]
        }
        module.pytest_benchmark_update_json(None, None, output)
        assert output["normalized"]["schema"] == "fsbench-bench/1"
        assert normalize(output["normalized"]) == normalize(output)


def _stats(mean: float) -> BenchStats:
    return BenchStats(mean=mean, min=mean, max=mean, stddev=0.0, median=mean, rounds=1)


class TestBenchDiff:
    def test_verdicts_and_exit_code(self):
        old = {"a": _stats(1.0), "b": _stats(1.0), "c": _stats(1.0), "gone": _stats(1.0)}
        new = {"a": _stats(2.0), "b": _stats(0.4), "c": _stats(1.1), "added": _stats(1.0)}
        diff = diff_benchmarks(old, new, threshold=0.5)
        verdicts = {delta.name: delta.verdict for delta in diff.deltas}
        assert verdicts == {"a": "REGRESSED", "b": "improved", "c": "ok"}
        assert diff.added == ["added"]
        assert diff.removed == ["gone"]
        assert diff.exit_code == 1
        text = diff.render()
        assert "REGRESSED" in text
        assert "+ added (new benchmark, not gated)" in text
        assert "- gone (no longer measured)" in text
        assert "1 regression(s) beyond threshold" in text

    def test_no_shared_benchmarks_is_not_a_regression(self):
        diff = diff_benchmarks({"a": _stats(1.0)}, {"b": _stats(1.0)})
        assert diff.exit_code == 0
        assert "no benchmarks in common" in diff.render()

    def test_zero_baseline_counts_as_regression(self):
        diff = diff_benchmarks({"a": _stats(0.0)}, {"a": _stats(1.0)})
        assert diff.deltas[0].ratio == float("inf")
        assert diff.exit_code == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            diff_benchmarks({}, {}, threshold=-0.1)


# ------------------------------------------------------------------ CLI verbs
class TestCli:
    def test_run_with_telemetry_then_report(self, tmp_path, capsys):
        telemetry = str(tmp_path / "telemetry.jsonl")
        status = main(
            [
                "run",
                "--axis", "fs=ext2",
                "--axis", "workload=random-read-cached",
                "--axis", "duration_s=0.5",
                "--axis", "repetitions=2",
                "--axis", "warmup_mode=none",
                "--scaled-testbed", "0.0625",
                "--telemetry", telemetry,
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "telemetry events ->" in out
        events = load_events(telemetry)
        assert {event["kind"] for event in events} == {
            "queued", "exec-start", "exec-done"
        }

        status = main(["report", telemetry])
        out = capsys.readouterr().out
        assert status == 0
        assert "campaign telemetry report" in out
        assert "stage breakdown" in out

    def test_report_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bench_diff_on_committed_baselines(self, capsys):
        # PR7 and PR9 measure disjoint benchmarks: reported, never gated.
        status = main(
            [
                "bench-diff",
                os.path.join(REPO_ROOT, "BENCH_PR7.json"),
                os.path.join(REPO_ROOT, "BENCH_PR9.json"),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "no benchmarks in common" in out
        assert "no regressions beyond threshold" in out

    def test_bench_diff_detects_regressions(self, tmp_path, capsys):
        old = str(tmp_path / "old.json")
        new = str(tmp_path / "new.json")
        dump_bench_json({"bench": _stats(1.0)}, old)
        dump_bench_json({"bench": _stats(3.0)}, new)
        assert main(["bench-diff", old, new]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        # A generous enough threshold passes the same pair.
        assert main(["bench-diff", old, new, "--threshold", "4.0"]) == 0
        capsys.readouterr()
        # --warn-only reports but exits 0.
        assert main(["bench-diff", old, new, "--warn-only"]) == 0
        assert "REGRESSED" in capsys.readouterr().out

    def test_bench_diff_unreadable_file_is_usage_error(self, tmp_path, capsys):
        assert main(["bench-diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
        assert "error" in capsys.readouterr().err
