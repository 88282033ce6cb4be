"""Tests for result persistence (JSON round-trips)."""

import io
import json

import pytest

from repro.core.persistence import (
    FORMAT_NAME,
    load_run_result,
    run_result_from_dict,
    run_result_to_dict,
    save_run_result,
)
from repro.core.runner import BenchmarkConfig, EnvironmentNoise, WarmupMode
from repro.experiments.figure1 import measure_file_sizes
from repro.storage.config import scaled_testbed
from tests.test_results_and_runner import make_run

MiB = 1024 * 1024


def small_run():
    return make_run(100.0, repetition=1, latencies=[1000.0, 2000.0, 3000.0])


class TestDictRoundTrips:
    def test_run_result_round_trip_preserves_scalars_and_histogram(self):
        original = make_run(123.0, repetition=2, latencies=[500.0, 900.0, 15_000.0])
        restored = run_result_from_dict(run_result_to_dict(original))
        assert restored.throughput_ops_s == original.throughput_ops_s
        assert restored.repetition == original.repetition
        assert restored.histogram.total == original.histogram.total
        assert restored.histogram.mean_ns() == pytest.approx(original.histogram.mean_ns())
        assert restored.mean_latency_ns == pytest.approx(original.mean_latency_ns)


class TestFileRoundTrips:
    def test_save_and_load_run_result_via_file_object(self):
        buffer = io.StringIO()
        save_run_result(small_run(), buffer)
        buffer.seek(0)
        document = json.loads(buffer.getvalue())
        assert document["format"] == FORMAT_NAME
        assert document["kind"] == "run_result"
        buffer.seek(0)
        restored = load_run_result(buffer)
        assert run_result_to_dict(restored) == run_result_to_dict(small_run())

    def test_wrong_kind_rejected(self):
        buffer = io.StringIO()
        save_run_result(small_run(), buffer)
        document = json.loads(buffer.getvalue())
        document["kind"] = "repetition_set"
        with pytest.raises(ValueError, match="run_result"):
            load_run_result(io.StringIO(json.dumps(document)))

    def test_wrong_format_rejected(self):
        buffer = io.StringIO(json.dumps({"format": "something-else", "data": {}}))
        with pytest.raises(ValueError):
            load_run_result(buffer)

    def test_newer_version_rejected(self):
        buffer = io.StringIO(
            json.dumps({"format": FORMAT_NAME, "version": 999, "kind": "run_result", "data": {}})
        )
        with pytest.raises(ValueError, match="newer"):
            load_run_result(buffer)


class TestEndToEndPersistence:
    def test_real_benchmark_result_survives_a_round_trip(self, tmp_path):
        """Measured repetitions can be archived and re-analysed identically."""
        config = BenchmarkConfig(
            duration_s=0.5,
            repetitions=2,
            warmup_mode=WarmupMode.PREWARM,
            interval_s=0.25,
            histogram_interval_s=0.25,
            collect_raw_latencies=True,
            noise=EnvironmentNoise(enabled=False),
        )
        sweep = measure_file_sizes("ext2", [2 * MiB], config, scaled_testbed(1.0 / 16.0))
        measured = sweep[2 * MiB]

        restored = []
        for run in measured:
            path = str(tmp_path / f"rep{run.repetition}.json")
            save_run_result(run, path)
            restored.append(load_run_result(path))

        assert [run.throughput_ops_s for run in restored] == measured.throughputs()
        original_run = measured.first()
        restored_run = restored[0]
        assert restored_run.operations == original_run.operations
        assert restored_run.timeline.throughputs() == original_run.timeline.throughputs()
        assert restored_run.histogram_timeline is not None
        assert len(restored_run.histogram_timeline) == len(original_run.histogram_timeline)
        assert restored_run.raw_latencies_ns == original_run.raw_latencies_ns
        assert restored_run.environment == original_run.environment
