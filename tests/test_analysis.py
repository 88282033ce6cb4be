"""Tests for regime labelling, transition analysis, fragility and comparison."""

import pytest

from repro.analysis.comparison import compare_repetition_sets
from repro.analysis.fragility import assess_repetitions, assess_sweep
from repro.analysis.regimes import (
    Regime,
    classify_repetitions,
    classify_run,
    classify_sweep,
    regime_ranges,
)
from repro.analysis.transition import TransitionRegion, find_transition, refine_transition
from repro.core.results import RepetitionSet
from tests.test_results_and_runner import make_run


def repetitions_at(throughput, hit_ratio, n=3, spread=0.01, latencies=None):
    repetitions = RepetitionSet(label=str(throughput))
    for i in range(n):
        repetitions.add(
            make_run(
                throughput * (1 + spread * i),
                repetition=i,
                hit_ratio=hit_ratio,
                latencies=latencies,
            )
        )
    return repetitions


def figure1_like_sweep():
    return {
        64.0: repetitions_at(9700.0, 1.0),
        256.0: repetitions_at(9650.0, 1.0),
        448.0: repetitions_at(1000.0, 0.9, spread=0.3),
        1024.0: repetitions_at(200.0, 0.4),
    }


class TestRegimes:
    def test_classify_run_by_hit_ratio(self):
        assert classify_run(make_run(hit_ratio=1.0)) is Regime.MEMORY_BOUND
        assert classify_run(make_run(hit_ratio=0.8)) is Regime.TRANSITION
        assert classify_run(make_run(hit_ratio=0.3)) is Regime.IO_BOUND

    def test_classify_repetitions_majority(self):
        assert classify_repetitions(repetitions_at(9000.0, 1.0)) is Regime.MEMORY_BOUND

    def test_disagreeing_repetitions_are_transition(self):
        repetitions = RepetitionSet("mixed")
        repetitions.add(make_run(9000.0, repetition=0, hit_ratio=1.0))
        repetitions.add(make_run(300.0, repetition=1, hit_ratio=0.4))
        assert classify_repetitions(repetitions) is Regime.TRANSITION

    def test_classify_sweep_and_ranges(self):
        sweep = figure1_like_sweep()
        labels = classify_sweep(sweep)
        assert labels[64.0] is Regime.MEMORY_BOUND
        assert labels[1024.0] is Regime.IO_BOUND
        ranges = regime_ranges(sweep)
        assert ranges[0][0] is Regime.MEMORY_BOUND
        assert ranges[-1][0] is Regime.IO_BOUND

    def test_empty_repetitions_rejected(self):
        with pytest.raises(ValueError):
            classify_repetitions(RepetitionSet("empty"))

    def test_regime_descriptions(self):
        for regime in Regime:
            assert regime.description


class TestTransition:
    def test_find_transition_locates_the_cliff(self):
        region = find_transition(figure1_like_sweep())
        assert region is not None
        assert region.parameter_low == 256.0
        assert region.parameter_high == 448.0
        assert region.drop_factor > 5

    def test_no_transition_in_flat_sweep(self):
        sweep = {float(value): repetitions_at(100.0, 1.0) for value in (1, 2, 3)}
        assert find_transition(sweep) is None

    def test_invalid_min_drop_factor(self):
        with pytest.raises(ValueError):
            find_transition(figure1_like_sweep(), min_drop_factor=1.0)

    def test_refine_transition_narrows_the_region(self):
        # Synthetic step function at parameter 300.
        def measure(parameter):
            throughput = 9000.0 if parameter < 300 else 500.0
            return repetitions_at(throughput, 1.0 if parameter < 300 else 0.4)

        region = TransitionRegion(256.0, 448.0, 9000.0, 500.0)
        refined, measurements = refine_transition(region, measure, target_width=16.0)
        assert refined.width <= 16.0
        assert refined.parameter_low <= 300 <= refined.parameter_high
        assert measurements > 0

    def test_refine_respects_measurement_budget(self):
        def measure(parameter):
            return repetitions_at(9000.0 if parameter < 300 else 500.0, 1.0)

        region = TransitionRegion(0.0, 10000.0, 9000.0, 500.0)
        _, measurements = refine_transition(region, measure, target_width=0.001, max_measurements=5)
        assert measurements == 5

    def test_transition_describe(self):
        region = TransitionRegion(100.0, 200.0, 1000.0, 100.0)
        text = region.describe("MB")
        assert "10.0x" in text and "MB" in text


class TestFragility:
    def test_clean_result_has_no_warnings(self):
        warnings = assess_repetitions(repetitions_at(9700.0, 1.0))
        assert warnings == []

    def test_high_rsd_flagged(self):
        repetitions = RepetitionSet("noisy")
        for i, throughput in enumerate([1000.0, 4000.0, 9000.0]):
            repetitions.add(make_run(throughput, repetition=i, hit_ratio=1.0))
        warnings = assess_repetitions(repetitions)
        assert any(w.kind == "run-to-run variation" and w.severity == "severe" for w in warnings)

    def test_regime_instability_flagged(self):
        repetitions = RepetitionSet("straddling")
        repetitions.add(make_run(9000.0, repetition=0, hit_ratio=1.0))
        repetitions.add(make_run(200.0, repetition=1, hit_ratio=0.4))
        warnings = assess_repetitions(repetitions)
        assert any(w.kind == "regime instability" for w in warnings)

    def test_bimodal_latency_flagged(self):
        bimodal = [4000.0] * 50 + [8_000_000.0] * 50
        warnings = assess_repetitions(repetitions_at(500.0, 0.8, latencies=bimodal))
        assert any(w.kind == "bi-modal latency" for w in warnings)

    def test_sweep_report_flags_cliff_and_dynamic_range(self):
        report = assess_sweep(figure1_like_sweep())
        assert not report.is_clean
        kinds = {w.kind for w in report.warnings}
        assert "performance cliff" in kinds
        assert "wide dynamic range" in kinds
        assert report.severe_count >= 1
        assert "SEVERE" in report.format()

    def test_clean_sweep_report(self):
        sweep = {float(value): repetitions_at(100.0, 1.0) for value in (1, 2)}
        report = assess_sweep(sweep)
        assert report.is_clean
        assert "No fragility indicators" in report.format()


class TestComparison:
    def test_overlapping_results_are_not_significant(self):
        a = repetitions_at(100.0, 1.0, spread=0.1)
        b = repetitions_at(102.0, 1.0, spread=0.1)
        verdict = compare_repetition_sets("ext2", a, "ext3", b)
        assert not verdict.significant
        assert verdict.winner is None
        assert "no demonstrated difference" in verdict.format()

    def test_clear_winner(self):
        a = repetitions_at(100.0, 1.0)
        b = repetitions_at(900.0, 1.0)
        verdict = compare_repetition_sets("ext2", a, "xfs", b)
        assert verdict.significant
        assert verdict.winner == "xfs"
        assert verdict.speedup > 5
        assert "faster" in verdict.format()
