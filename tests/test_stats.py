"""Tests for the statistics helpers."""

import statistics

import pytest

from repro.core.stats import (
    confidence_interval,
    dynamic_range,
    fragility_index,
    overlapping_confidence_intervals,
    percentile,
    summarize,
)


class TestSummarize:
    def test_basic_summary(self):
        summary = summarize([10.0, 12.0, 11.0, 13.0, 9.0])
        assert summary.n == 5
        assert summary.mean == pytest.approx(11.0)
        assert summary.minimum == 9.0
        assert summary.maximum == 13.0
        assert summary.median == 11.0
        assert summary.ci95_low < summary.mean < summary.ci95_high

    def test_single_value(self):
        summary = summarize([42.0])
        assert summary.stddev == 0.0
        assert summary.ci95_low == summary.ci95_high == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_relative_stddev_percent(self):
        summary = summarize([100.0, 110.0, 90.0])
        assert summary.relative_stddev_percent == pytest.approx(
            100.0 * statistics.stdev([100.0, 110.0, 90.0]) / 100.0
        )

    def test_format_contains_key_numbers(self):
        text = summarize([100.0, 105.0, 95.0]).format("ops/s")
        assert "ops/s" in text and "n=3" in text


class TestConfidenceIntervals:
    def test_interval_contains_true_mean_mostly(self):
        low, high = confidence_interval([10.0, 11.0, 9.0, 10.5, 9.5])
        assert low < 10.0 < high

    def test_more_samples_narrower_interval(self):
        wide = confidence_interval([10.0, 12.0, 8.0])
        narrow = confidence_interval([10.0, 12.0, 8.0] * 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], confidence=1.5)

    def test_overlap_detection(self):
        a = [100.0, 101.0, 99.0, 100.5]
        b = [100.2, 101.2, 99.2, 100.7]
        far = [500.0, 501.0, 499.0, 500.5]
        assert overlapping_confidence_intervals(a, b)
        assert not overlapping_confidence_intervals(a, far)


class TestDescriptiveHelpers:
    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100
        with pytest.raises(ValueError):
            percentile(values, 150)

class TestFragilityIndex:
    def test_flat_curve_has_low_fragility(self):
        points = [(i, 100.0 + i * 0.1) for i in range(10)]
        assert fragility_index(points) < 0.05

    def test_cliff_has_high_fragility(self):
        points = [(1, 9700.0), (2, 9600.0), (3, 1000.0), (4, 300.0)]
        assert fragility_index(points) > 0.85
        # The dynamic range ignores values that are not positive.
        assert dynamic_range([m for _, m in points] + [0.0, -5.0]) == 9700.0 / 300.0

    def test_unordered_input_is_sorted_first(self):
        points = [(3, 1000.0), (1, 9700.0), (2, 9600.0)]
        assert fragility_index(points) == fragility_index(sorted(points))

    def test_degenerate_inputs(self):
        assert fragility_index([]) == 0.0
        assert fragility_index([(1, 5.0)]) == 0.0
        assert dynamic_range([]) == 1.0
        assert dynamic_range([0.0, 5.0]) == 1.0
