"""Tests for the statistics helpers."""

import statistics

import pytest

from repro.core.stats import (
    BIMODALITY_THRESHOLD,
    bimodality_coefficient,
    bootstrap_ci,
    coefficient_of_variation,
    confidence_interval,
    detect_outliers_iqr,
    dynamic_range,
    fragility_index,
    overlapping_confidence_intervals,
    percentile,
    required_repetitions,
    speedup_with_uncertainty,
    summarize,
    welch_t_test,
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

    def test_bootstrap_interval_brackets_mean(self):
        values = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0]
        low, high = bootstrap_ci(values, resamples=500, seed=1)
        assert low <= statistics.fmean(values) <= high

    def test_bootstrap_custom_statistic(self):
        values = [1.0, 2.0, 3.0, 4.0, 100.0]
        low, high = bootstrap_ci(values, stat=statistics.median, resamples=300, seed=2)
        assert low <= 4.0 and high >= 2.0

    def test_bootstrap_invalid(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], resamples=10)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], resamples=0)

    def test_overlap_detection(self):
        a = [100.0, 101.0, 99.0, 100.5]
        b = [100.2, 101.2, 99.2, 100.7]
        far = [500.0, 501.0, 499.0, 500.5]
        assert overlapping_confidence_intervals(a, b)
        assert not overlapping_confidence_intervals(a, far)


class TestDescriptiveHelpers:
    def test_coefficient_of_variation(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0
        assert coefficient_of_variation([10.0]) == 0.0
        assert coefficient_of_variation([10.0, 20.0]) > 0.0

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100
        with pytest.raises(ValueError):
            percentile(values, 150)

    def test_outlier_detection(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 300.0]
        outliers = detect_outliers_iqr(values)
        assert outliers == [6]

    def test_outlier_detection_small_samples(self):
        assert detect_outliers_iqr([1.0, 2.0]) == []


class TestBimodality:
    def test_unimodal_sample_below_threshold(self):
        values = [100.0 + (i % 7) for i in range(200)]
        assert bimodality_coefficient(values) < BIMODALITY_THRESHOLD + 0.15

    def test_strongly_bimodal_sample_above_threshold(self):
        values = [10.0] * 100 + [1000.0] * 100
        assert bimodality_coefficient(values) > BIMODALITY_THRESHOLD

    def test_tiny_or_constant_samples(self):
        assert bimodality_coefficient([1.0, 2.0]) == 0.0
        assert bimodality_coefficient([5.0] * 50) == 0.0


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


class TestRequiredRepetitions:
    def test_low_variance_needs_few_repetitions(self):
        assert required_repetitions([100.0, 100.5, 99.5], target_relative_ci=0.05) <= 3

    def test_high_variance_needs_more_repetitions(self):
        noisy = [100.0, 150.0, 60.0, 130.0]
        stable = [100.0, 101.0, 99.0, 100.5]
        assert required_repetitions(noisy) > required_repetitions(stable)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            required_repetitions([1.0])
        with pytest.raises(ValueError):
            required_repetitions([1.0, 2.0], target_relative_ci=0.0)


class TestComparisons:
    def test_welch_t_test_detects_difference(self):
        a = [100.0, 101.0, 99.0, 100.0, 100.0]
        b = [200.0, 201.0, 199.0, 200.0, 200.0]
        t, p = welch_t_test(a, b)
        assert abs(t) > 10
        assert p < 0.001

    def test_welch_t_test_no_difference(self):
        a = [100.0, 105.0, 95.0, 102.0]
        b = [101.0, 104.0, 96.0, 103.0]
        _, p = welch_t_test(a, b)
        assert p > 0.05

    def test_welch_identical_constant_samples(self):
        t, p = welch_t_test([5.0, 5.0], [5.0, 5.0])
        assert t == 0.0 and p == 1.0

    def test_welch_requires_two_samples_each(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])

    def test_speedup_with_uncertainty(self):
        baseline = [100.0, 102.0, 98.0]
        candidate = [200.0, 204.0, 196.0]
        point, low, high = speedup_with_uncertainty(baseline, candidate, resamples=300, seed=3)
        assert point == pytest.approx(2.0, rel=0.05)
        assert low <= point <= high

    def test_speedup_invalid(self):
        with pytest.raises(ValueError):
            speedup_with_uncertainty([], [1.0])
