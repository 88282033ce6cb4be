"""Tests for steady-state detection."""

import pytest

from repro.core.steady_state import SteadyStateDetector, detect_steady_state


def warmup_then_flat(warmup: int = 10, flat: int = 20) -> list:
    """A synthetic throughput curve: rising warm-up, then a stable plateau."""
    rising = [100.0 * (i + 1) for i in range(warmup)]
    plateau = [100.0 * warmup + (i % 3) for i in range(flat)]
    return rising + plateau


class TestDetectSteadyState:
    def test_detects_plateau_after_warmup(self):
        series = warmup_then_flat()
        index = detect_steady_state(series, window=5)
        assert index is not None
        assert index >= 8  # not during the steep rise

    def test_flat_series_is_steady_from_the_start(self):
        assert detect_steady_state([100.0] * 10, window=5) == 0

    def test_monotonically_rising_series_never_steady(self):
        series = [float(2 ** i) for i in range(12)]
        assert detect_steady_state(series, window=4) is None

    def test_too_short_series(self):
        assert detect_steady_state([1.0, 2.0], window=5) is None

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            detect_steady_state([1.0, 2.0, 3.0], window=1)

    def test_all_zero_series_is_steady(self):
        assert detect_steady_state([0.0] * 8, window=4) == 0


class TestIncrementalDetector:
    def test_becomes_steady_on_plateau(self):
        detector = SteadyStateDetector(window=5)
        for value in warmup_then_flat():
            detector.observe(value)
        assert detector.is_steady
        assert detector.steady_since is not None
        assert detector.warmup_intervals() == detector.steady_since

    def test_not_steady_during_rise(self):
        detector = SteadyStateDetector(window=5)
        for value in [100.0 * (i + 1) for i in range(8)]:
            assert not detector.observe(value)
        assert not detector.is_steady

    def test_observed_returns_history(self):
        detector = SteadyStateDetector(window=3)
        for value in [1.0, 2.0, 3.0]:
            detector.observe(value)
        assert detector.observed() == [1.0, 2.0, 3.0]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SteadyStateDetector(window=1)
