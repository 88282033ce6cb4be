"""Tests for the virtual clock."""

import pytest

from repro.storage.clock import NS_PER_MS, NS_PER_SEC, NS_PER_US, VirtualClock


class TestVirtualClock:
    def test_starts_at_zero_by_default(self):
        assert VirtualClock().now_ns == 0.0

    def test_starts_at_given_time(self):
        assert VirtualClock(start_ns=500).now_ns == 500.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(start_ns=-1)

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(100)
        clock.advance(250)
        assert clock.now_ns == 350.0

    def test_advance_returns_new_time(self):
        clock = VirtualClock()
        assert clock.advance(42) == 42.0

    def test_negative_advance_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_zero_advance_allowed(self):
        clock = VirtualClock()
        clock.advance(0)
        assert clock.now_ns == 0.0

    def test_advance_seconds(self):
        clock = VirtualClock()
        clock.advance_s(1.5)
        assert clock.now_ns == pytest.approx(1.5 * NS_PER_SEC)

    def test_unit_properties_consistent(self):
        clock = VirtualClock()
        clock.advance(2_500_000_000)
        assert clock.now_s == pytest.approx(2.5)
        assert clock.now_ms == pytest.approx(2500.0)
        assert clock.now_us == pytest.approx(2_500_000.0)

    def test_reset(self):
        clock = VirtualClock()
        clock.advance(1000)
        clock.reset()
        assert clock.now_ns == 0.0

    def test_reset_to_value(self):
        clock = VirtualClock()
        clock.advance(1000)
        clock.reset(to_ns=250)
        assert clock.now_ns == 250.0

    def test_reset_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().reset(-5)


class TestConversions:
    def test_constants_consistent(self):
        assert NS_PER_SEC == 1000 * NS_PER_MS == 1_000_000 * NS_PER_US
