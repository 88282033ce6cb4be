"""Virtual clock used by the whole simulated stack.

All latencies produced by the storage substrate, the file systems and the
workload engine are expressed in nanoseconds of *simulated* time and charged
against a :class:`VirtualClock`.  Using a virtual clock rather than wall-clock
time is what makes the reproduction independent of Python interpreter
overhead (see docs/architecture.md, section 1, "The simulation stack").
"""

from __future__ import annotations

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


class VirtualClock:
    """A monotonically increasing simulated clock with nanosecond resolution.

    The clock only moves when a component explicitly charges time to it via
    :meth:`advance`.  It never reads the host's wall clock.

    Parameters
    ----------
    start_ns:
        Initial timestamp in nanoseconds.  Defaults to ``0``.
    """

    __slots__ = ("_now_ns",)

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise ValueError("start_ns must be non-negative")
        self._now_ns = float(start_ns)

    # ------------------------------------------------------------------ reads
    @property
    def now_ns(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now_ns

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self._now_ns / NS_PER_US

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now_ns / NS_PER_MS

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self._now_ns / NS_PER_SEC

    # ---------------------------------------------------------------- updates
    def advance(self, delta_ns: float) -> float:
        """Advance the clock by ``delta_ns`` nanoseconds and return the new time.

        Negative advances are rejected: simulated time is monotonic.
        """
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {delta_ns}")
        self._now_ns += delta_ns
        return self._now_ns

    def advance_s(self, delta_s: float) -> float:
        """Advance the clock by ``delta_s`` seconds and return the new time in ns."""
        return self.advance(delta_s * NS_PER_SEC)

    def reset(self, to_ns: float = 0.0) -> None:
        """Reset the clock to ``to_ns`` (used between benchmark repetitions)."""
        if to_ns < 0:
            raise ValueError("cannot reset clock to a negative time")
        self._now_ns = float(to_ns)

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now_ns / NS_PER_SEC:.6f}s)"


def ns_to_seconds(ns: float) -> float:
    """Convert nanoseconds to seconds."""
    return ns / NS_PER_SEC


def seconds_to_ns(seconds: float) -> float:
    """Convert seconds to nanoseconds."""
    return seconds * NS_PER_SEC


def ms_to_ns(ms: float) -> float:
    """Convert milliseconds to nanoseconds."""
    return ms * NS_PER_MS


def us_to_ns(us: float) -> float:
    """Convert microseconds to nanoseconds."""
    return us * NS_PER_US
