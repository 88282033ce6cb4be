"""Random distributions used by workload generators.

File sizes in real workloads are rarely uniform; these small distribution
classes let workload specifications say so explicitly.  Every distribution
draws from a caller-supplied ``random.Random`` so whole runs are
reproducible from one seed.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod


class SizeDistribution(ABC):
    """A distribution over non-negative integer sizes (bytes)."""

    @abstractmethod
    def sample(self, rng: random.Random) -> int:
        """Draw one size."""

    @abstractmethod
    def mean(self) -> float:
        """Expected size."""


class FixedValue(SizeDistribution):
    """Always the same size."""

    def __init__(self, value: int) -> None:
        if value < 0:
            raise ValueError("value must be non-negative")
        self.value = int(value)

    def sample(self, rng: random.Random) -> int:
        return self.value

    def mean(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"FixedValue({self.value})"


class UniformSizes(SizeDistribution):
    """Uniform sizes in ``[low, high]``, rounded to ``granularity``."""

    def __init__(self, low: int, high: int, granularity: int = 1) -> None:
        if low < 0 or high < low or granularity <= 0:
            raise ValueError("require 0 <= low <= high and granularity > 0")
        self.low = int(low)
        self.high = int(high)
        self.granularity = int(granularity)

    def sample(self, rng: random.Random) -> int:
        value = rng.randint(self.low, self.high)
        return max(self.granularity, (value // self.granularity) * self.granularity)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"UniformSizes([{self.low}, {self.high}])"


class LogNormalSizes(SizeDistribution):
    """Log-normal sizes (most files small, a few large), clamped to a range."""

    def __init__(self, median: int, sigma: float = 1.0, low: int = 1, high: int = 2 ** 40) -> None:
        if median <= 0 or sigma < 0 or low <= 0 or high < low:
            raise ValueError("invalid log-normal size parameters")
        self.median = int(median)
        self.sigma = float(sigma)
        self.low = int(low)
        self.high = int(high)
        self._mu = math.log(median)

    def sample(self, rng: random.Random) -> int:
        value = int(rng.lognormvariate(self._mu, self.sigma))
        return max(self.low, min(self.high, value))

    def mean(self) -> float:
        return self.median * math.exp(self.sigma ** 2 / 2.0)

    def __repr__(self) -> str:
        return f"LogNormalSizes(median={self.median}, sigma={self.sigma})"
