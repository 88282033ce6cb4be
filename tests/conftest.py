"""Shared fixtures.

Workload-running tests use aggressively shrunken testbeds so the whole suite
stays fast: shrinking RAM and file sizes together preserves every behaviour
the tests assert on (cache-boundary cliffs, warm-up ordering, bi-modality)
while cutting simulated operation counts by an order of magnitude.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core.parallel import ParallelExecutor
from repro.core.runner import BenchmarkConfig, EnvironmentNoise, WarmupMode
from repro.storage.config import scaled_testbed


@pytest.fixture
def rng():
    """A deterministic random source for model-level tests."""
    return random.Random(1234)


@pytest.fixture
def tiny_testbed():
    """A 1/16-scale machine (32 MiB RAM, ~25.6 MiB page cache)."""
    return scaled_testbed(1.0 / 16.0)


@pytest.fixture
def no_noise_config():
    """A fast protocol with environment noise disabled (deterministic)."""
    return BenchmarkConfig(
        duration_s=1.0,
        repetitions=2,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=0.25,
        seed=11,
        noise=EnvironmentNoise(enabled=False),
    )


@pytest.fixture
def scan_keys():
    """``scan_keys(units, executor=None)``: the keys a ``run_units`` scan
    computes, in unit order.

    The executor's cache is replaced by one whose every lookup hits, so the
    scan executes nothing and records exactly the keys it asked for.
    """

    def scan(units, executor=None):
        keys = []

        class EveryLookupHits:
            def lookup(self, key):
                keys.append(key)
                return SimpleNamespace(), "loose"

        executor = executor or ParallelExecutor()
        executor.cache = EveryLookupHits()
        executor.run_units(units)
        return keys

    return scan
