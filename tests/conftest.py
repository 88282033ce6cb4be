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
from repro.fs.stack import build_stack
from repro.storage.config import paper_testbed, scaled_testbed

MiB = 1024 * 1024


@pytest.fixture
def rng():
    """A deterministic random source for model-level tests."""
    return random.Random(1234)


@pytest.fixture
def tiny_testbed():
    """A 1/16-scale machine (32 MiB RAM, ~25.6 MiB page cache)."""
    return scaled_testbed(1.0 / 16.0)


@pytest.fixture
def small_testbed():
    """A 1/8-scale machine (64 MiB RAM, ~51 MiB page cache)."""
    return scaled_testbed(1.0 / 8.0)


@pytest.fixture
def full_testbed():
    """The paper's 512 MiB machine."""
    return paper_testbed()


@pytest.fixture
def ext2_stack(tiny_testbed):
    """An ext2 stack on the tiny testbed."""
    return build_stack("ext2", testbed=tiny_testbed, seed=7)


@pytest.fixture
def ext3_stack(tiny_testbed):
    """An ext3 stack on the tiny testbed."""
    return build_stack("ext3", testbed=tiny_testbed, seed=7)


@pytest.fixture
def xfs_stack(tiny_testbed):
    """An xfs stack on the tiny testbed."""
    return build_stack("xfs", testbed=tiny_testbed, seed=7)


@pytest.fixture
def quick_config():
    """A fast measurement protocol for runner-level tests."""
    return BenchmarkConfig(
        duration_s=1.0,
        repetitions=2,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=0.25,
        seed=11,
        noise=EnvironmentNoise(cache_noise_bytes=1 * MiB, cpu_noise_sigma=0.01),
    )


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
