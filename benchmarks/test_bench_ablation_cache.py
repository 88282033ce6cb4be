"""Ablation benchmark: how much of "file system performance" is the cache policy?

The page-cache eviction policy is a design choice of the simulated substrate
(``TestbedConfig.cache_policy``).  This ablation reruns a compressed Figure-1
sweep (a point below, at, and above the cache size) under LRU, CLOCK and ARC.
The headline numbers in the memory-bound and far-I/O-bound regimes barely
move, but throughput for working sets *near* the cache size depends
measurably on the policy -- another knob that published single-number
results silently bake in.
"""

from typing import Dict

import pytest

from benchmarks.conftest import run_once
from repro.core.results import RepetitionSet, mean_throughputs
from repro.core.runner import BenchmarkConfig, EnvironmentNoise, WarmupMode
from repro.core.stats import fragility_index
from repro.experiments.figure1 import measure_file_sizes
from repro.storage.cache import CachePolicy
from repro.storage.config import scaled_testbed

MiB = 1024 * 1024

#: 1/4-scale machine: the sweep stays cheap while crossing the cache boundary.
TESTBED = scaled_testbed(0.25)
SIZES_MB = (64, 100, 112, 160)


def sweep_with_policy(policy: CachePolicy) -> Dict[float, RepetitionSet]:
    config = BenchmarkConfig(
        duration_s=4.0,
        repetitions=3,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=1.0,
        seed=97,
        noise=EnvironmentNoise(enabled=False),
    )
    return measure_file_sizes(
        "ext2",
        [size_mb * MiB for size_mb in SIZES_MB],
        config,
        TESTBED.with_cache_policy(policy),
    )


@pytest.mark.parametrize("policy", [CachePolicy.LRU, CachePolicy.CLOCK, CachePolicy.ARC])
def test_bench_ablation_cache_policy(benchmark, policy):
    sweep = run_once(benchmark, sweep_with_policy, policy)
    points = mean_throughputs(sweep)
    means = {int(size // MiB): round(mean) for size, mean in points}
    benchmark.extra_info["policy"] = policy.value
    benchmark.extra_info["mean_ops_by_size_mb"] = str(means)
    benchmark.extra_info["fragility"] = round(fragility_index(points), 2)
    # The cliff must exist under every policy; its exact shape is the ablation.
    assert means[SIZES_MB[0]] > 5 * means[SIZES_MB[-1]]
