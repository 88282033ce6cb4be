"""Ablation benchmark: prefetching policy vs "on-disk" benchmark results.

Section 2 of the paper: "applications can rarely control how a file system
caches and prefetches data or meta-data, yet such behavior will affect
results dramatically".  This ablation measures the same cold-cache sequential
read workload with readahead disabled, at the Linux-like default, and with an
aggressive server profile, and the same cache-warm-up (Figure 2 style) run
with different per-miss cluster sizes.
"""

import pytest

from benchmarks.conftest import run_once
from repro.core.runner import BenchmarkConfig, BenchmarkRunner, EnvironmentNoise, WarmupMode
from repro.core.stats import summarize
from repro.fs.stack import build_stack
from repro.storage.config import scaled_testbed
from repro.storage.readahead import AGGRESSIVE_READAHEAD, DEFAULT_READAHEAD, NO_READAHEAD
from repro.workloads.micro import random_read_workload, sequential_read_workload

MiB = 1024 * 1024
TESTBED = scaled_testbed(0.25)

READAHEAD_POLICIES = {
    "none": NO_READAHEAD,
    "default": DEFAULT_READAHEAD,
    "aggressive": AGGRESSIVE_READAHEAD,
}


def sequential_read_throughput(policy_name: str) -> float:
    policy = READAHEAD_POLICIES[policy_name]

    def factory(fs_type, testbed, seed, cpu_speed_factor):
        return build_stack(
            fs_type=fs_type,
            testbed=testbed,
            seed=seed,
            cpu_speed_factor=cpu_speed_factor,
            readahead_policy=policy,
        )

    config = BenchmarkConfig(
        duration_s=6.0,
        repetitions=3,
        warmup_mode=WarmupMode.NONE,
        interval_s=2.0,
        seed=31,
        noise=EnvironmentNoise(enabled=False),
    )
    runner = BenchmarkRunner("ext2", testbed=TESTBED, config=config, stack_factory=factory)
    spec = sequential_read_workload(int(TESTBED.page_cache_bytes * 2), op_overhead_ns=20_000.0)
    runs = [runner.run_once(spec, repetition) for repetition in range(config.repetitions)]
    return summarize([run.throughput_ops_s for run in runs]).mean


@pytest.mark.parametrize("policy_name", list(READAHEAD_POLICIES))
def test_bench_ablation_sequential_readahead(benchmark, policy_name):
    throughput = run_once(benchmark, sequential_read_throughput, policy_name)
    benchmark.extra_info["readahead"] = policy_name
    benchmark.extra_info["sequential_read_ops_s"] = round(throughput)
    assert throughput > 0


def warmup_half_time(fs_type: str) -> float:
    """Simulated seconds until the cache hit ratio first exceeds 50%.

    The per-miss cluster size (8 KiB for the ext2 model, 16 KiB ext3,
    32 KiB xfs) is the knob; this is the mechanism behind the Figure 2
    separation.
    """
    stack = build_stack(fs_type, testbed=TESTBED, seed=77)
    from repro.workloads.spec import WorkloadEngine

    engine = WorkloadEngine(stack, random_read_workload(TESTBED.page_cache_bytes), seed=77)
    engine.setup()
    while stack.cache.stats.hit_ratio < 0.5 and stack.clock.now_s < 2000:
        engine.run(duration_s=5.0)
    return stack.clock.now_s


@pytest.mark.parametrize("fs_type", ["ext2", "ext3", "xfs"])
def test_bench_ablation_cluster_size_warmup(benchmark, fs_type):
    half_time = run_once(benchmark, warmup_half_time, fs_type)
    benchmark.extra_info["fs"] = fs_type
    benchmark.extra_info["seconds_to_50pct_hit_ratio"] = round(half_time, 1)
    assert half_time < 2000
