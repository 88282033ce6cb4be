"""Golden payload matrix: the exact bytes of one short run per cell.

Each cell runs a fixed number of operations with environmental noise off and
pins the SHA-256 of :func:`~repro.core.persistence.canonical_run_payload`.
The single ext4/hdd payload pinned elsewhere (``GOLDEN_RUN_SHA256``) leaves
most of the simulator unpinned; these cells cover every file system's
allocator and write path, the FTL device, every page-cache eviction policy
on a cache small enough to evict, and a run restored from an aged snapshot.
A change meant to keep results byte-identical -- an index, a maintained
counter, a faster scan -- must leave every hash here unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.aging import AgingConfig, ChurnAger, save_snapshot, snapshot_stack
from repro.core.persistence import canonical_run_payload
from repro.core.runner import BenchmarkConfig, EnvironmentNoise, run_single_repetition
from repro.fs.stack import build_stack
from repro.storage.cache import CachePolicy
from repro.storage.config import scaled_testbed
from repro.workloads.registry import WORKLOAD_REGISTRY

MiB = 1024 * 1024

TESTBED = scaled_testbed(0.0625)
CONFIG = BenchmarkConfig(
    duration_s=0.0,
    max_ops=600,
    repetitions=1,
    noise=EnvironmentNoise(enabled=False),
)
FILE_SYSTEMS = ("ext2", "ext3", "ext4", "xfs")
WORKLOADS = ("postmark", "oltp", "varmail", "create-delete", "append-fsync", "random-read-cached")
#: postmark's ~4 MiB pool fits the default cache, where every policy gives
#: the same bytes; a 2 MiB cache evicts, so each policy's order shows.
SMALL_CACHE = TESTBED.with_ram(TESTBED.os_reserved_bytes + 2 * MiB)
POLICIES = (CachePolicy.LRU, CachePolicy.ARC, CachePolicy.TWO_Q, CachePolicy.CLOCK, CachePolicy.FIFO)
AGED_CELL = "ext2/postmark/hdd/aged"


def _cells():
    """``name -> (fs, workload, testbed)`` for every fresh-stack cell."""
    cells = {}
    for fs in FILE_SYSTEMS:
        for workload in WORKLOADS:
            cells[f"{fs}/{workload}/hdd"] = (fs, workload, TESTBED)
    steady = replace(TESTBED, device_kind="ssd-ftl-steady")
    for fs in ("ext4", "xfs"):
        for workload in ("postmark", "oltp"):
            cells[f"{fs}/{workload}/ssd-ftl-steady"] = (fs, workload, steady)
    for policy in POLICIES:
        cells[f"ext2/postmark/hdd/cache-2mib-{policy.value}"] = (
            "ext2", "postmark", SMALL_CACHE.with_cache_policy(policy),
        )
    return cells


CELLS = _cells()

# Computed before the hot-path indexes (per-inode page residency, the
# allocator free-block counter, bisected extent maps) replaced the scans.
GOLDEN_PAYLOAD_SHA256 = {
    "ext2/append-fsync/hdd": "0e9989d5c65430fbda09cf0fa3edc8638cfab2bfdfcbc714b7e56553392cd477",
    "ext2/create-delete/hdd": "9c82549a4fc1a12e75beb7de631f92d9ce0f3f3f0c6ff6c5d8fdcca1fd5758d8",
    "ext2/oltp/hdd": "feeeef11e7953508e6acff3848399aa74bdef036a6dc0cd35feb5cb801cf4171",
    "ext2/postmark/hdd": "443ef9b855d5a96e64230d9c2d5a0e6d33300578e1ddd2523034746e778f2b0a",
    "ext2/postmark/hdd/aged": "078306a994298ebea1459e7dab6833be5641a1128000b6f1b92134cd967493bd",
    "ext2/postmark/hdd/cache-2mib-2q": "d5084598024e1c5de5eb876049f00886084a09f60b2f35b4642d6de9c6fb443d",
    "ext2/postmark/hdd/cache-2mib-arc": "4e3822860b71aa03422214a41268e5c5c97f84bf9cec07d28e3188a9de4475d4",
    "ext2/postmark/hdd/cache-2mib-clock": "4c12979ae7719b56f4ebc03e5fc99f2bd2a04e007c3b7349a2dc815fa23777c5",
    "ext2/postmark/hdd/cache-2mib-fifo": "00c4b0ea4d9ffaadb733d6fed8fb1652d30196e3e63fab4b076d086e52265c7c",
    "ext2/postmark/hdd/cache-2mib-lru": "c953cc9549a80e5392e4db1dfead055bb010aeebc6111e1a1df386af54acdc05",
    "ext2/random-read-cached/hdd": "24316a786e3c89c6433ff25b97c881ba8538739737d65c0c29d88857c5b9f49c",
    "ext2/varmail/hdd": "6c02605ede8e462649b60c207f24e368a51bffc96b87451d447e3cc8504736a8",
    "ext3/append-fsync/hdd": "dd990a493f55b22755b8511181b4f2d7be514ce1d9699a17cdb4c45de928389d",
    "ext3/create-delete/hdd": "7a7e22b4330a1ad06211af8cec1e08f0db9a2ba710e6015c0993a446adef3ad5",
    "ext3/oltp/hdd": "e8b9362c32e2a38e09a50640ba22b6babe93838f8f32f53b3d27a7f9dc5e1797",
    "ext3/postmark/hdd": "0248ac6e95abf1d39dd2d33015125c3e1408470c8172c2d47f3b78dd2570aff8",
    "ext3/random-read-cached/hdd": "2cec883784fd93b08362df8f3c6f44824f7d1aba6cd1b0750912f1fdb31fd506",
    "ext3/varmail/hdd": "b87cc739a12eb20618eeb9fedafc0e3960451a8307b2eb80e5f00c06989b96d9",
    "ext4/append-fsync/hdd": "06075b4b586a3d3b755b7e31ca5f52cb86c00837705f83ff10a189eff4640141",
    "ext4/create-delete/hdd": "7c851ae42bd747c7416224b12e1211d2574d2eb2079d248254c0046fb84eada1",
    "ext4/oltp/hdd": "2a97324e63dc63420ec7e57c6ce1218f6736c04b30ecb207e79defff836c1a84",
    "ext4/oltp/ssd-ftl-steady": "464fe91a843728c06daf2fd69f3bd78244f9830252e8dd30fb5cb122a2f7e8a2",
    "ext4/postmark/hdd": "b9da17d0ee9d97e3738730889d907542e95b6467f568131bbd3e72134dacb2e9",
    "ext4/postmark/ssd-ftl-steady": "fbc28efac4c5c54349d632f26550c3593c5e6d015cdb4c53d7eb19bdf1e24968",
    "ext4/random-read-cached/hdd": "3ac476c80a872828c6dfefced059eb826ab00ad91c9564fa76a89d46a4cccbc7",
    "ext4/varmail/hdd": "e24323fc407ae36dd4cf6ba1707282d3339cb2846f0695d3a5744bc60d832a70",
    "xfs/append-fsync/hdd": "542ab6ec67374ed60d1c62e1a3d86db13fffe21fd8dee802888a7e6f88a8631e",
    "xfs/create-delete/hdd": "f2d083356ee073611eef06666dda6aa9289666de670daad2a68885176ef7a054",
    "xfs/oltp/hdd": "66e183ace19bb7367541d0d5437d65655346279bde0b1a79e73b682b5abd7d76",
    "xfs/oltp/ssd-ftl-steady": "b36e14ba584f47b878139ea76a34e6b8dec840a6cb06b660bb06163f462da119",
    "xfs/postmark/hdd": "d576eb8ea99c72141f791edc07f613ad4544f14926ae0fce529eb4e87840c1d1",
    "xfs/postmark/ssd-ftl-steady": "d4f2ccf9c5175c3a95afba434c903fac4002c68a21f99d6ae28bdbab65338383",
    "xfs/random-read-cached/hdd": "31fd39a9440cbb3a3f2bc5302149c9f8cca60b28c1b005ecc407c5fc2b36961b",
    "xfs/varmail/hdd": "2e69933c7d7923053cac422393b9168929b939c76012942320ed3e95ec07974b",
}


def _sha256(fs: str, workload: str, testbed, snapshot_path=None) -> str:
    run = run_single_repetition(
        fs,
        WORKLOAD_REGISTRY[workload](TESTBED),
        testbed=testbed,
        config=CONFIG,
        snapshot_path=snapshot_path,
    )
    assert run.operations == CONFIG.max_ops
    return hashlib.sha256(canonical_run_payload(run)).hexdigest()


@pytest.fixture(scope="module")
def aged_snapshot_path(tmp_path_factory):
    stack = build_stack("ext2", testbed=TESTBED, seed=7)
    ChurnAger(
        AgingConfig(
            free_space_target_bytes=64 * MiB,
            hole_bytes=256 * 1024,
            fill_file_bytes=2048 * MiB,
            churn_ops=50,
            seed=777,
        )
    ).age(stack)
    path = str(tmp_path_factory.mktemp("golden") / "aged-ext2.snapshot.json")
    save_snapshot(snapshot_stack(stack), path)
    return path


def test_every_cell_is_pinned():
    assert set(GOLDEN_PAYLOAD_SHA256) == set(CELLS) | {AGED_CELL}


def test_cache_policies_give_distinct_payloads():
    # Guards the choice of SMALL_CACHE: a cache that never evicts would pin
    # one payload five times and none of the policies' bookkeeping.
    pinned = {GOLDEN_PAYLOAD_SHA256[f"ext2/postmark/hdd/cache-2mib-{p.value}"] for p in POLICIES}
    assert len(pinned) == len(POLICIES)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_payload_is_byte_identical(cell):
    assert _sha256(*CELLS[cell]) == GOLDEN_PAYLOAD_SHA256[cell]


def test_aged_snapshot_payload_is_byte_identical(aged_snapshot_path):
    digest = _sha256("ext2", "postmark", TESTBED, snapshot_path=aged_snapshot_path)
    assert digest == GOLDEN_PAYLOAD_SHA256[AGED_CELL]
