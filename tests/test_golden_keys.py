"""Golden cache keys: every registry workload on every file system and
device, and one key per input the canonical form treats on its own.

A cache key is a promise about identity.  A key that changes orphans every
entry stored under it; two inputs sharing a key serve one measurement for
the other.  The four ``GOLDEN_KEY_*`` in ``test_concurrency.py`` pin the
default config on the paper's testbed; this matrix pins the rest of
:func:`~repro.core.parallel._canonical`'s branches -- dataclasses,
string-valued enums, plain objects, mixed-type dict keys, tuples -- through
real specs, testbeds and configs.  A change meant to make keys cheaper must
leave every value here unchanged, and so must the ``PYTHONHASHSEED`` a
process happens to start with.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import InitVar, dataclass, replace
from typing import ClassVar

from repro.core.experiment import Experiment
from repro.core.parallel import WorkUnit, _canonical, cache_key
from repro.core.runner import BenchmarkConfig, EnvironmentNoise, WarmupMode
from repro.storage.cache import CachePolicy
from repro.storage.config import scaled_testbed
from repro.workloads.randomdist import LogNormalSizes
from repro.workloads.registry import WORKLOAD_REGISTRY
from repro.workloads.spec import FileSelector

TESTBED = scaled_testbed(0.0625)
CONFIG = BenchmarkConfig(duration_s=2.0, repetitions=1, seed=42)
FILE_SYSTEMS = ("ext2", "ext3", "ext4", "xfs")
DEVICES = ("hdd", "ssd-ftl-steady")
#: Registry order at the time of pinning; a new workload needs a new pin.
WORKLOADS = (
    "random-read-cached", "random-read-ondisk", "cache-warmup", "sequential-read",
    "sequential-write", "random-write", "append-fsync", "create-delete", "stat-scan",
    "metadata-mix", "postmark", "webserver", "fileserver", "varmail", "oltp",
)

# Computed before the key scan reused canonical specs and testbeds.
#: SHA-256 over the newline-joined keys of every workload, in registry
#: order, for one (file system, device) pair.
GOLDEN_PAIR_SHA256 = {
    "ext2/hdd": "8b5d7eeed1b0cb8b876f99274bca178e1e21730f59265020c73d879dc33df954",
    "ext2/ssd-ftl-steady": "abe1e01baf425085d186c4897bafa76d6b902305e9a1511fa1098952704816e9",
    "ext3/hdd": "8d9dd82d9eacbe02fc06f7afc0e760ca0780a68c09f53942c99de4f18004b03f",
    "ext3/ssd-ftl-steady": "39c9f17164a32af3296bd20b9a6df300c109d259cc58132d98cc27fe40f97dbc",
    "ext4/hdd": "c0f9c8799cf8a2996495a6936007340b1f78f4ef1fc59dbdacd02eaeea855032",
    "ext4/ssd-ftl-steady": "c161fd54d6a446e78a47dadffc22002213f95639beea6cb849a00aae7d7f1f54",
    "xfs/hdd": "76854a3d1e88a12a86c92f492b4fb8c02d0f82c6027fe33aa2d870ad72488139",
    "xfs/ssd-ftl-steady": "106a5834e964f9f506933696099dea853c3c615b9297b4d26738052a14391ac0",
}

#: ext4/postmark on ``TESTBED`` under ``CONFIG``, one input changed each.
GOLDEN_VARIANT_KEYS = {
    "base": "f6ff2517eaf90542a6540a5f169046cf669e9c5db0880082bd8d37783e618b6b",
    "clients-4": "cd1699939dc968ff533247a9a0c52e13016b19eb0bb2676e0460648af2c943d6",
    "warmup-none": "6e013731d0f4a96bb92db0202c36907dd010d69a732b45e5ba9d6e0cb63e38d0",
    "histogram-interval": "3147655c37859ef8acf745b065b191fd31553356c64773dce2533a98fa8d1b30",
    "noise-off": "6dfe393d7227655d85ad0336899c5bd11f1d6d45525e85e8e6907af6ab1d13f4",
    "snapshot": "aae9520e9e18c7f94d9ce967ecbacddf867ac79377cea0941eb9875ec2f64a86",
    "cache-mb-axis": "41f9ec090865fcf37dd285270d3857928f328e2894c69123a0d8d2d66587a25a",
    "scheduler-axis": "f1dfc3cbf44d09d73b0be90cd852cdd722b4cb8a3caf7dc69dfb06c70b5b2eab",
    "cache-policy-arc": "995f90e0d93c40461779034a0bdcd767d5aa547d310f8eb5592ef14af37ca544",
    "testbed-none": "33e1f0dcae865c045f5432450ca5594879d7d8f30a785a0b18c792522d9aa2d5",
}

SNAPSHOT_FINGERPRINT = hashlib.sha256(b"aged ext4 snapshot").hexdigest()


def pair_units(fs: str, device: str):
    """One unit per registry workload; the pair's units share one testbed."""
    testbed = replace(TESTBED, device_kind=device)
    return [
        WorkUnit(fs, WORKLOAD_REGISTRY[name](TESTBED), CONFIG, testbed=testbed)
        for name in WORKLOADS
    ]


def pair_digest(keys) -> str:
    return hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()


def pair_digests():
    """``"fs/device" -> digest`` over fresh :func:`cache_key` calls."""
    return {
        f"{fs}/{device}": pair_digest(
            cache_key(u.fs_type, u.spec, u.config, u.seed, u.testbed)
            for u in pair_units(fs, device)
        )
        for fs in FILE_SYSTEMS
        for device in DEVICES
    }


def matrix_digest(digests) -> str:
    """One SHA-256 over a whole pair-digest matrix."""
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode("utf-8")).hexdigest()


def _key(config=CONFIG, testbed=TESTBED, snapshot_fingerprint=None) -> str:
    spec = WORKLOAD_REGISTRY["postmark"](TESTBED)
    return cache_key("ext4", spec, config, CONFIG.seed, testbed, snapshot_fingerprint)


def _axis_key(axis: str, value) -> str:
    """Key of the one unit of an ext4/postmark grid cell with one more axis."""
    grid = {"fs": ["ext4"], "workload": ["postmark"], axis: [value]}
    (unit,) = Experiment(grid, config=CONFIG, testbed=TESTBED).work_units()
    return unit.key()


def variant_keys():
    return {
        "base": _key(),
        "clients-4": _key(config=replace(CONFIG, clients=4)),
        "warmup-none": _key(config=replace(CONFIG, warmup_mode=WarmupMode.NONE)),
        "histogram-interval": _key(config=replace(CONFIG, histogram_interval_s=0.5)),
        "noise-off": _key(config=replace(CONFIG, noise=EnvironmentNoise(enabled=False))),
        "snapshot": _key(snapshot_fingerprint=SNAPSHOT_FINGERPRINT),
        "cache-mb-axis": _axis_key("cache_mb", 8),
        "scheduler-axis": _axis_key("scheduler", "deadline"),
        "cache-policy-arc": _key(testbed=TESTBED.with_cache_policy(CachePolicy.ARC)),
        "testbed-none": _key(testbed=None),
    }


class TestKeyMatrix:
    def test_matrix_covers_the_registry(self):
        assert tuple(WORKLOAD_REGISTRY) == WORKLOADS

    def test_every_pair_is_pinned(self):
        assert pair_digests() == GOLDEN_PAIR_SHA256

    def test_a_run_units_scan_computes_the_pinned_keys(self, scan_keys):
        scanned = {
            f"{fs}/{device}": pair_digest(scan_keys(pair_units(fs, device)))
            for fs in FILE_SYSTEMS
            for device in DEVICES
        }
        assert scanned == GOLDEN_PAIR_SHA256


class TestVariantKeys:
    def test_every_variant_is_pinned(self):
        assert variant_keys() == GOLDEN_VARIANT_KEYS

    def test_variants_are_distinct(self):
        assert len(set(GOLDEN_VARIANT_KEYS.values())) == len(GOLDEN_VARIANT_KEYS)

    def test_trace_shares_the_untraced_key(self):
        assert _key(config=replace(CONFIG, trace=True)) == GOLDEN_VARIANT_KEYS["base"]


@dataclass
class _Scaled:
    """A dataclass with pseudo-fields, which are not part of its form."""

    unit: ClassVar[int] = 4096
    blocks: int = 1
    scale: InitVar[int] = 2

    def __post_init__(self, scale: int) -> None:
        self.blocks *= scale


@dataclass
class _Shape:
    depth: int = 1


@dataclass
class _WideShape(_Shape):
    width: int = 2


class TestCanonicalForm:
    def test_plain_object_size_distribution(self):
        assert _canonical(LogNormalSizes(16384, sigma=1.5)) == {
            "__kind__": "LogNormalSizes",
            "_mu": math.log(16384),
            "high": 2 ** 40,
            "low": 1,
            "median": 16384,
            "sigma": 1.5,
        }

    def test_dict_with_mixed_key_types(self):
        assert _canonical({2: "b", "2": 2.5, (1, "x"): [FileSelector.SAME, None]}) == {
            "int:2": "b",
            "str:'2'": 2.5,
            "tuple:(1, 'x')": ["same", None],
        }

    def test_tuple(self):
        assert _canonical((1, "a", 2.5, None, True, (3,))) == [1, "a", 2.5, None, True, [3]]

    def test_string_valued_enum(self):
        canonical = _canonical(WarmupMode.NONE)
        assert canonical == "none" and type(canonical) is str

    def test_classvar_and_initvar_are_not_fields(self):
        assert _canonical(_Scaled(blocks=3)) == {"__kind__": "_Scaled", "blocks": 6}

    def test_subclass_that_adds_a_field_has_its_own_fields(self):
        assert _canonical(_Shape()) == {"__kind__": "_Shape", "depth": 1}
        assert _canonical(_WideShape()) == {"__kind__": "_WideShape", "depth": 1, "width": 2}
        assert _canonical(_Shape(depth=3)) == {"__kind__": "_Shape", "depth": 3}


# The script a fresh interpreter runs: the matrix digest, then the payload
# hash of the golden matrix's ext4/postmark/hdd cell (600 ops, noise off).
_HASHSEED_SCRIPT = """
from test_golden_keys import matrix_digest, pair_digests
from test_golden_matrix import TESTBED, _sha256
print(matrix_digest(pair_digests()))
print(_sha256("ext4", "postmark", TESTBED))
"""


def test_keys_and_payloads_do_not_depend_on_pythonhashseed():
    from test_golden_matrix import GOLDEN_PAYLOAD_SHA256

    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    path = os.pathsep.join([src_dir, tests_dir])
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1", "random")
    ]
    expected = [matrix_digest(GOLDEN_PAIR_SHA256), GOLDEN_PAYLOAD_SHA256["ext4/postmark/hdd"]]
    for process in processes:
        out, err = process.communicate(timeout=60)
        assert process.returncode == 0, err
        assert out.split() == expected
