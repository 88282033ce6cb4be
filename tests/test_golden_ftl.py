"""Golden FTL state: the exact bytes of a preconditioned device and of a
stack snapshot taken on one after a short oltp window.

The payload matrix in ``test_golden_matrix.py`` pins what a run reports;
these two hashes pin the device state behind it.  ``export_state()`` is the
document that the ``ssd-ftl-steady`` memo restores into every steady stack,
and a snapshot fingerprint joins cache keys, so a change to how the FTL or
the page cache keeps its state in memory must leave both values unchanged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from repro.aging.snapshot import snapshot_stack
from repro.fs.stack import build_stack
from repro.storage.config import scaled_testbed
from repro.storage.flash import FlashTranslationLayer, default_flash_geometry, precondition_ssd
from repro.workloads.registry import WORKLOAD_REGISTRY
from repro.workloads.spec import WorkloadEngine

MiB = 1024 ** 2
GiB = 1024 ** 3

TESTBED = scaled_testbed(0.0625)
#: A 2 MiB cache, so the window evicts clean and dirty pages and the
#: writeback it forces runs the FTL's garbage collection.
STEADY_SMALL_CACHE = replace(
    TESTBED.with_ram(TESTBED.os_reserved_bytes + 2 * MiB), device_kind="ssd-ftl-steady"
)
#: ``ssd-ftl-steady``'s capacity on the 1/16- and 1/8-scale testbeds.
CAPACITY = 1 * GiB
OLTP_OPS = 2000

# Computed while the FTL kept its maps in dicts.
PRECONDITIONED_STATE_SHA256 = "2c2ff4472c3ea57d49bade05261427d04a59b35dd0e220315c0780f28709ae5b"
OLTP_SNAPSHOT_FINGERPRINT = "9da3f5ed1a8692eb3008cf0278f7ff3d415fd889acccec5be9e7933de33e69fb"


def _state_sha256(state) -> str:
    encoded = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def test_preconditioned_device_state_is_pinned():
    model = FlashTranslationLayer(default_flash_geometry(CAPACITY))
    precondition_ssd(model)
    state = model.export_state()
    assert _state_sha256(state) == PRECONDITIONED_STATE_SHA256
    twin = FlashTranslationLayer(default_flash_geometry(CAPACITY))
    twin.restore_state(state)
    assert _state_sha256(twin.export_state()) == PRECONDITIONED_STATE_SHA256


def test_oltp_window_snapshot_on_a_steady_device_is_pinned():
    stack = build_stack("ext4", testbed=STEADY_SMALL_CACHE, seed=7)
    engine = WorkloadEngine(stack, WORKLOAD_REGISTRY["oltp"](TESTBED), seed=11)
    assert engine.run(max_ops=OLTP_OPS) == OLTP_OPS
    assert stack.cache.stats.dirty_evictions > 0
    assert stack.device.model.stats.pages_moved > 0
    assert snapshot_stack(stack).fingerprint == OLTP_SNAPSHOT_FINGERPRINT
