"""Deterministic state snapshots of a simulated storage stack.

The paper's core complaint is that published results never describe the
benchmark's *state* -- cache contents, on-disk layout, device fullness -- so
nobody can reproduce them.  A :class:`StateSnapshot` is that description made
executable: it serialises the full state of a :class:`~repro.fs.stack.StorageStack`
(namespace, inode extent maps, allocator free maps, journal position,
delayed-allocation reservations, page cache contents, virtual clock) to a
plain JSON document that can be archived next to a paper, diffed, and
restored anywhere.  Every registered file system -- ext2, ext3, ext4, xfs --
round-trips: the delalloc and journal sections cover the ext4/xfs write
paths, and the allocator section covers all three allocator families.

Determinism is the contract: ``restore_stack`` is a pure function of the
snapshot and its arguments, so two restores -- in the same process, in
different processes, on different machines -- produce stacks that behave
**bit-identically** under any subsequent workload.  The ``fingerprint``
(SHA-256 over the canonical payload) names the state, and joins the parallel
executor's cache key so cached results are tied to the exact aged state they
were measured on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, TextIO, Union

from repro.fs.base import DirectoryEntry, Extent, Inode, InodeType
from repro.fs.journal import Journal
from repro.fs.stack import StorageStack, build_stack
from repro.storage.cache import CachePolicy
from repro.storage.config import CpuCosts, TestbedConfig
from repro.storage.disk import DiskGeometry

FORMAT_NAME = "fsbench-rocket-snapshot"
FORMAT_VERSION = 1


# ------------------------------------------------------------------ testbed
def _testbed_to_dict(testbed: TestbedConfig) -> Dict:
    return {
        "name": testbed.name,
        "ram_bytes": testbed.ram_bytes,
        "os_reserved_bytes": testbed.os_reserved_bytes,
        "page_size": testbed.page_size,
        "device_kind": testbed.device_kind,
        "disk_geometry": dataclasses.asdict(testbed.disk_geometry),
        "cache_policy": testbed.cache_policy.value,
        "io_scheduler": testbed.io_scheduler,
        "cpu": dataclasses.asdict(testbed.cpu),
    }


def _testbed_from_dict(payload: Dict) -> TestbedConfig:
    return TestbedConfig(
        name=payload["name"],
        ram_bytes=int(payload["ram_bytes"]),
        os_reserved_bytes=int(payload["os_reserved_bytes"]),
        page_size=int(payload["page_size"]),
        device_kind=payload["device_kind"],
        disk_geometry=DiskGeometry(**payload["disk_geometry"]),
        cache_policy=CachePolicy(payload["cache_policy"]),
        io_scheduler=payload["io_scheduler"],
        cpu=CpuCosts(**payload["cpu"]),
    )


# ----------------------------------------------------------------- capture
def _inode_to_dict(inode: Inode) -> Dict:
    return {
        "number": inode.number,
        "type": inode.inode_type.value,
        "size_bytes": inode.size_bytes,
        "nlink": inode.nlink,
        "atime_ns": inode.atime_ns,
        "mtime_ns": inode.mtime_ns,
        "ctime_ns": inode.ctime_ns,
        "extents": [[e.file_block, e.device_block, e.count] for e in inode.extents],
        # A list of triples, not a mapping: directory insertion order is part
        # of the state and must survive canonical (sorted-key) serialisation.
        "entries": [
            [entry.name, entry.inode_number, entry.inode_type.value]
            for entry in inode.entries.values()
        ],
        "symlink_target": inode.symlink_target,
    }


def _inode_from_dict(payload: Dict) -> Inode:
    inode = Inode(
        number=int(payload["number"]),
        inode_type=InodeType(payload["type"]),
        size_bytes=int(payload["size_bytes"]),
        nlink=int(payload["nlink"]),
        atime_ns=float(payload["atime_ns"]),
        mtime_ns=float(payload["mtime_ns"]),
        ctime_ns=float(payload["ctime_ns"]),
        extents=[
            Extent(file_block=int(fb), device_block=int(db), count=int(count))
            for fb, db, count in payload["extents"]
        ],
        symlink_target=payload.get("symlink_target"),
    )
    for name, number, kind in payload["entries"]:
        inode.entries[name] = DirectoryEntry(name, int(number), InodeType(kind))
    return inode


def _journal_state(fs) -> Dict[str, Dict]:
    state: Dict[str, Dict] = {}
    for attr in ("journal", "log"):
        journal = getattr(fs, attr, None)
        if isinstance(journal, Journal):
            state[attr] = journal.export_state()
    return state


@dataclass(frozen=True)
class StateSnapshot:
    """A captured stack state plus its content fingerprint."""

    data: Dict
    fingerprint: str

    @property
    def fs_type(self) -> str:
        """File system the snapshot was taken from."""
        return self.data["fs_type"]

    @property
    def testbed(self) -> TestbedConfig:
        """The machine the snapshot was taken on."""
        return _testbed_from_dict(self.data["testbed"])

    def describe(self) -> str:
        """One-line summary for reports and the CLI."""
        fs = self.data["fs"]
        return (
            f"snapshot of {self.fs_type}: {len(fs['inodes'])} inodes, "
            f"{len(self.data['cache']['resident'])} cached pages, "
            f"fingerprint {self.fingerprint[:12]}"
        )


def _fingerprint(data: Dict) -> str:
    encoded = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def snapshot_stack(stack: StorageStack) -> StateSnapshot:
    """Capture the complete state of a stack as a :class:`StateSnapshot`."""
    fs = stack.fs
    inodes = [_inode_to_dict(fs._inodes[number]) for number in sorted(fs._inodes)]
    allocator = getattr(fs, "allocator", None)
    if allocator is None or not hasattr(allocator, "export_free_state"):
        raise ValueError(
            f"{type(fs).__name__} exposes no snapshot-capable allocator"
        )
    resident, dirty = stack.cache.export_state()
    rng_version, rng_internal, rng_gauss = stack.vfs.rng.getstate()
    data = {
        "fs_type": stack.fs_name,
        "seed": stack.seed,
        "clock_ns": stack.clock.now_ns,
        "device_busy_until_ns": stack.vfs._device_busy_until_ns,
        "testbed": _testbed_to_dict(stack.testbed),
        "rng_state": [rng_version, list(rng_internal), rng_gauss],
        "fs": {
            "block_size": fs.block_size,
            "total_blocks": fs.total_blocks,
            "next_inode": fs._next_inode,
            "root": fs.root.number,
            "inodes": inodes,
            "dir_goals": sorted(
                [ino, goal] for ino, goal in getattr(fs, "_dir_goal_block", {}).items()
            ),
            "allocator": allocator.export_free_state(),
            "delalloc": sorted(
                [ino, reserved]
                for ino, reserved in getattr(fs, "_delalloc_reservations", {}).items()
            ),
            "journal": _journal_state(fs),
        },
        "cache": {
            "resident": [list(key) for key in resident],
            "dirty": [list(key) for key in dirty],
        },
    }
    # Stateful device models (the FTL SSD) contribute their own section; the
    # key is *omitted* for stateless devices so snapshots taken on the
    # existing device kinds keep their exact fingerprints.
    export_device = getattr(stack.device.model, "export_state", None)
    if callable(export_device):
        data["device"] = export_device()
    return StateSnapshot(data=data, fingerprint=_fingerprint(data))


# ----------------------------------------------------------------- restore
def restore_stack(
    snapshot: StateSnapshot,
    testbed: Optional[TestbedConfig] = None,
    seed: Optional[int] = None,
    cpu_speed_factor: float = 1.0,
    restore_rng: bool = False,
) -> StorageStack:
    """Rebuild a live stack from a snapshot.

    Parameters
    ----------
    snapshot:
        The captured state.
    testbed:
        Machine to restore onto; defaults to the snapshot's recorded testbed.
        The device geometry and page size must match the snapshot (extent
        maps reference absolute device blocks); RAM may differ -- this is how
        the benchmark runner's environmental noise applies to aged states.
    seed, cpu_speed_factor:
        Stack seed and CPU factor, exactly as for
        :func:`~repro.fs.stack.build_stack`.  Defaults to the snapshot's
        recorded seed.
    restore_rng:
        When true, the VFS random source continues from the captured state
        (exact resume); when false (default) it is freshly seeded, which is
        what repetition-based measurement protocols need.

    Restoration is deterministic: the same snapshot and arguments always
    produce the same stack, in any process.
    """
    effective_testbed = testbed if testbed is not None else snapshot.testbed
    effective_seed = seed if seed is not None else int(snapshot.data["seed"])
    stack = build_stack(
        fs_type=snapshot.fs_type,
        testbed=effective_testbed,
        seed=effective_seed,
        cpu_speed_factor=cpu_speed_factor,
    )
    data = snapshot.data
    fs = stack.fs
    fs_state = data["fs"]
    # Extent maps reference absolute device blocks and page-cache keys are
    # (inode, page-index) pairs, so block/page geometry must match exactly;
    # build_stack derives the fs block size from the testbed page size, so
    # this single check covers both.
    if fs.block_size != int(fs_state["block_size"]) or fs.total_blocks != int(
        fs_state["total_blocks"]
    ):
        raise ValueError(
            "snapshot geometry mismatch: snapshot is "
            f"{fs_state['total_blocks']} x {fs_state['block_size']}B blocks, "
            f"target stack is {fs.total_blocks} x {fs.block_size}B"
        )

    # --- file system namespace, extent maps and allocator state
    fs._inodes = {}
    for payload in fs_state["inodes"]:
        inode = _inode_from_dict(payload)
        fs._inodes[inode.number] = inode
    fs._next_inode = int(fs_state["next_inode"])
    fs._root = fs._inodes[int(fs_state["root"])]
    if hasattr(fs, "_dir_goal_block"):
        fs._dir_goal_block = {int(ino): int(goal) for ino, goal in fs_state["dir_goals"]}
    fs.allocator.restore_free_state(
        [[(int(start), int(count)) for start, count in group] for group in fs_state["allocator"]]
    )
    if hasattr(fs, "_delalloc_reservations"):
        fs._delalloc_reservations = {
            int(ino): int(reserved) for ino, reserved in fs_state["delalloc"]
        }
    for attr, journal_state in fs_state["journal"].items():
        journal = getattr(fs, attr, None)
        if isinstance(journal, Journal):
            journal.restore_state(journal_state)

    # --- page cache contents (insertion order rebuilds the policy state)
    stack.cache.restore_state(
        resident=[(int(ino), int(page)) for ino, page in data["cache"]["resident"]],
        dirty=[(int(ino), int(page)) for ino, page in data["cache"]["dirty"]],
    )

    # --- device state (stateful models only; see snapshot_stack)
    if "device" in data:
        restore_device = getattr(stack.device.model, "restore_state", None)
        if not callable(restore_device):
            raise ValueError(
                f"snapshot carries device state but the target device "
                f"({type(stack.device.model).__name__}) cannot restore it; "
                f"restore onto a testbed with the snapshot's device kind "
                f"({snapshot.testbed.device_kind!r})"
            )
        restore_device(data["device"])

    # --- clock, device backlog, randomness
    stack.clock.advance(float(data["clock_ns"]) - stack.clock.now_ns)
    stack.vfs._device_busy_until_ns = float(data["device_busy_until_ns"])
    if restore_rng:
        version, internal, gauss = data["rng_state"]
        stack.vfs.rng.setstate((int(version), tuple(int(v) for v in internal), gauss))
    return stack


# ------------------------------------------------------------------- files
def save_snapshot(snapshot: StateSnapshot, destination: Union[str, TextIO]) -> None:
    """Write a snapshot to a JSON file or file object."""
    document = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "fingerprint": snapshot.fingerprint,
        "data": snapshot.data,
    }
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            json.dump(document, handle, sort_keys=True)
    else:
        json.dump(document, destination, sort_keys=True)


def load_snapshot(source: Union[str, TextIO]) -> StateSnapshot:
    """Read a snapshot written by :func:`save_snapshot`, verifying integrity."""
    if isinstance(source, str):
        with open(source, "r") as handle:
            document = json.load(handle)
    else:
        document = json.load(source)
    if not isinstance(document, dict) or document.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document")
    if int(document.get("version", -1)) > FORMAT_VERSION:
        raise ValueError(
            f"snapshot version {document.get('version')} is newer than supported "
            f"({FORMAT_VERSION})"
        )
    data = document.get("data")
    if not isinstance(data, dict):
        raise ValueError("malformed snapshot document: missing 'data' payload")
    fingerprint = _fingerprint(data)
    # save_snapshot always records the fingerprint; its absence means the
    # file was truncated or hand-edited, exactly what verification is for.
    if document.get("fingerprint") != fingerprint:
        raise ValueError("snapshot fingerprint mismatch: file is corrupt or was edited")
    return StateSnapshot(data=data, fingerprint=fingerprint)


@lru_cache(maxsize=8)
def _load_snapshot_cached(path: str, mtime_ns: int, size: int) -> StateSnapshot:
    return load_snapshot(path)


def load_snapshot_cached(path: str) -> StateSnapshot:
    """Load a snapshot file with caching keyed on (path, mtime, size).

    Repetition fan-out restores the same snapshot once per repetition; the
    cache makes that one parse per worker process instead.
    """
    stat = os.stat(path)
    return _load_snapshot_cached(path, stat.st_mtime_ns, stat.st_size)


def snapshot_fingerprint(path: str) -> str:
    """Fingerprint of a snapshot file (loads and verifies it)."""
    return load_snapshot_cached(path).fingerprint


def snapshot_stack_factory(
    path: str,
) -> Callable[[str, TestbedConfig, int, float], StorageStack]:
    """A :class:`~repro.core.runner.BenchmarkRunner` stack factory restoring ``path``.

    The returned callable has the runner's stack-factory signature
    ``(fs_type, testbed, seed, cpu_speed_factor)``; ``fs_type`` must match
    the snapshot's file system.
    """

    def factory(
        fs_type: str, testbed: TestbedConfig, seed: int, cpu_speed_factor: float
    ) -> StorageStack:
        snapshot = load_snapshot_cached(path)
        if fs_type != snapshot.fs_type:
            raise ValueError(
                f"snapshot {path} holds {snapshot.fs_type!r} state, requested {fs_type!r}"
            )
        return restore_stack(
            snapshot, testbed=testbed, seed=seed, cpu_speed_factor=cpu_speed_factor
        )

    return factory
