"""Streaming writer for ``.frpack`` result packs.

The writer is single-pass: it emits the preamble immediately, buffers
records into blocks, compresses and flushes each block as it fills, and
finishes with the index and footer -- never seeking backwards, never
holding more than one block of records in memory.  Output lands in a
temporary file that is atomically renamed on :meth:`PackWriter.finish`, so
a crashed or aborted pack never leaves a half-written artifact behind.

Determinism matters here: the same sorted record sequence with the same
compression parameters yields byte-identical packs regardless of how the
records arrived (direct pack, merge of shards, re-export).  zlib at a fixed
level is deterministic, the header carries no timestamps, and the block
cut points depend only on the records -- that is the property the merge
round-trip tests pin down.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import IO, Iterable, List, Optional, Tuple

from repro.core.parallel import CACHE_FORMAT_VERSION
from repro.core.persistence import canonical_run_payload, load_run_result, run_from_payload
from repro.store.format import (
    DEFAULT_BLOCK_BYTES,
    DEFAULT_LEVEL,
    MAGIC_END,
    BlockEntry,
    StoreConflictError,
    encode_footer_prefix,
    encode_index,
    encode_preamble,
    encode_records,
)

logger = logging.getLogger(__name__)


@dataclass
class PackSummary:
    """What a finished pack contains, for CLI reporting and tests."""

    path: str
    records: int = 0
    duplicates: int = 0
    skipped: int = 0
    blocks: int = 0
    data_bytes: int = 0
    raw_bytes: int = 0
    fingerprint: str = ""
    skipped_paths: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"packed {self.records} records into {self.blocks} blocks at {self.path}",
            f"  compressed {self.raw_bytes} -> {self.data_bytes} bytes"
            + (f" ({self.data_bytes / self.raw_bytes:.2f}x)" if self.raw_bytes else ""),
            f"  fingerprint sha256:{self.fingerprint}",
        ]
        if self.duplicates:
            lines.append(f"  {self.duplicates} duplicate records dropped (identical payloads)")
        if self.skipped:
            lines.append(f"  {self.skipped} corrupt source entries skipped")
        return "\n".join(lines)


class PackWriter:
    """Write sorted ``(key, payload)`` records into one ``.frpack`` file.

    Keys must arrive in ascending order.  A repeated key is dropped when its
    payload is byte-identical to the previous one (counted as a duplicate)
    and rejected with :class:`StoreConflictError` otherwise; an out-of-order
    key is a caller bug and raises ``ValueError``.
    """

    def __init__(
        self,
        path: str,
        level: int = DEFAULT_LEVEL,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        block_records: Optional[int] = None,
    ) -> None:
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        if block_records is not None and block_records <= 0:
            raise ValueError("block_records must be positive when given")
        self.path = path
        self.level = level
        self.block_bytes = block_bytes
        self.block_records = block_records
        self.summary = PackSummary(path=path)
        self._entries: List[BlockEntry] = []
        self._pending: List[Tuple[str, bytes]] = []
        self._pending_bytes = 0
        self._last_key: Optional[str] = None
        self._last_payload: Optional[bytes] = None
        self._sha = hashlib.sha256()
        self._offset = 0
        self._finished = False
        directory = os.path.dirname(os.path.abspath(path)) or "."
        os.makedirs(directory, exist_ok=True)
        fd, self._temp_path = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
        )
        self._handle: Optional[IO[bytes]] = os.fdopen(fd, "wb")
        self._emit(encode_preamble(level, CACHE_FORMAT_VERSION))

    # ------------------------------------------------------------- plumbing
    def _emit(self, data: bytes) -> None:
        assert self._handle is not None
        self._handle.write(data)
        self._sha.update(data)
        self._offset += len(data)

    def add(self, key: str, payload: bytes) -> None:
        """Append one record; see the class docstring for ordering rules."""
        if self._finished:
            raise RuntimeError("writer already finished")
        if self._last_key is not None:
            if key < self._last_key:
                raise ValueError(
                    f"keys must be added in ascending order: {key!r} after {self._last_key!r}"
                )
            if key == self._last_key:
                if payload == self._last_payload:
                    self.summary.duplicates += 1
                    return
                raise StoreConflictError(key, "duplicate key with differing payloads")
        self._pending.append((key, payload))
        self._pending_bytes += len(payload) + len(key) + 6
        self._last_key = key
        self._last_payload = payload
        self.summary.records += 1
        if self._pending_bytes >= self.block_bytes or (
            self.block_records is not None and len(self._pending) >= self.block_records
        ):
            self._flush_block()

    def _flush_block(self) -> None:
        if not self._pending:
            return
        raw = encode_records(self._pending)
        compressed = zlib.compress(raw, self.level)
        self._entries.append(
            BlockEntry(
                first_key=self._pending[0][0],
                last_key=self._pending[-1][0],
                offset=self._offset,
                comp_len=len(compressed),
                raw_len=len(raw),
                crc=zlib.crc32(compressed),
                n_records=len(self._pending),
            )
        )
        self._emit(compressed)
        self.summary.blocks += 1
        self.summary.data_bytes += len(compressed)
        self.summary.raw_bytes += len(raw)
        self._pending = []
        self._pending_bytes = 0

    # ------------------------------------------------------------ lifecycle
    def finish(self) -> PackSummary:
        """Flush, write index and footer, fsync, and rename into place."""
        if self._finished:
            return self.summary
        self._flush_block()
        index = encode_index(self._entries, self.summary.records)
        index_offset = self._offset
        self._emit(index)
        self._emit(encode_footer_prefix(index_offset, len(index), zlib.crc32(index)))
        # Everything emitted so far -- including the footer's first
        # FOOTER_FINGERPRINTED bytes -- is covered by the fingerprint.
        fingerprint = self._sha.digest()
        assert self._handle is not None
        self._handle.write(fingerprint + MAGIC_END)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._handle = None
        os.replace(self._temp_path, self.path)
        self._finished = True
        self.summary.fingerprint = fingerprint.hex()
        return self.summary

    def abort(self) -> None:
        """Discard the temporary file without producing a pack."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if not self._finished and os.path.exists(self._temp_path):
            os.unlink(self._temp_path)

    def __enter__(self) -> "PackWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finish()
        else:
            self.abort()


# --------------------------------------------------------------- front ends
def write_pack(
    path: str,
    records: Iterable[Tuple[str, bytes]],
    sort: bool = True,
    level: int = DEFAULT_LEVEL,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    block_records: Optional[int] = None,
) -> PackSummary:
    """Pack an iterable of ``(key, payload)`` records.

    With ``sort=True`` (the default) the records are materialised and sorted
    by key first; pass ``sort=False`` for an already-sorted stream.
    """
    if sort:
        records = sorted(records, key=lambda record: record[0])
    with PackWriter(
        path, level=level, block_bytes=block_bytes, block_records=block_records
    ) as writer:
        for key, payload in records:
            writer.add(key, payload)
    return writer.summary


def iter_cache_entries(cache_dir: str):
    """Yield ``(key, entry_path)`` for every loose entry in a cache dir."""
    for bucket in sorted(os.listdir(cache_dir)):
        bucket_path = os.path.join(cache_dir, bucket)
        if not os.path.isdir(bucket_path):
            continue
        for name in sorted(os.listdir(bucket_path)):
            if name.endswith(".json"):
                yield name[: -len(".json")], os.path.join(bucket_path, name)


def pack_result_cache(
    cache_dir: str,
    out_path: str,
    level: int = DEFAULT_LEVEL,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    block_records: Optional[int] = None,
) -> PackSummary:
    """Pack a loose :class:`~repro.core.parallel.ResultCache` directory.

    Each ``<key[:2]>/<key>.json`` entry is loaded through the persistence
    layer and re-encoded with :func:`canonical_run_payload`, so the pack is
    canonical even if the loose files differ in whitespace.  Corrupt loose
    entries are skipped with a warning and counted in ``summary.skipped``
    (packing is exactly the moment to notice them, not to propagate them).
    """
    if not os.path.isdir(cache_dir):
        raise FileNotFoundError(f"cache directory not found: {cache_dir}")
    with PackWriter(
        out_path, level=level, block_bytes=block_bytes, block_records=block_records
    ) as writer:
        for key, entry_path in iter_cache_entries(cache_dir):
            try:
                run = load_run_result(entry_path)
            except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError):
                logger.warning("skipping corrupt cache entry %s", entry_path)
                writer.summary.skipped += 1
                writer.summary.skipped_paths.append(entry_path)
                continue
            writer.add(key, canonical_run_payload(run))
    return writer.summary


def pack_runs_jsonl(
    jsonl_path: str,
    out_path: str,
    level: int = DEFAULT_LEVEL,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    block_records: Optional[int] = None,
) -> PackSummary:
    """Pack a JSONL export of ``{"key": ..., "run": <wrapped document>}`` lines.

    This is the inverse of ``fsbench-rocket results export --runs``: each
    line's run document is validated by a decode/re-encode round-trip
    through the canonical encoder before it is packed.
    """
    records: List[Tuple[str, bytes]] = []
    with open(jsonl_path, "r") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = entry["key"]
                payload = json.dumps(
                    entry["run"], sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
                run = run_from_payload(payload)
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as error:
                raise ValueError(f"{jsonl_path}:{line_number}: bad run record: {error}") from None
            records.append((key, canonical_run_payload(run)))
    return write_pack(
        out_path,
        records,
        sort=True,
        level=level,
        block_bytes=block_bytes,
        block_records=block_records,
    )
