"""Stateful NAND flash: a page-mapped FTL with garbage collection and wear.

The legacy :class:`~repro.storage.disk.SolidStateDisk` is stateless -- its
garbage collection is a per-write coin flip -- so an SSD benchmark's cost
depends on how many operations it issued, never on what *state* the device is
in.  That is exactly the hidden variable the paper says evaluations must
control: a fresh-out-of-box SSD and the same SSD preconditioned to steady
state can differ by integer factors on the same workload.

:class:`FlashTranslationLayer` models the state that causes the difference:

* **Geometry** -- the device exports ``capacity_bytes`` of logical space but
  owns ``(1 + over_provisioning)`` times as much physical NAND, organised as
  erase blocks of ``pages_per_block`` pages.  Pages are programmed once per
  erase cycle; rewriting a logical page programs a *new* physical page and
  invalidates the old one (out-of-place writes).
* **Mapping** -- a page-granularity logical-to-physical map plus the reverse
  map and per-block validity counters (the invalid-page map).
* **Garbage collection** -- when the free-block pool drops below a watermark,
  a victim block is chosen (``greedy``: fewest valid pages, or
  ``cost-benefit``: the classic :math:`(1-u)/(1+u) \\cdot age` score), its
  valid pages are relocated to the write frontier, and the block is erased.
  The pause is charged to the triggering write and recorded in
  ``stats.gc_time_ns`` -- GC pauses are *visible* latency, not a coin flip.
* **Telemetry** -- page programs split into host writes and GC moves (their
  ratio is write amplification), erases, discards and per-block wear, all
  surfaced through the shared :class:`~repro.storage.disk.DeviceStats`.
* **Discard** -- TRIM support: the file system's free paths tell the FTL
  which logical pages are dead, so GC stops relocating data the namespace
  already forgot.  Without discards a mounted file system silently turns the
  whole device into "valid" data and steady-state GC cost explodes.

Determinism: the FTL uses **no randomness at all** -- victim selection,
frontier allocation and the free-block queue are all deterministic functions
of the request sequence -- so its service times depend only on its own call
order.  This is the property the legacy model lacks (see the ``rng_seed``
note on :class:`~repro.storage.disk.SolidStateDisk`) and what makes FTL state
snapshot/restore bit-identical.

:func:`precondition_ssd` manufactures the steady state deliberately: fill to
a target utilisation, overwrite until garbage collection is active, then
churn in rounds until the observed write amplification is statistically
steady (reusing :class:`~repro.core.steady_state.SteadyStateDetector`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.storage.clock import NS_PER_MS, NS_PER_SEC
from repro.storage.disk import DeviceModel

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

#: GC victim-selection policies understood by :class:`FlashTranslationLayer`.
GC_POLICIES = ("greedy", "cost-benefit")

#: The FTL maps' entry for a logical page with no data, or a physical page
#: that holds none.
UNMAPPED = -1


def _check_indices(field: str, values: List[int], limit: int) -> None:
    """Raise ``ValueError`` unless every one of ``values`` lies in ``[0, limit)``."""
    if values and (min(values) < 0 or max(values) >= limit):
        bad = next(value for value in values if not 0 <= value < limit)
        raise ValueError(f"FTL snapshot field {field!r} holds {bad}, outside [0, {limit})")


@dataclass(frozen=True)
class FlashGeometry:
    """Physical description of a NAND device behind a page-mapped FTL.

    Attributes
    ----------
    capacity_bytes:
        Logical (host-visible) capacity.  The physical capacity is larger by
        ``over_provisioning``.
    page_bytes:
        NAND page size: the program/read unit and the FTL mapping
        granularity.  Deliberately coarse (32 KiB) by default so that
        whole-device preconditioning stays cheap in simulation; sub-page host
        writes program (and account) one full page, which stands in for the
        read-modify-write a real controller performs.
    pages_per_block:
        Pages per erase block (the erase unit).
    over_provisioning:
        Fraction of extra physical capacity hidden from the host; this is
        the GC's working headroom.
    channels:
        Independent flash channels; page operations proceed in waves of
        ``channels``.
    read_latency_us, program_latency_us, erase_latency_ms:
        Per-page read/program and per-block erase times.
    channel_mb_s:
        Interface transfer rate per channel.
    discard_latency_us:
        Cost of one discard (TRIM) command, independent of range size.
    gc_low_watermark_blocks, gc_high_watermark_blocks:
        Garbage collection starts when the free pool drops below the low
        watermark and runs until it is back at the high watermark.
    """

    capacity_bytes: int = 4 * GiB
    page_bytes: int = 32 * KiB
    pages_per_block: int = 128
    over_provisioning: float = 0.15
    channels: int = 8
    read_latency_us: float = 60.0
    program_latency_us: float = 350.0
    erase_latency_ms: float = 2.0
    channel_mb_s: float = 400.0
    discard_latency_us: float = 25.0
    gc_low_watermark_blocks: int = 6
    gc_high_watermark_blocks: int = 12

    # ------------------------------------------------------------- derived
    @property
    def logical_pages(self) -> int:
        """Host-visible pages (the FTL maps at page granularity)."""
        return self.capacity_bytes // self.page_bytes

    @property
    def block_bytes(self) -> int:
        """Size of one erase block."""
        return self.page_bytes * self.pages_per_block

    @property
    def physical_blocks(self) -> int:
        """Total erase blocks, over-provisioning included."""
        return math.ceil(
            self.logical_pages * (1.0 + self.over_provisioning) / self.pages_per_block
        )

    @property
    def physical_pages(self) -> int:
        """Total physical pages across all erase blocks."""
        return self.physical_blocks * self.pages_per_block

    @property
    def spare_blocks(self) -> int:
        """Blocks beyond what the logical capacity strictly needs."""
        return self.physical_blocks - math.ceil(self.logical_pages / self.pages_per_block)

    def validate(self) -> None:
        """Raise ``ValueError`` if the geometry cannot support a working FTL."""
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ValueError("page_bytes must be a positive power of two")
        if self.pages_per_block <= 1:
            raise ValueError("pages_per_block must be at least 2")
        if self.capacity_bytes % self.page_bytes:
            raise ValueError("capacity_bytes must be a multiple of page_bytes")
        if self.over_provisioning <= 0.0:
            raise ValueError(
                "over_provisioning must be positive: a page-mapped FTL with no "
                "spare blocks deadlocks as soon as the device fills"
            )
        if self.channels <= 0:
            raise ValueError("channels must be positive")
        if min(self.read_latency_us, self.program_latency_us, self.erase_latency_ms) < 0:
            raise ValueError("latencies must be non-negative")
        if self.channel_mb_s <= 0:
            raise ValueError("channel_mb_s must be positive")
        if not (0 < self.gc_low_watermark_blocks < self.gc_high_watermark_blocks):
            raise ValueError("require 0 < gc_low_watermark < gc_high_watermark")
        if self.spare_blocks <= self.gc_high_watermark_blocks:
            raise ValueError(
                f"over-provisioning yields {self.spare_blocks} spare blocks, "
                f"need more than the GC high watermark "
                f"({self.gc_high_watermark_blocks}) for GC to make progress"
            )


def default_flash_geometry(capacity_bytes: int = 4 * GiB) -> FlashGeometry:
    """The standard ``ssd-ftl`` geometry at a given logical capacity.

    Watermarks scale gently with the block count so tiny test devices keep a
    few blocks of headroom while large ones do not over-reserve.
    """
    geometry = FlashGeometry(capacity_bytes=capacity_bytes)
    blocks = capacity_bytes // geometry.block_bytes
    low = max(2, min(6, blocks // 64))
    geometry = FlashGeometry(
        capacity_bytes=capacity_bytes,
        gc_low_watermark_blocks=low,
        gc_high_watermark_blocks=2 * low,
    )
    geometry.validate()
    return geometry


class FlashTranslationLayer(DeviceModel):
    """A page-mapped FTL over the NAND described by a :class:`FlashGeometry`.

    See the module docstring for the model; the public surface is the
    standard :class:`~repro.storage.disk.DeviceModel` one plus
    :meth:`export_state`/:meth:`restore_state` (used by state snapshots),
    :meth:`utilization` and :meth:`wear_summary`.

    Parameters
    ----------
    geometry:
        Physical parameters; ``capacity_bytes`` is what the host sees.
    gc_policy:
        ``"greedy"`` (fewest valid pages) or ``"cost-benefit"``
        (:math:`(1-u)/(1+u) \\cdot age`, favouring cold blocks).
    """

    supports_discard = True

    def __init__(
        self,
        geometry: Optional[FlashGeometry] = None,
        gc_policy: str = "greedy",
    ) -> None:
        geometry = geometry if geometry is not None else default_flash_geometry()
        geometry.validate()
        if gc_policy not in GC_POLICIES:
            raise ValueError(f"unknown gc_policy {gc_policy!r} (known: {', '.join(GC_POLICIES)})")
        super().__init__(geometry.capacity_bytes, sector_bytes=geometry.page_bytes)
        self.geometry = geometry
        self.gc_policy = gc_policy
        self._read_ns = geometry.read_latency_us * 1_000.0
        self._program_ns = geometry.program_latency_us * 1_000.0
        self._erase_ns = geometry.erase_latency_ms * NS_PER_MS
        self._discard_ns = geometry.discard_latency_us * 1_000.0
        self._channel_bytes_per_ns = geometry.channel_mb_s * MiB / NS_PER_SEC
        self._init_mapping()

    # --------------------------------------------------------------- set-up
    def _init_mapping(self) -> None:
        geometry = self.geometry
        blocks = geometry.physical_blocks
        #: logical page -> physical page, ``UNMAPPED`` where no data lives.
        self._l2p: List[int] = [UNMAPPED] * geometry.logical_pages
        #: physical page -> logical page, ``UNMAPPED`` where the page is
        #: erased or invalid.
        self._p2l: List[int] = [UNMAPPED] * geometry.physical_pages
        # lint: ephemeral -- the number of mapped entries in _l2p, kept beside it
        self._mapped = 0
        self._block_valid = [0] * blocks
        self._block_write_ptr = [0] * blocks
        self._erase_count = [0] * blocks
        #: Sequence number of the most recent program into each block
        #: (cost-benefit GC uses it as the block's age).
        self._block_seq = [0] * blocks
        #: FIFO of erased blocks; deterministic order is part of the state.
        self._free_blocks: List[int] = list(range(1, blocks))
        self._is_free = [False] + [True] * (blocks - 1)
        self._active_block = 0
        self._seq = 0
        self._in_gc = False
        self._pending_gc_ns = 0.0

    def reset_state(self) -> None:
        super().reset_state()
        self._init_mapping()

    # ------------------------------------------------------------- mapping
    def _invalidate_physical(self, physical_page: int) -> None:
        self._p2l[physical_page] = UNMAPPED
        self._block_valid[physical_page // self.geometry.pages_per_block] -= 1

    def _frontier_slot(self) -> int:
        """The next physical page at the write frontier, opening blocks as needed."""
        pages_per_block = self.geometry.pages_per_block
        if self._block_write_ptr[self._active_block] >= pages_per_block:
            if not self._in_gc and len(self._free_blocks) <= self.geometry.gc_low_watermark_blocks:
                self._pending_gc_ns += self._collect()
            # GC relocations advance the frontier themselves, so the active
            # block may already be a fresh one with room; only a still-full
            # frontier opens another free block (popping unconditionally
            # would strand the GC's half-written frontier block outside both
            # the free pool and the victim candidate set -- a space leak).
            if self._block_write_ptr[self._active_block] >= pages_per_block:
                if not self._free_blocks:
                    raise RuntimeError(
                        "FTL out of free blocks: garbage collection could not "
                        "reclaim space (device full of valid data)"
                    )
                self._active_block = self._free_blocks.pop(0)
                self._is_free[self._active_block] = False
        slot = self._active_block * pages_per_block + self._block_write_ptr[self._active_block]
        self._block_write_ptr[self._active_block] += 1
        return slot

    def _program(self, logical_page: int, moved: bool) -> None:
        old = self._l2p[logical_page]
        if old == UNMAPPED:
            self._mapped += 1
        else:
            self._invalidate_physical(old)
        slot = self._frontier_slot()
        self._l2p[logical_page] = slot
        self._p2l[slot] = logical_page
        block = slot // self.geometry.pages_per_block
        self._block_valid[block] += 1
        self._seq += 1
        self._block_seq[block] = self._seq
        self.stats.pages_programmed += 1
        if moved:
            self.stats.pages_moved += 1

    # ---------------------------------------------------- garbage collection
    def _select_victim(self) -> Optional[int]:
        """The next GC victim: a fully-written, non-free, non-active block."""
        pages_per_block = self.geometry.pages_per_block
        best = None
        best_score = None
        for block in range(self.geometry.physical_blocks):
            if self._is_free[block] or block == self._active_block:
                continue
            if self._block_write_ptr[block] < pages_per_block:
                continue
            valid = self._block_valid[block]
            if self.gc_policy == "greedy":
                score = (valid, block)
                better = best_score is None or score < best_score
            else:
                utilisation = valid / pages_per_block
                age = self._seq - self._block_seq[block] + 1
                benefit = (1.0 - utilisation) / (1.0 + utilisation) * age
                # Maximise benefit; tie-break deterministically by index.
                score = (-benefit, block)
                better = best_score is None or score < best_score
            if better:
                best = block
                best_score = score
        if best is not None and self._block_valid[best] >= pages_per_block:
            # Every candidate is fully valid: erasing gains nothing.
            return None
        return best

    def _evacuate(self, victim: int) -> float:
        """Relocate a victim's valid pages, erase it, return the time spent."""
        geometry = self.geometry
        pages_per_block = geometry.pages_per_block
        first = victim * pages_per_block
        survivors = sorted(
            logical for logical in self._p2l[first:first + pages_per_block] if logical != UNMAPPED
        )
        for logical_page in survivors:
            self._program(logical_page, moved=True)
        waves = math.ceil(len(survivors) / geometry.channels) if survivors else 0
        elapsed = waves * (self._read_ns + self._program_ns) + self._erase_ns

        self._block_valid[victim] = 0
        self._block_write_ptr[victim] = 0
        self._erase_count[victim] += 1
        self._block_seq[victim] = self._seq
        self._free_blocks.append(victim)
        self._is_free[victim] = True
        self.stats.erases += 1
        return elapsed

    def _collect(self) -> float:
        """Run GC until the free pool reaches the high watermark; returns the pause."""
        self._in_gc = True
        pause = 0.0
        victims = 0
        try:
            while (
                len(self._free_blocks) < self.geometry.gc_high_watermark_blocks
                and victims < self.geometry.physical_blocks
            ):
                victim = self._select_victim()
                if victim is None:
                    break
                pause += self._evacuate(victim)
                victims += 1
        finally:
            self._in_gc = False
        if victims:
            self.stats.gc_runs += 1
            self.stats.gc_time_ns += pause
        return pause

    # -------------------------------------------------------------- service
    def _page_range(self, offset_bytes: int, nbytes: int) -> range:
        page = self.geometry.page_bytes
        return range(offset_bytes // page, (offset_bytes + nbytes - 1) // page + 1)

    def _transfer_ns(self, nbytes: int) -> float:
        return nbytes / (self._channel_bytes_per_ns * self.geometry.channels)

    def read_latency_ns(self, offset_bytes: int, nbytes: int, rng: random.Random) -> float:
        pages = len(self._page_range(offset_bytes, nbytes))
        waves = math.ceil(pages / self.geometry.channels)
        return waves * self._read_ns + self._transfer_ns(nbytes)

    def write_latency_ns(self, offset_bytes: int, nbytes: int, rng: random.Random) -> float:
        pages = self._page_range(offset_bytes, nbytes)
        self._pending_gc_ns = 0.0
        for logical_page in pages:
            self._program(logical_page, moved=False)
        waves = math.ceil(len(pages) / self.geometry.channels)
        latency = waves * self._program_ns + self._transfer_ns(nbytes)
        if self.component_trace_enabled:
            # The exact addends of the returned sum: program/transfer time vs
            # the garbage-collection pause this write absorbed.
            self.last_components = {"transfer": latency, "gc-pause": self._pending_gc_ns}
        return latency + self._pending_gc_ns

    def discard_latency_ns(self, offset_bytes: int, nbytes: int, rng: random.Random) -> float:
        page = self.geometry.page_bytes
        # Only whole pages can be unmapped (TRIM granularity); partial head
        # and tail pages keep their mapping.
        first = -(-offset_bytes // page)
        last = (offset_bytes + nbytes) // page - 1
        l2p = self._l2p
        for logical_page in range(first, last + 1):
            old = l2p[logical_page]
            if old != UNMAPPED:
                l2p[logical_page] = UNMAPPED
                self._mapped -= 1
                self._invalidate_physical(old)
        return self._discard_ns

    def flush_latency_ns(self, rng: random.Random) -> float:
        """Barrier cost: mapping-table persistence, no mechanical destage."""
        return self._discard_ns

    # ------------------------------------------------------------ inspection
    def utilization(self) -> float:
        """Fraction of logical pages currently mapped to live data."""
        return self._mapped / max(1, self.geometry.logical_pages)

    def free_physical_blocks(self) -> int:
        """Erased blocks available to the write frontier."""
        return len(self._free_blocks)

    def wear_summary(self) -> Dict[str, float]:
        """Per-block erase-count statistics (the wear-levelling picture)."""
        counts = self._erase_count
        total = sum(counts)
        return {
            "total_erases": float(total),
            "min_erases": float(min(counts)),
            "max_erases": float(max(counts)),
            "mean_erases": total / len(counts),
        }

    # ------------------------------------------------------------- snapshot
    def export_state(self) -> Dict:
        """The FTL's complete dynamic state as a JSON-serialisable document.

        Everything that influences future service times is here: the
        logical-to-physical map, per-block write pointers / wear / age, the
        free-block queue *order* and the program sequence counter.  Telemetry
        (``stats``) is deliberately excluded -- counters describe the past,
        not the state.  ``restore_state(export_state())`` round-trips
        bit-identically.
        """
        return {
            "geometry": {
                "capacity_bytes": self.geometry.capacity_bytes,
                "page_bytes": self.geometry.page_bytes,
                "pages_per_block": self.geometry.pages_per_block,
                "physical_blocks": self.geometry.physical_blocks,
            },
            # The victim-selection policy shapes every future GC decision, so
            # it is state, not configuration: restore adopts it.
            "gc_policy": self.gc_policy,
            "l2p": [[lp, pp] for lp, pp in enumerate(self._l2p) if pp != UNMAPPED],
            "write_ptr": list(self._block_write_ptr),
            "erase_count": list(self._erase_count),
            "block_seq": list(self._block_seq),
            "free_blocks": list(self._free_blocks),
            "active_block": self._active_block,
            "seq": self._seq,
        }

    def restore_state(self, state: Dict) -> None:
        """Overwrite the FTL state with a previously exported document."""
        recorded = state["geometry"]
        mine = self.geometry
        if (
            int(recorded["capacity_bytes"]) != mine.capacity_bytes
            or int(recorded["page_bytes"]) != mine.page_bytes
            or int(recorded["pages_per_block"]) != mine.pages_per_block
            or int(recorded["physical_blocks"]) != mine.physical_blocks
        ):
            raise ValueError(
                "FTL snapshot geometry mismatch: snapshot is "
                f"{recorded}, device is {mine.physical_blocks} blocks of "
                f"{mine.pages_per_block} x {mine.page_bytes}B pages"
            )
        blocks = mine.physical_blocks
        for name in ("write_ptr", "erase_count", "block_seq"):
            if len(state[name]) != blocks:
                raise ValueError(f"FTL snapshot field {name!r} has wrong length")
        # Adopt the recorded GC policy: without it a cost-benefit device
        # restored onto a registry-built (greedy) instance would silently
        # pick different victims and diverge from the captured behaviour.
        policy = state.get("gc_policy", self.gc_policy)
        if policy not in GC_POLICIES:
            raise ValueError(f"FTL snapshot has unknown gc_policy {policy!r}")
        # Checked before the lists are built: a negative index would write
        # silently at their far end.
        pairs = state["l2p"]
        _check_indices("l2p", [lp for lp, _ in pairs], mine.logical_pages)
        _check_indices("l2p", [pp for _, pp in pairs], mine.physical_pages)
        free_blocks = [int(v) for v in state["free_blocks"]]
        _check_indices("free_blocks", free_blocks, blocks)
        active_block = int(state["active_block"])
        _check_indices("active_block", [active_block], blocks)
        l2p = [UNMAPPED] * mine.logical_pages
        p2l = [UNMAPPED] * mine.physical_pages
        for lp, pp in pairs:
            l2p[lp] = pp
            p2l[pp] = lp
        if mine.logical_pages - l2p.count(UNMAPPED) != len(pairs):
            raise ValueError("FTL snapshot field 'l2p' lists a logical page more than once")
        if mine.physical_pages - p2l.count(UNMAPPED) != len(pairs):
            raise ValueError("FTL snapshot maps two logical pages to one physical page")
        pages_per_block = mine.pages_per_block
        self.gc_policy = policy
        self._l2p = l2p
        self._p2l = p2l
        self._mapped = len(pairs)
        self._block_valid = [
            pages_per_block - p2l[first:first + pages_per_block].count(UNMAPPED)
            for first in range(0, mine.physical_pages, pages_per_block)
        ]
        self._block_write_ptr = [int(v) for v in state["write_ptr"]]
        self._erase_count = [int(v) for v in state["erase_count"]]
        self._block_seq = [int(v) for v in state["block_seq"]]
        self._free_blocks = free_blocks
        self._is_free = [False] * blocks
        for block in free_blocks:
            self._is_free[block] = True
        self._active_block = active_block
        self._seq = int(state["seq"])
        self._in_gc = False
        self._pending_gc_ns = 0.0

    def __repr__(self) -> str:
        gb = self.capacity_bytes / 10 ** 9
        return (
            f"FlashTranslationLayer({gb:.1f}GB logical, "
            f"{self.geometry.physical_blocks} blocks, gc={self.gc_policy})"
        )


# ------------------------------------------------------------ preconditioning
@dataclass
class PreconditionReport:
    """What :func:`precondition_ssd` did to reach steady state."""

    target_utilization: float
    utilization: float
    fill_pages: int
    burn_in_pages: int
    churn_rounds: int
    reached_steady: bool
    write_amplification_series: List[float] = field(default_factory=list)
    final_write_amplification: float = 0.0
    total_erases: int = 0

    def render(self) -> str:
        """One-line human-readable summary."""
        wa = ", ".join(f"{value:.2f}" for value in self.write_amplification_series)
        steady = "steady" if self.reached_steady else "NOT steady"
        return (
            f"Preconditioned to {100 * self.utilization:.0f}% utilisation in "
            f"{self.churn_rounds} churn rounds ({steady}); write amplification "
            f"[{wa}], {self.total_erases} erases"
        )


def precondition_ssd(
    model: FlashTranslationLayer,
    target_utilization: float = 0.85,
    churn_pages_per_round: int = 4096,
    max_rounds: int = 48,
    seed: int = 2011,
) -> PreconditionReport:
    """Fill and churn an FTL device until its write amplification is steady.

    The standard SSD preconditioning recipe, made explicit and deterministic:

    1. **Fill** the logical space sequentially to ``target_utilization``.
    2. **Burn in**: overwrite uniformly random pages until garbage
       collection has run at least twice, so the fresh-out-of-box free pool
       is gone and block validity is randomly mixed (sequential burn-in
       would leave fully-invalid blocks that GC reclaims for free, making
       the device look steady long before it is).
    3. **Churn**: keep overwriting random pages in rounds of
       ``churn_pages_per_round``, observing each round's write amplification
       with a :class:`~repro.core.steady_state.SteadyStateDetector`; stop at
       the first statistically steady window (or after ``max_rounds``).

    The device's *telemetry* is reset on return (a subsequent measurement
    starts from clean counters) while its *state* -- mapping, wear, free-pool
    level -- is the manufactured steady state.  Preconditioning is a pure
    function of ``(geometry, arguments)``: the churn uses a private seeded
    random source and the FTL itself is deterministic, so two devices
    preconditioned with the same arguments are bit-identical.
    """
    # Imported lazily: repro.core packages import repro.storage at module
    # scope, so the reverse import must not run at ours.
    from repro.core.steady_state import SteadyStateDetector

    if not isinstance(model, FlashTranslationLayer):
        raise TypeError(
            f"precondition_ssd needs a FlashTranslationLayer, got {type(model).__name__}"
        )
    if not (0.0 < target_utilization <= 1.0):
        raise ValueError("target_utilization must be in (0, 1]")
    if churn_pages_per_round <= 0 or max_rounds <= 0:
        raise ValueError("churn_pages_per_round and max_rounds must be positive")

    geometry = model.geometry
    rng = random.Random(seed)
    page = geometry.page_bytes
    fill_pages = max(1, int(target_utilization * geometry.logical_pages))
    chunk_pages = geometry.pages_per_block

    # Phase 1: sequential fill.
    cursor = 0
    while cursor < fill_pages:
        count = min(chunk_pages, fill_pages - cursor)
        model.write(cursor * page, count * page, rng)
        cursor += count

    # Phase 2: burn through the fresh free pool until GC is live.
    burn_in_pages = 0
    burn_in_limit = 2 * geometry.physical_pages
    while model.stats.gc_runs < 2 and burn_in_pages < burn_in_limit:
        model.write(rng.randrange(fill_pages) * page, page, rng)
        burn_in_pages += 1

    # Phase 3: random churn until write amplification is steady.
    detector = SteadyStateDetector(window=4, cov_threshold=0.05, slope_threshold=0.05)
    series: List[float] = []
    reached_steady = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        programmed_before = model.stats.pages_programmed
        moved_before = model.stats.pages_moved
        for _ in range(churn_pages_per_round):
            model.write(rng.randrange(fill_pages) * page, page, rng)
        programmed = model.stats.pages_programmed - programmed_before
        host = programmed - (model.stats.pages_moved - moved_before)
        series.append(programmed / host if host > 0 else 0.0)
        if detector.observe(series[-1]):
            reached_steady = True
            break

    report = PreconditionReport(
        target_utilization=target_utilization,
        utilization=model.utilization(),
        fill_pages=fill_pages,
        burn_in_pages=burn_in_pages,
        churn_rounds=rounds,
        reached_steady=reached_steady,
        write_amplification_series=series,
        final_write_amplification=series[-1] if series else 0.0,
        total_erases=model.stats.erases,
    )
    model.stats.reset()
    return report
