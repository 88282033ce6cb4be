"""Page cache with pluggable eviction policies.

The page cache is the component responsible for the headline result of the
paper's case study: whether a working set fits in it determines whether a
"file system benchmark" is measuring memory or the disk.  The cache is
page-granular; keys are ``(inode_number, page_index)`` tuples supplied by the
VFS layer.

Four eviction policies are provided:

* :class:`LRUPolicy` -- strict least-recently-used (a good stand-in for the
  paper-era Linux page cache behaviour under random reads).
* :class:`ClockPolicy` -- second-chance / CLOCK, closer to what Linux actually
  implements.
* :class:`ARCPolicy` -- Adaptive Replacement Cache, scan-resistant.
* :class:`TwoQPolicy` -- the 2Q algorithm (A1in/A1out/Am queues).

The ablation benchmark ``benchmarks/test_bench_ablation_cache.py`` sweeps the
Figure-1 experiment across these policies to show how much of the published
"file system performance" is actually an artifact of the cache policy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Hashable, List, Set, Tuple

from repro.obs.metrics import MetricSource

PageKey = Tuple[int, int]


class CachePolicy(str, Enum):
    """Names of the available eviction policies."""

    LRU = "lru"
    CLOCK = "clock"
    ARC = "arc"
    TWO_Q = "2q"
    FIFO = "fifo"


@dataclass
class CacheStats(MetricSource):
    """Hit/miss and eviction counters for a cache instance."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0

    #: Included in :meth:`MetricSource.snapshot` alongside the raw counters.
    derived_metrics = ("accesses", "hit_ratio")

    @property
    def accesses(self) -> int:
        """Total lookups performed."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups that hit; 0.0 when no lookups happened."""
        total = self.accesses
        return self.hits / total if total else 0.0


class EvictionPolicy(ABC):
    """Bookkeeping interface used by :class:`PageCache`.

    A policy tracks *which* resident page should be evicted next; the cache
    itself tracks residency and dirtiness.
    """

    @abstractmethod
    def on_hit(self, key: Hashable) -> None:
        """Record an access to a resident page."""

    @abstractmethod
    def on_insert(self, key: Hashable) -> None:
        """Record the insertion of a new resident page."""

    @abstractmethod
    def select_victim(self) -> Hashable:
        """Evict and return the next victim.

        The victim is removed from the policy's *resident* tracking; policies
        with ghost lists (ARC, 2Q) may keep remembering the key there.
        """

    @abstractmethod
    def discard(self, key: Hashable) -> None:
        """Forget a page that was removed without eviction (invalidation)."""

    @abstractmethod
    def clear(self) -> None:
        """Forget everything."""

    @abstractmethod
    def resident_order(self) -> List[Hashable]:
        """Resident keys ordered so that re-inserting them into a fresh policy
        best reproduces this policy's state (next victim first).

        State snapshots (:mod:`repro.aging.snapshot`) persist this order and
        rebuild the policy by replaying inserts; every policy must implement
        it so snapshotting can never silently fall back to an arbitrary
        order.  Ghost lists and reference bits are not captured -- the
        reconstruction is an approximation, but a deterministic one.
        """


class LRUPolicy(EvictionPolicy):
    """Strict least-recently-used ordering."""

    def __init__(self) -> None:
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_hit(self, key: Hashable) -> None:
        self._order.move_to_end(key)

    def on_insert(self, key: Hashable) -> None:
        self._order[key] = None

    def select_victim(self) -> Hashable:
        key, _ = self._order.popitem(last=False)
        return key

    def discard(self, key: Hashable) -> None:
        self._order.pop(key, None)

    def clear(self) -> None:
        self._order.clear()

    def resident_order(self) -> List[Hashable]:
        return list(self._order)


class FIFOPolicy(EvictionPolicy):
    """First-in first-out: insertion order, accesses do not promote."""

    def __init__(self) -> None:
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_hit(self, key: Hashable) -> None:
        # FIFO ignores recency.
        return

    def on_insert(self, key: Hashable) -> None:
        self._order[key] = None

    def select_victim(self) -> Hashable:
        key, _ = self._order.popitem(last=False)
        return key

    def discard(self, key: Hashable) -> None:
        self._order.pop(key, None)

    def clear(self) -> None:
        self._order.clear()

    def resident_order(self) -> List[Hashable]:
        return list(self._order)


class ClockPolicy(EvictionPolicy):
    """Second-chance (CLOCK) approximation of LRU.

    Pages are kept on a circular list with a reference bit; the clock hand
    skips (and clears) referenced pages and evicts the first unreferenced one.
    """

    def __init__(self) -> None:
        self._ref: Dict[Hashable, bool] = {}
        self._ring: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_hit(self, key: Hashable) -> None:
        if key in self._ref:
            self._ref[key] = True

    def on_insert(self, key: Hashable) -> None:
        self._ref[key] = False
        self._ring[key] = None

    def select_victim(self) -> Hashable:
        # Sweep the hand: give referenced pages a second chance by moving them
        # to the back with the bit cleared.
        while True:
            key = next(iter(self._ring))
            if self._ref.get(key, False):
                self._ref[key] = False
                self._ring.move_to_end(key)
            else:
                del self._ring[key]
                self._ref.pop(key, None)
                return key

    def discard(self, key: Hashable) -> None:
        self._ref.pop(key, None)
        self._ring.pop(key, None)

    def clear(self) -> None:
        self._ref.clear()
        self._ring.clear()

    def resident_order(self) -> List[Hashable]:
        return list(self._ring)


class ARCPolicy(EvictionPolicy):
    """Adaptive Replacement Cache (Megiddo & Modha).

    Maintains two resident lists (T1: recently seen once, T2: seen at least
    twice) and two ghost lists (B1, B2) of recently evicted keys.  The target
    size of T1 (``p``) adapts based on which ghost list gets hit.
    """

    def __init__(self, capacity_hint: int = 1024) -> None:
        if capacity_hint <= 0:
            raise ValueError("capacity_hint must be positive")
        self.capacity = capacity_hint
        self.p = 0.0
        self.t1: "OrderedDict[Hashable, None]" = OrderedDict()
        self.t2: "OrderedDict[Hashable, None]" = OrderedDict()
        self.b1: "OrderedDict[Hashable, None]" = OrderedDict()
        self.b2: "OrderedDict[Hashable, None]" = OrderedDict()

    # -- helpers -------------------------------------------------------------
    def _trim_ghosts(self) -> None:
        while len(self.b1) > self.capacity:
            self.b1.popitem(last=False)
        while len(self.b2) > self.capacity:
            self.b2.popitem(last=False)

    def on_hit(self, key: Hashable) -> None:
        if key in self.t1:
            del self.t1[key]
            self.t2[key] = None
        elif key in self.t2:
            self.t2.move_to_end(key)

    def on_insert(self, key: Hashable) -> None:
        if key in self.b1:
            # A miss that hits the "recency" ghost list: grow T1's target.
            delta = 1.0 if len(self.b1) >= len(self.b2) else len(self.b2) / max(1, len(self.b1))
            self.p = min(float(self.capacity), self.p + delta)
            del self.b1[key]
            self.t2[key] = None
        elif key in self.b2:
            # A miss that hits the "frequency" ghost list: shrink T1's target.
            delta = 1.0 if len(self.b2) >= len(self.b1) else len(self.b1) / max(1, len(self.b2))
            self.p = max(0.0, self.p - delta)
            del self.b2[key]
            self.t2[key] = None
        else:
            self.t1[key] = None
        self._trim_ghosts()

    def select_victim(self) -> Hashable:
        prefer_t1 = len(self.t1) > 0 and (len(self.t1) > self.p or len(self.t2) == 0)
        if prefer_t1:
            key = next(iter(self.t1))
            del self.t1[key]
            self.b1[key] = None
        else:
            key = next(iter(self.t2))
            del self.t2[key]
            self.b2[key] = None
        self._trim_ghosts()
        return key

    def discard(self, key: Hashable) -> None:
        self.t1.pop(key, None)
        self.t2.pop(key, None)
        self.b1.pop(key, None)
        self.b2.pop(key, None)

    def clear(self) -> None:
        self.p = 0.0
        self.t1.clear()
        self.t2.clear()
        self.b1.clear()
        self.b2.clear()

    def resident_order(self) -> List[Hashable]:
        return list(self.t1) + list(self.t2)


class TwoQPolicy(EvictionPolicy):
    """The 2Q algorithm: a FIFO probation queue, a ghost queue and an LRU main queue."""

    def __init__(self, capacity_hint: int = 1024, kin_fraction: float = 0.25, kout_fraction: float = 0.5) -> None:
        if capacity_hint <= 0:
            raise ValueError("capacity_hint must be positive")
        if not (0.0 < kin_fraction < 1.0):
            raise ValueError("kin_fraction must be in (0, 1)")
        self.capacity = capacity_hint
        self.kin = max(1, int(capacity_hint * kin_fraction))
        self.kout = max(1, int(capacity_hint * kout_fraction))
        self.a1in: "OrderedDict[Hashable, None]" = OrderedDict()
        self.a1out: "OrderedDict[Hashable, None]" = OrderedDict()
        self.am: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_hit(self, key: Hashable) -> None:
        if key in self.am:
            self.am.move_to_end(key)
        # A hit in A1in does not promote: 2Q only promotes on re-reference
        # after leaving A1in (tracked via the ghost queue at insert time).

    def on_insert(self, key: Hashable) -> None:
        if key in self.a1out:
            del self.a1out[key]
            self.am[key] = None
        else:
            self.a1in[key] = None

    def select_victim(self) -> Hashable:
        if len(self.a1in) > self.kin or not self.am:
            key = next(iter(self.a1in))
            del self.a1in[key]
            self.a1out[key] = None
            while len(self.a1out) > self.kout:
                self.a1out.popitem(last=False)
        else:
            key = next(iter(self.am))
            del self.am[key]
        return key

    def discard(self, key: Hashable) -> None:
        self.a1in.pop(key, None)
        self.a1out.pop(key, None)
        self.am.pop(key, None)

    def clear(self) -> None:
        self.a1in.clear()
        self.a1out.clear()
        self.am.clear()

    def resident_order(self) -> List[Hashable]:
        return list(self.a1in) + list(self.am)


def _make_policy(policy: CachePolicy, capacity_pages: int) -> EvictionPolicy:
    if policy == CachePolicy.LRU:
        return LRUPolicy()
    if policy == CachePolicy.CLOCK:
        return ClockPolicy()
    if policy == CachePolicy.ARC:
        return ARCPolicy(capacity_hint=capacity_pages)
    if policy == CachePolicy.TWO_Q:
        return TwoQPolicy(capacity_hint=capacity_pages)
    if policy == CachePolicy.FIFO:
        return FIFOPolicy()
    raise ValueError(f"unknown cache policy: {policy!r}")


class PageCache:
    """A page-granular cache of file data with dirty-page tracking.

    Parameters
    ----------
    capacity_pages:
        Number of pages the cache can hold.  ``0`` disables caching entirely
        (every lookup misses), which is occasionally useful for isolating the
        on-disk dimension.
    policy:
        Eviction policy name or :class:`CachePolicy` value.
    page_size:
        Page size in bytes (informational; the cache itself is page-indexed).
    """

    def __init__(
        self,
        capacity_pages: int,
        policy: CachePolicy = CachePolicy.LRU,
        page_size: int = 4096,
    ) -> None:
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be non-negative")
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        # lint: ephemeral -- geometry, rebuilt from the testbed on restore
        self.capacity_pages = int(capacity_pages)
        self.page_size = int(page_size)
        self.policy_name = CachePolicy(policy)
        self._policy = _make_policy(self.policy_name, max(1, capacity_pages))
        #: Resident page indexes by inode number; an inode with no resident
        #: page has no entry, so one file's pages are found without a scan.
        self._resident: Dict[int, Set[int]] = {}
        # lint: ephemeral -- the number of pages in _resident, kept beside it
        self._resident_count = 0
        self._dirty: Set[PageKey] = set()
        self.stats = CacheStats()

    # ------------------------------------------------------------ inspection
    def __len__(self) -> int:
        return self._resident_count

    def __contains__(self, key: PageKey) -> bool:
        return key[1] in self._resident.get(key[0], ())

    @property
    def dirty_pages(self) -> int:
        """Number of dirty (modified, not yet written back) pages."""
        return len(self._dirty)

    @property
    def capacity_bytes(self) -> int:
        """Cache capacity expressed in bytes."""
        return self.capacity_pages * self.page_size

    def resident_pages_of(self, inode_number: int) -> int:
        """Count resident pages belonging to ``inode_number`` (O(1))."""
        return len(self._resident.get(inode_number, ()))

    def _remove_resident(self, key: PageKey) -> None:
        ino, page = key
        pages = self._resident[ino]
        pages.remove(page)
        if not pages:
            del self._resident[ino]
        self._resident_count -= 1

    # --------------------------------------------------------------- actions
    def lookup(self, key: PageKey) -> bool:
        """Return True on a cache hit and record the access."""
        if key[1] in self._resident.get(key[0], ()):
            self.stats.hits += 1
            self._policy.on_hit(key)
            return True
        self.stats.misses += 1
        return False

    def peek(self, key: PageKey) -> bool:
        """Return residency without recording an access (no stats, no promotion)."""
        return key[1] in self._resident.get(key[0], ())

    def insert(self, key: PageKey, dirty: bool = False) -> List[Tuple[PageKey, bool]]:
        """Insert a page, evicting as needed.

        Returns the list of ``(key, was_dirty)`` pairs evicted to make room.
        Dirty evictions must be written back by the caller (the VFS charges
        device time for them).
        """
        if self.capacity_pages == 0:
            return []
        evicted: List[Tuple[PageKey, bool]] = []
        ino, page = key
        if page in self._resident.get(ino, ()):
            self._policy.on_hit(key)
            if dirty:
                self._dirty.add(key)
            return evicted

        while self._resident_count >= self.capacity_pages:
            victim = self._policy.select_victim()
            # The policy must only return resident pages; a desync here is a bug.
            self._remove_resident(victim)
            was_dirty = victim in self._dirty
            if was_dirty:
                self._dirty.remove(victim)
                self.stats.dirty_evictions += 1
            self.stats.evictions += 1
            evicted.append((victim, was_dirty))

        # Looked up after evicting: an eviction may drop this inode's entry.
        pages = self._resident.get(ino)
        if pages is None:
            self._resident[ino] = {page}
        else:
            pages.add(page)
        self._resident_count += 1
        if dirty:
            self._dirty.add(key)
        self._policy.on_insert(key)
        self.stats.insertions += 1
        return evicted

    def mark_dirty(self, key: PageKey) -> None:
        """Mark a resident page dirty (no-op if the page is not resident)."""
        if key in self:
            self._dirty.add(key)

    def clean(self, key: PageKey) -> None:
        """Mark a page clean after it has been written back."""
        self._dirty.discard(key)

    def dirty_keys(self) -> List[PageKey]:
        """Snapshot of the currently dirty page keys, in (inode, page) order.

        Sorted, not set order: callers write these pages back, so the order
        reaches the device request stream and must not depend on hash-table
        layout.
        """
        return sorted(self._dirty)

    def invalidate(self, key: PageKey) -> bool:
        """Drop a single page; returns True if it was resident."""
        if key not in self:
            return False
        self._remove_resident(key)
        self._dirty.discard(key)
        self._policy.discard(key)
        self.stats.invalidations += 1
        return True

    def invalidate_inode(self, inode_number: int) -> int:
        """Drop every page of one file; returns the number of pages dropped."""
        pages = self._resident.pop(inode_number, ())
        for page in sorted(pages):
            key = (inode_number, page)
            self._dirty.discard(key)
            self._policy.discard(key)
        self._resident_count -= len(pages)
        self.stats.invalidations += len(pages)
        return len(pages)

    def drop_caches(self) -> int:
        """Drop all clean *and* dirty pages (like ``echo 3 > drop_caches`` plus sync loss).

        Returns the number of pages dropped.  Benchmark runners call this
        between repetitions to restore a cold cache.
        """
        dropped = self._resident_count
        self._resident.clear()
        self._resident_count = 0
        self._dirty.clear()
        self._policy.clear()
        return dropped

    # ------------------------------------------------------- snapshot support
    def export_state(self) -> Tuple[List[PageKey], List[PageKey]]:
        """``(resident, dirty)`` where ``resident`` is in restore order.

        Replaying ``insert`` over the resident list (dirty bits applied)
        deterministically reconstructs the cache, including the eviction
        policy's bookkeeping (see :meth:`EvictionPolicy.resident_order`).
        """
        every = {(ino, page) for ino, pages in self._resident.items() for page in pages}
        resident = [key for key in self._policy.resident_order() if key in every]
        # Residency is the cache's source of truth; anything a policy failed
        # to report is appended in sorted (still deterministic) order.
        resident += sorted(every.difference(resident))
        return resident, sorted(self._dirty)

    def restore_state(self, resident: List[PageKey], dirty: List[PageKey]) -> None:
        """Rebuild cache contents exported by :meth:`export_state`.

        Existing contents are dropped; statistics are reset afterwards so
        the replayed inserts leave no trace in the counters.  A smaller
        capacity than at export time simply evicts during the replay.
        """
        self.drop_caches()
        dirty_set = set(dirty)
        for key in resident:
            self.insert(key, dirty=key in dirty_set)
        self.stats.reset()

    def resize(self, capacity_pages: int) -> List[Tuple[PageKey, bool]]:
        """Change the capacity; shrinking evicts pages and returns them."""
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be non-negative")
        self.capacity_pages = int(capacity_pages)
        evicted: List[Tuple[PageKey, bool]] = []
        while self._resident_count > self.capacity_pages:
            victim = self._policy.select_victim()
            self._remove_resident(victim)
            was_dirty = victim in self._dirty
            self._dirty.discard(victim)
            self.stats.evictions += 1
            if was_dirty:
                self.stats.dirty_evictions += 1
            evicted.append((victim, was_dirty))
        return evicted

    def __repr__(self) -> str:
        mb = self.capacity_bytes / (1024 * 1024)
        return (
            f"PageCache({self.policy_name.value}, {mb:.0f}MiB, "
            f"{self._resident_count}/{self.capacity_pages} pages)"
        )
