"""Block layer: I/O requests, schedulers and the block device facade.

The block device sits between the file systems and a :class:`DeviceModel`.
It accepts single requests or batches, lets an I/O scheduler reorder batches
(NOOP, elevator/C-SCAN, or deadline), and charges the resulting service time
to the shared virtual clock via its return value.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.obs.metrics import MetricSource
from repro.storage.disk import DeviceModel


@dataclass(slots=True)
class IORequest:
    """A single block-level request.

    Requests are never modified once built: merging and scheduling build new
    ones or reorder the same objects.  The class is slotted, not frozen: a
    frozen dataclass sets each field through ``object.__setattr__``, and
    building a request, which the data path does for every device I/O, cost
    about four times as much that way.  Being mutable, it is not hashable.

    Attributes
    ----------
    offset_bytes:
        Byte offset on the device.
    nbytes:
        Request length in bytes.
    is_write:
        Write when true, read otherwise.
    is_discard:
        Discard/TRIM when true: tells the device the range no longer holds
        live data.  Mutually exclusive with ``is_write`` (a discard is its
        own operation, not a kind of write).  Only devices whose model
        advertises ``supports_discard`` ever see these; the VFS drops them
        for everything else, exactly like the real block layer.
    priority:
        Smaller numbers are more urgent; only the deadline scheduler uses it
        (e.g. journal commits over background writeback).
    """

    offset_bytes: int
    nbytes: int
    is_write: bool = False
    is_discard: bool = False
    priority: int = 0

    def __post_init__(self) -> None:
        if self.offset_bytes < 0:
            raise ValueError("offset_bytes must be non-negative")
        if self.nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if self.is_discard and self.is_write:
            raise ValueError("a request is either a write or a discard, not both")

    @property
    def end_bytes(self) -> int:
        """One past the last byte touched by the request."""
        return self.offset_bytes + self.nbytes


class IOScheduler(ABC):
    """Reorders (and possibly merges) a batch of requests before dispatch."""

    name: str = "abstract"

    @abstractmethod
    def order(self, requests: Sequence[IORequest], head_offset: int) -> List[IORequest]:
        """Return the dispatch order for ``requests``.

        ``head_offset`` is the device's current head position in bytes, which
        position-aware schedulers use as the sweep origin.
        """

    @staticmethod
    def merge_adjacent(requests: Sequence[IORequest]) -> List[IORequest]:
        """Merge physically adjacent same-direction requests into larger ones.

        Merging only applies to *consecutive* requests that are exactly
        contiguous: coalescing must not reorder the batch, because ordering is
        the scheduler's job (and the NOOP scheduler's whole contract is that
        dispatch happens in arrival order).  Unmerged requests therefore come
        back in arrival order, with runs of adjacent requests collapsed.
        """
        merged: List[IORequest] = []
        for req in requests:
            last = merged[-1] if merged else None
            if (
                last is not None
                and req.is_write == last.is_write
                and req.is_discard == last.is_discard
                and req.offset_bytes == last.end_bytes
            ):
                merged[-1] = IORequest(
                    offset_bytes=last.offset_bytes,
                    nbytes=last.nbytes + req.nbytes,
                    is_write=last.is_write,
                    is_discard=last.is_discard,
                    priority=min(last.priority, req.priority),
                )
            else:
                merged.append(req)
        return merged


class NoopScheduler(IOScheduler):
    """Dispatch in arrival order, merging adjacent requests only."""

    name = "noop"

    def order(self, requests: Sequence[IORequest], head_offset: int) -> List[IORequest]:
        return list(requests)


class ElevatorScheduler(IOScheduler):
    """C-SCAN elevator: sweep upward from the head position, then wrap."""

    name = "elevator"

    def order(self, requests: Sequence[IORequest], head_offset: int) -> List[IORequest]:
        ahead = sorted((r for r in requests if r.offset_bytes >= head_offset), key=lambda r: r.offset_bytes)
        behind = sorted((r for r in requests if r.offset_bytes < head_offset), key=lambda r: r.offset_bytes)
        return ahead + behind


class DeadlineScheduler(IOScheduler):
    """Priority buckets dispatched elevator-style within each bucket."""

    name = "deadline"

    def order(self, requests: Sequence[IORequest], head_offset: int) -> List[IORequest]:
        result: List[IORequest] = []
        for priority in sorted({r.priority for r in requests}):
            bucket = [r for r in requests if r.priority == priority]
            result.extend(ElevatorScheduler().order(bucket, head_offset))
        return result


#: Registry of I/O scheduler constructors by name -- the name->factory
#: resolver behind ``TestbedConfig.io_scheduler`` and the experiment grid's
#: ``scheduler`` axis (mirrors ``FS_REGISTRY``).
SCHEDULER_REGISTRY = {
    "noop": NoopScheduler,
    "elevator": ElevatorScheduler,
    "deadline": DeadlineScheduler,
}


def make_scheduler(name: str) -> IOScheduler:
    """Instantiate a scheduler by name (any key of :data:`SCHEDULER_REGISTRY`)."""
    try:
        return SCHEDULER_REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown I/O scheduler: {name!r}") from None


@dataclass
class BlockDeviceStats(MetricSource):
    """Aggregate counters for a block device."""

    requests: int = 0
    read_requests: int = 0
    write_requests: int = 0
    discard_requests: int = 0
    merged_requests: int = 0
    batches: int = 0
    total_service_ns: float = 0.0


class BlockDevice:
    """Facade over a device model: scheduling, merging and accounting.

    Parameters
    ----------
    model:
        The underlying :class:`DeviceModel` producing service times.
    scheduler:
        The I/O scheduler used for batched submissions.
    merge:
        Whether adjacent requests in a batch may be coalesced.
    """

    def __init__(
        self,
        model: DeviceModel,
        scheduler: Optional[IOScheduler] = None,
        merge: bool = True,
    ) -> None:
        self.model = model
        self.scheduler = scheduler if scheduler is not None else NoopScheduler()
        self.merge = merge
        self.stats = BlockDeviceStats()
        #: Optional :class:`repro.obs.Tracer` observing per-request service.
        self.tracer = None

    # ------------------------------------------------------------ single ops
    def read(self, offset_bytes: int, nbytes: int, rng: random.Random) -> float:
        """Synchronously read one extent; returns service time in ns."""
        latency = self.model.read(offset_bytes, nbytes, rng)
        self.stats.requests += 1
        self.stats.read_requests += 1
        self.stats.total_service_ns += latency
        return latency

    def write(self, offset_bytes: int, nbytes: int, rng: random.Random) -> float:
        """Synchronously write one extent; returns service time in ns."""
        latency = self.model.write(offset_bytes, nbytes, rng)
        self.stats.requests += 1
        self.stats.write_requests += 1
        self.stats.total_service_ns += latency
        return latency

    def discard(self, offset_bytes: int, nbytes: int, rng: random.Random) -> float:
        """Discard (TRIM) one extent; returns service time in ns.

        A no-op (and unaccounted) when the model does not support discards,
        so issuing discards unconditionally never changes the behaviour of
        devices that cannot use them.
        """
        if not self.supports_discard:
            return 0.0
        latency = self.model.discard(offset_bytes, nbytes, rng)
        self.stats.requests += 1
        self.stats.discard_requests += 1
        self.stats.total_service_ns += latency
        return latency

    @property
    def supports_discard(self) -> bool:
        """True when the underlying device model honours discard/TRIM."""
        return bool(getattr(self.model, "supports_discard", False))

    def flush(self, rng: random.Random) -> float:
        """Issue a cache-flush/barrier if the model supports one."""
        flush = getattr(self.model, "flush_latency_ns", None)
        if flush is None:
            return 0.0
        latency = flush(rng)
        self.stats.total_service_ns += latency
        return latency

    # --------------------------------------------------------------- batches
    def submit(self, requests: Sequence[IORequest], rng: random.Random) -> float:
        """Dispatch a batch through the scheduler; returns total service time in ns.

        The batch is served back-to-back (queue depth 1 at the device), which
        is the right model for the synchronous read paths exercised by the
        paper's case study.  Parallel submitters are modelled at the workload
        layer (see :mod:`repro.workloads.spec`).
        """
        if not requests:
            return 0.0
        if len(requests) == 1:
            # Every scheduler returns a batch of one unchanged, and there is
            # nothing to merge it with.
            ordered = requests
        else:
            head = getattr(self.model, "_head_offset", 0)
            # Order first, merge second: coalescing only collapses
            # *consecutive* contiguous requests, so the scheduler decides
            # adjacency.  Under NOOP the dispatch order stays the arrival
            # order; under elevator/deadline, sorting brings contiguous
            # requests together and they merge exactly as a real block
            # layer's sorted queue would.
            ordered = self.scheduler.order(list(requests), head)
            if self.merge:
                before = len(ordered)
                ordered = IOScheduler.merge_adjacent(ordered)
                self.stats.merged_requests += before - len(ordered)

        total = 0.0
        tracer = self.tracer
        for req in ordered:
            # `lat = ...; total += lat` is float-identical to the former
            # `total += ...`; the tracer only observes the computed value.
            if req.is_discard:
                lat = self.model.discard(req.offset_bytes, req.nbytes, rng)
                self.stats.discard_requests += 1
            elif req.is_write:
                lat = self.model.write(req.offset_bytes, req.nbytes, rng)
                self.stats.write_requests += 1
            else:
                lat = self.model.read(req.offset_bytes, req.nbytes, rng)
                self.stats.read_requests += 1
            total += lat
            self.stats.requests += 1
            if tracer is not None:
                tracer.device_request(req, lat, self.model.last_components)
        self.stats.batches += 1
        self.stats.total_service_ns += total
        return total

    # ------------------------------------------------------------------ misc
    @property
    def capacity_bytes(self) -> int:
        """Capacity of the underlying device."""
        return self.model.capacity_bytes

    def reset_state(self) -> None:
        """Reset device and block-layer statistics and dynamic device state."""
        self.model.reset_state()
        self.stats.reset()

    def __repr__(self) -> str:
        return f"BlockDevice({self.model!r}, scheduler={self.scheduler.name})"
