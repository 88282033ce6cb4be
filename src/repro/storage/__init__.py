"""Simulated storage substrate.

This subpackage provides the layers *below* the file system that the paper
identifies as dominating benchmark results:

* :mod:`repro.storage.clock` -- the virtual (simulated) clock that every
  latency in the framework is charged against.
* :mod:`repro.storage.disk` -- mechanical disk and SSD device models that turn
  a block request into nanoseconds of simulated time.
* :mod:`repro.storage.flash` -- the stateful NAND model: a page-mapped flash
  translation layer with garbage collection, wear counters, discard (TRIM)
  support and deterministic steady-state preconditioning.
* :mod:`repro.storage.device` -- the block layer: request queues and I/O
  schedulers in front of a device model.
* :mod:`repro.storage.cache` -- the page cache with pluggable eviction
  policies (LRU, CLOCK, ARC, 2Q) and dirty-page writeback.
* :mod:`repro.storage.readahead` -- sequential-stream detection and readahead
  window management.
* :mod:`repro.storage.config` -- testbed descriptions, including the paper's
  512 MB / single-SATA-disk machine.

Everything here operates purely in simulated time; no real I/O is performed.
"""

from repro.storage.clock import VirtualClock
from repro.storage.config import (
    DEFAULT_DEVICE_KINDS,
    DEVICE_REGISTRY,
    TestbedConfig,
    paper_testbed,
    scaled_testbed,
)
from repro.storage.flash import (
    FlashGeometry,
    FlashTranslationLayer,
    PreconditionReport,
    default_flash_geometry,
    precondition_ssd,
)
from repro.storage.cache import CachePolicy, CacheStats, PageCache
from repro.storage.device import (
    SCHEDULER_REGISTRY,
    BlockDevice,
    IORequest,
    IOScheduler,
    NoopScheduler,
    ElevatorScheduler,
    DeadlineScheduler,
)
from repro.storage.disk import (
    DeviceModel,
    DiskGeometry,
    MechanicalDisk,
    SolidStateDisk,
    RamDisk,
)
from repro.storage.readahead import ReadaheadPolicy, ReadaheadState

__all__ = [
    "VirtualClock",
    "DEFAULT_DEVICE_KINDS",
    "DEVICE_REGISTRY",
    "SCHEDULER_REGISTRY",
    "TestbedConfig",
    "paper_testbed",
    "scaled_testbed",
    "FlashGeometry",
    "FlashTranslationLayer",
    "PreconditionReport",
    "default_flash_geometry",
    "precondition_ssd",
    "CachePolicy",
    "CacheStats",
    "PageCache",
    "BlockDevice",
    "IORequest",
    "IOScheduler",
    "NoopScheduler",
    "ElevatorScheduler",
    "DeadlineScheduler",
    "DeviceModel",
    "DiskGeometry",
    "MechanicalDisk",
    "SolidStateDisk",
    "RamDisk",
    "ReadaheadPolicy",
    "ReadaheadState",
]
