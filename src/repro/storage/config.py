"""Testbed descriptions.

A :class:`TestbedConfig` captures everything about the simulated machine that
is *not* the file system or the workload: RAM size, how much of it the OS
reserves (and therefore how much page cache is actually available -- the
quantity that makes Figure 1 so fragile), the device model, the cache policy
and the software-path costs.

``paper_testbed()`` reproduces the paper's machine: an Intel Xeon 2.8 GHz with
RAM artificially limited to 512 MB and a single Maxtor 7L250S0 SATA disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

from repro.storage.cache import CachePolicy, PageCache
from repro.storage.device import BlockDevice, make_scheduler
from repro.storage.disk import (
    MAXTOR_7L250S0,
    DeviceModel,
    DiskGeometry,
    MechanicalDisk,
    RamDisk,
    SolidStateDisk,
)
from repro.storage.flash import (
    FlashTranslationLayer,
    default_flash_geometry,
    precondition_ssd,
)

MiB = 1024 * 1024
GiB = 1024 * MiB


def _flash_capacity(testbed: "TestbedConfig") -> int:
    """Logical FTL capacity for a testbed: 8x RAM, clamped to [1, 4] GiB.

    Tracking the machine keeps whole-device preconditioning cheap on the
    shrunken testbeds the tests and ``--quick`` runs use, while the paper
    testbed gets the full 4 GiB device.
    """
    return min(4 * GiB, max(1 * GiB, 8 * testbed.ram_bytes))


def _ftl_fresh(testbed: "TestbedConfig") -> DeviceModel:
    return FlashTranslationLayer(default_flash_geometry(_flash_capacity(testbed)))


#: Memoised preconditioned FTL state per logical capacity.  Preconditioning
#: is a pure function of (geometry, default arguments), so the first
#: ``ssd-ftl-steady`` construction per capacity pays the fill+churn cost and
#: every later one (each repetition of every steady cell) restores the same
#: exported state -- bit-identical, at a fraction of the cost.  Per-process,
#: so parallel workers each precondition once and stay deterministic.
_STEADY_FTL_STATES: Dict[int, Dict] = {}


def _ftl_steady(testbed: "TestbedConfig") -> DeviceModel:
    capacity = _flash_capacity(testbed)
    model = FlashTranslationLayer(default_flash_geometry(capacity))
    state = _STEADY_FTL_STATES.get(capacity)
    if state is None:
        precondition_ssd(model)
        _STEADY_FTL_STATES[capacity] = model.export_state()
    else:
        model.restore_state(state)
    return model


#: Registry of device-model factories by name, mirroring ``FS_REGISTRY``:
#: the single name->factory resolver behind ``TestbedConfig.device_kind`` and
#: the experiment grid's ``device`` axis.  Each factory receives the testbed
#: so device sizing (e.g. the ramdisk's capacity) can track the machine.
#:
#: ``ssd`` is the *legacy* stateless SSD model, kept byte-for-byte compatible
#: so existing cache keys stay valid; ``ssd-ftl`` is the stateful NAND model
#: (page-mapped FTL, garbage collection, wear, discard support).
#: ``ssd-ftl-fresh`` is an explicit alias of ``ssd-ftl`` and
#: ``ssd-ftl-steady`` the same device preconditioned to steady state, so the
#: fresh-vs-steady scenario family is a plain two-valued ``device`` axis.
DEVICE_REGISTRY: Dict[str, Callable[["TestbedConfig"], DeviceModel]] = {
    "hdd": lambda testbed: MechanicalDisk(testbed.disk_geometry),
    "ssd": lambda testbed: SolidStateDisk(),
    "ramdisk": lambda testbed: RamDisk(capacity_bytes=max(4 * GiB, 8 * testbed.ram_bytes)),
    "ssd-ftl": _ftl_fresh,
    "ssd-ftl-fresh": _ftl_fresh,
    "ssd-ftl-steady": _ftl_steady,
}

#: Every registered device kind, in registry order.
DEFAULT_DEVICE_KINDS = tuple(DEVICE_REGISTRY)


@dataclass(frozen=True)
class CpuCosts:
    """Software-path costs charged by the VFS, in nanoseconds.

    These model the parts of a real system that are pure CPU work: entering
    the kernel, looking up the page in the radix tree, and copying the page to
    user space.  They are what a "warm cache" benchmark actually measures.
    """

    syscall_overhead_ns: float = 1_500.0
    page_lookup_ns: float = 250.0
    page_copy_ns_per_4k: float = 900.0
    path_component_lookup_ns: float = 800.0
    #: Multiplicative spread (log-normal sigma) applied to CPU costs.
    jitter_sigma: float = 0.15

    def validate(self) -> None:
        """Raise ``ValueError`` if any cost is negative."""
        for name in (
            "syscall_overhead_ns",
            "page_lookup_ns",
            "page_copy_ns_per_4k",
            "path_component_lookup_ns",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")


@dataclass(frozen=True)
class TestbedConfig:
    """A complete description of the simulated machine.

    Attributes
    ----------
    name:
        Human-readable label used in reports.
    ram_bytes:
        Total physical memory.
    os_reserved_bytes:
        Memory consumed by the kernel, daemons and anonymous pages; the page
        cache gets what is left.  The paper observes that a 410 MB file was
        the largest that fit in the cache of their 512 MB machine, implying
        roughly 100 MB reserved.
    page_size:
        Page size in bytes.
    device_kind:
        Any name registered in :data:`DEVICE_REGISTRY` (``"hdd"``,
        ``"ssd"``, ``"ramdisk"``, ``"ssd-ftl"``, ``"ssd-ftl-fresh"``,
        ``"ssd-ftl-steady"``, ...).
    disk_geometry:
        Geometry used when ``device_kind == "hdd"``.
    cache_policy:
        Page cache eviction policy.
    io_scheduler:
        Name of the block-layer scheduler (``noop``, ``elevator``, ``deadline``).
    cpu:
        Software path costs.
    """

    name: str = "paper-testbed"
    ram_bytes: int = 512 * MiB
    os_reserved_bytes: int = 102 * MiB
    page_size: int = 4096
    device_kind: str = "hdd"
    disk_geometry: DiskGeometry = MAXTOR_7L250S0
    cache_policy: CachePolicy = CachePolicy.LRU
    io_scheduler: str = "noop"
    cpu: CpuCosts = field(default_factory=CpuCosts)

    # ----------------------------------------------------------- validation
    def validate(self) -> None:
        """Raise ``ValueError`` for impossible configurations."""
        if self.ram_bytes <= 0:
            raise ValueError("ram_bytes must be positive")
        if not (0 <= self.os_reserved_bytes < self.ram_bytes):
            raise ValueError("os_reserved_bytes must be in [0, ram_bytes)")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        if self.device_kind not in DEVICE_REGISTRY:
            known = ", ".join(DEVICE_REGISTRY)
            raise ValueError(f"unknown device_kind: {self.device_kind!r} (known: {known})")
        self.cpu.validate()
        if self.device_kind == "hdd":
            self.disk_geometry.validate()

    # ------------------------------------------------------------ derived
    @property
    def page_cache_bytes(self) -> int:
        """Memory available to the page cache."""
        return self.ram_bytes - self.os_reserved_bytes

    @property
    def page_cache_pages(self) -> int:
        """Page cache capacity in pages."""
        return self.page_cache_bytes // self.page_size

    # ------------------------------------------------------------ builders
    def build_device_model(self) -> DeviceModel:
        """Instantiate the configured device model (via :data:`DEVICE_REGISTRY`)."""
        try:
            factory = DEVICE_REGISTRY[self.device_kind]
        except KeyError:
            known = ", ".join(DEVICE_REGISTRY)
            raise ValueError(
                f"unknown device_kind: {self.device_kind!r} (known: {known})"
            ) from None
        return factory(self)

    def build_block_device(self) -> BlockDevice:
        """Instantiate the block device (device model + scheduler)."""
        return BlockDevice(self.build_device_model(), scheduler=make_scheduler(self.io_scheduler))

    def build_page_cache(self) -> PageCache:
        """Instantiate the page cache sized to the available memory."""
        return PageCache(
            self.page_cache_pages, policy=self.cache_policy, page_size=self.page_size
        )

    def with_ram(self, ram_bytes: int) -> "TestbedConfig":
        """Return a copy with a different RAM size (other fields unchanged)."""
        return replace(self, ram_bytes=ram_bytes)

    def with_cache_policy(self, policy: CachePolicy) -> "TestbedConfig":
        """Return a copy using a different cache eviction policy."""
        return replace(self, cache_policy=policy)

    def describe(self) -> str:
        """One-line human-readable description for report headers."""
        return (
            f"{self.name}: RAM {self.ram_bytes // MiB} MiB "
            f"({self.page_cache_bytes // MiB} MiB page cache), "
            f"{self.device_kind}, cache={self.cache_policy.value}, "
            f"scheduler={self.io_scheduler}"
        )


def paper_testbed() -> TestbedConfig:
    """The paper's testbed: 512 MB RAM, single 7200 RPM SATA disk, LRU cache."""
    config = TestbedConfig()
    config.validate()
    return config


def scaled_testbed(scale: float = 0.125, name: Optional[str] = None) -> TestbedConfig:
    """A proportionally shrunken testbed for fast tests and CI runs.

    Scaling RAM (and the OS reservation) by ``scale`` moves the Figure-1 cliff
    to ``scale`` times the paper's file sizes while preserving its shape; the
    unit tests rely on this to exercise full warm-up cycles in milliseconds.
    """
    if not (0 < scale <= 1):
        raise ValueError("scale must be in (0, 1]")
    base = paper_testbed()
    config = replace(
        base,
        name=name or f"scaled-testbed-{scale:g}",
        ram_bytes=max(1, int(base.ram_bytes * scale)),
        os_reserved_bytes=max(0, int(base.os_reserved_bytes * scale)),
    )
    config.validate()
    return config
