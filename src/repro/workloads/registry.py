"""The workload registry: the grid's name -> factory resolver.

``WORKLOAD_REGISTRY`` mirrors ``repro.fs.stack.FS_REGISTRY`` for the workload
axis of the declarative experiment API: every entry maps a stable name to a
factory ``f(testbed) -> WorkloadSpec``.  Factories are *testbed-aware* so
working sets keep measuring what they claim to measure on any machine size
(the same sizing discipline :func:`repro.core.suite.default_suite` uses):
``random-read-cached`` is always well inside the page cache,
``random-read-ondisk`` always 4x beyond it, and so on.  The experiment grid
passes the *base* testbed, never a per-cell variant, so testbed axes
(``cache_mb``, ``device``, ``scheduler``) vary the machine under a fixed
workload rather than resizing the workload in lockstep.

Register additional workloads with :func:`register_workload`; grid axes may
also carry ready-made :class:`~repro.workloads.spec.WorkloadSpec` or
:class:`~repro.core.benchmark.NanoBenchmark` objects directly when a name is
not enough.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.workloads.fileset import FilesetSpec
from repro.workloads.micro import (
    append_workload,
    create_delete_workload,
    metadata_mix_workload,
    random_read_workload,
    random_write_workload,
    sequential_read_workload,
    sequential_write_workload,
    stat_workload,
)
from repro.workloads.personalities import (
    fileserver_personality,
    oltp_personality,
    varmail_personality,
    webserver_personality,
)
from repro.workloads.randomdist import UniformSizes
from repro.workloads.spec import FileSelector, FlowOp, OpType, WorkloadSpec

KiB = 1024
MiB = 1024 * 1024

#: name -> factory(testbed) -> WorkloadSpec.  The experiment grid resolves
#: its ``workload`` axis here; ``fsbench-rocket list`` enumerates it.
WORKLOAD_REGISTRY: Dict[str, Callable[..., WorkloadSpec]] = {}


def register_workload(name: str, factory: Callable[..., WorkloadSpec]) -> None:
    """Register (or replace) a named workload factory.

    ``factory`` receives the cell's :class:`~repro.storage.config.TestbedConfig`
    as its only argument and must return a fresh
    :class:`~repro.workloads.spec.WorkloadSpec`.
    """
    if not name:
        raise ValueError("workload name must be non-empty")
    if not callable(factory):
        raise TypeError("workload factory must be callable")
    WORKLOAD_REGISTRY[name] = factory


def postmark_workload(
    file_count: int = 500,
    min_size: int = 512,
    max_size: int = 16 * KiB,
    subdirectories: int = 10,
    iosize: int = 4 * KiB,
    op_overhead_ns: float = 98_000.0,
) -> WorkloadSpec:
    """A PostMark-style transaction mix as a declarative workload spec.

    PostMark (Katcher, 1997) is the standard benchmark the paper's survey
    finds most often in file system papers, reported as one bare
    "transactions per second".  This spec expresses its transaction blend
    -- create/delete churn and read/append traffic over a pool of small
    files -- as flowops, so it rides the measurement protocol, the parallel
    executor and the experiment grid like every other workload, and is
    reported as a distribution over repetitions rather than one number.
    """
    return WorkloadSpec(
        name="postmark",
        description=(
            "PostMark-style small-file transactions "
            "(create/delete + read/append over a shallow directory tree)"
        ),
        flowops=[
            FlowOp(op=OpType.CREATE),
            FlowOp(op=OpType.READ, iosize=iosize, file_selector=FileSelector.RANDOM),
            FlowOp(op=OpType.APPEND, iosize=iosize, file_selector=FileSelector.RANDOM),
            FlowOp(op=OpType.READ, iosize=iosize, file_selector=FileSelector.RANDOM),
            FlowOp(op=OpType.DELETE),
        ],
        fileset=FilesetSpec(
            name="postmark-pool",
            file_count=file_count,
            size_distribution=UniformSizes(min_size, max_size),
            directories=subdirectories,
            prealloc_fraction=1.0,
        ),
        op_overhead_ns=op_overhead_ns,
        dimensions=["metadata", "io", "caching"],
    )


def _cache_fraction(testbed, fraction: float, floor: int = 2 * MiB) -> int:
    """A working-set size relative to the testbed's page cache."""
    return max(floor, int(testbed.page_cache_bytes * fraction))


def _install_standard_workloads() -> None:
    """The shipped registry: micro components, macro personalities, PostMark."""
    register_workload(
        "random-read-cached", lambda testbed: random_read_workload(_cache_fraction(testbed, 0.25))
    )
    register_workload(
        "random-read-ondisk", lambda testbed: random_read_workload(_cache_fraction(testbed, 4.0))
    )
    register_workload(
        "cache-warmup", lambda testbed: random_read_workload(_cache_fraction(testbed, 0.95))
    )
    register_workload(
        "sequential-read", lambda testbed: sequential_read_workload(_cache_fraction(testbed, 4.0))
    )
    register_workload(
        "sequential-write",
        lambda testbed: sequential_write_workload(_cache_fraction(testbed, 1.0)),
    )
    register_workload(
        "random-write", lambda testbed: random_write_workload(_cache_fraction(testbed, 0.5))
    )
    register_workload("append-fsync", lambda testbed: append_workload(fsync_each=True))
    register_workload(
        "create-delete",
        lambda testbed: create_delete_workload(file_count=500, directories=10),
    )
    register_workload(
        "stat-scan", lambda testbed: stat_workload(file_count=2000, directories=40)
    )
    register_workload(
        "metadata-mix",
        lambda testbed: metadata_mix_workload(file_count=1000, directories=20),
    )
    register_workload("postmark", lambda testbed: postmark_workload())
    register_workload("webserver", lambda testbed: webserver_personality())
    register_workload("fileserver", lambda testbed: fileserver_personality())
    register_workload("varmail", lambda testbed: varmail_personality())
    register_workload("oltp", lambda testbed: oltp_personality())


_install_standard_workloads()
