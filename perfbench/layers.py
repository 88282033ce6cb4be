"""Which simulator functions the traced mode wraps, and the per-layer metrics.

Each layer is a list of functions named by module, class and attribute.
Private names appear only where a layer has no public boundary at the grain
the benchmark needs: ``WorkloadEngine._execute_one`` is the one place a
simulated op begins and ends, ``BenchmarkRunner._warm_up`` brackets cache
warm-up, and ``_Recorder.__call__`` is the per-op result recorder.  Trivial
accessors called many times per op (``VFS.idle``, ``VFS.open_file``,
``PageCache.peek``, ``PageCache.clean``, ``FileSystem.inode``,
``cluster_range``, ...) are left unwrapped: each wrapped call costs about a
microsecond, charged to its caller, which would bury the callers' own work.

Metric scopes: ``calls``, ``self_s`` and the per-call percentiles count
spans in the measured part only.  The set-up metrics (``*.setup_s``,
``warmup_s``, ``build_s``, ``precondition_s``, ``expand_s``, ``pack_s``,
``put.self_s``) count every span, because that work happens before or
between measured parts.  Metrics marked exact in the issue come from the
stacks' own counters and the result caches' statistics, not from timing.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.tracer import MEASURED, SETUP, CallTracer, TracedFunction, percentile

#: (layer, module, class or None, attributes) in table order.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("workloads", "repro.workloads.spec", "WorkloadEngine", ("setup", "run", "step", "_execute_one")),
    ("workloads", "repro.workloads.fileset", "FilesetSpec", ("materialize",)),
    ("core.runner", "repro.core.runner", None, ("run_single_repetition",)),
    ("core.runner", "repro.core.runner", "BenchmarkRunner", ("run_once", "_warm_up")),
    ("core.runner", "repro.core.runner", "_Recorder", ("__call__",)),
    ("fs.stack", "repro.fs.stack", None, ("build_stack",)),
    ("fs.stack", "repro.fs.stack", "StorageStack", ("reset_statistics", "drop_caches")),
    (
        "fs.vfs",
        "repro.fs.vfs",
        "VFS",
        (
            "open", "open_uncharged", "close", "read", "write", "create", "mkdir", "unlink",
            "truncate", "rmdir", "rename", "stat", "fsync", "fallocate", "mkdirs_uncharged",
            "sync", "drop_caches",
        ),
    ),
    ("fs.model", "repro.fs.base", "FileSystem", ("resolve", "exists", "list_directory")),
    (
        "fs.model",
        "repro.fs.base",
        "Inode",
        ("blocks_allocated", "fragmentation", "add_extent", "lookup_extent", "truncate_extents"),
    ),
    (
        "fs.model",
        "repro.fs.common",
        "UnixFileSystemBase",
        (
            "create", "mkdir", "unlink", "rmdir", "rename", "allocate_range", "truncate",
            "map_read", "lookup_cost", "fsync_cost", "free_blocks", "allocator_group_of",
        ),
    ),
    (
        "fs.model",
        "repro.fs.common",
        "DelayedAllocationMixin",
        ("allocate_range", "flush_delalloc", "map_read", "unlink", "truncate"),
    ),
    ("fs.model", "repro.fs.ext4", "Ext4FileSystem", ("fsync_cost",)),
    ("fs.allocation", "repro.fs.allocation", "BlockGroupAllocator", ("allocate", "free")),
    ("fs.allocation", "repro.fs.allocation", "MultiBlockAllocator", ("allocate",)),
    ("fs.allocation", "repro.fs.allocation", "ExtentAllocator", ("allocate", "free")),
    ("fs.journal", "repro.fs.journal", "Journal", ("commit", "force_checkpoint")),
    (
        "storage.cache",
        "repro.storage.cache",
        "PageCache",
        (
            "lookup", "insert", "dirty_keys", "invalidate", "invalidate_inode", "drop_caches",
            "resident_pages_of", "resize",
        ),
    ),
    ("storage.readahead", "repro.storage.readahead", "ReadaheadState", ("advise", "reset")),
    ("storage.device", "repro.storage.device", "BlockDevice", ("read", "write", "discard", "flush", "submit")),
    ("storage.disk", "repro.storage.disk", "DeviceModel", ("read", "write", "discard")),
    (
        "storage.disk",
        "repro.storage.disk",
        "MechanicalDisk",
        ("read_latency_ns", "write_latency_ns", "flush_latency_ns", "reset_state"),
    ),
    (
        "storage.flash",
        "repro.storage.flash",
        "FlashTranslationLayer",
        (
            "read_latency_ns", "write_latency_ns", "discard_latency_ns", "flush_latency_ns",
            "export_state", "restore_state", "reset_state",
        ),
    ),
    ("storage.flash", "repro.storage.flash", None, ("precondition_ssd",)),
    ("core.experiment", "repro.core.experiment", "Experiment", ("run", "cells", "make_executor")),
    ("core.parallel", "repro.core.parallel", None, ("cache_key", "execute_unit")),
    ("core.parallel", "repro.core.parallel", "WorkUnit", ("key",)),
    ("core.parallel", "repro.core.parallel", "ResultCache", ("get", "lookup", "put")),
    ("core.parallel", "repro.core.parallel", "ParallelExecutor", ("run_units",)),
    (
        "core.persistence",
        "repro.core.persistence",
        None,
        (
            "run_from_payload", "load_run_result", "run_result_from_dict",
            "canonical_run_payload", "save_run_result", "run_result_to_dict",
        ),
    ),
    ("core.frame", "repro.core.frame", "ResultFrame", ("from_cells",)),
    ("store", "repro.store.reader", "PackReader", ("__init__", "get", "get_run")),
    ("store", "repro.store.writer", "PackWriter", ("add", "finish")),
    ("store", "repro.store.writer", None, ("pack_result_cache",)),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in LAYER_FUNCTIONS))

#: Layers that simulate the storage stack (everything but the harness).
SIMULATOR_LAYERS = (
    "workloads", "core.runner", "fs.stack", "fs.vfs", "fs.model", "fs.allocation", "fs.journal",
    "storage.cache", "storage.readahead", "storage.device", "storage.disk", "storage.flash",
)

DECODE_FUNCTIONS = ("run_from_payload", "load_run_result", "run_result_from_dict")

#: Functions a layer table lists after the layers, heaviest first.
TOP_FUNCTIONS = 12

NS = 1e9


class StackCounters:
    """Sums the measured-window counters of every stack a traced pass builds.

    ``build_stack`` hands each new stack to :meth:`capture`; after each unit
    :meth:`harvest` reads the counters the runner reset before the measured
    window, so the sums cover measured windows only.
    """

    def __init__(self) -> None:
        self._stacks: List[Any] = []
        self.totals: Dict[str, float] = {}

    def capture(self, stack: Any) -> None:
        self._stacks.append(stack)

    def harvest(self) -> None:
        for stack in self._stacks:
            snapshot = stack.metrics_registry().snapshot()
            for layer, counters in snapshot.items():
                for counter, value in counters.items():
                    key = f"{layer}.{counter}"
                    self.totals[key] = self.totals.get(key, 0.0) + value
        self._stacks.clear()

    def get(self, key: str) -> float:
        return self.totals.get(key, 0.0)


def register(tracer: CallTracer, counters: StackCounters, measured_roots: Iterable[str]) -> None:
    """Wrap every function of :data:`LAYER_FUNCTIONS` on ``tracer``.

    ``measured_roots`` names (``Class.attr``) the functions whose calls are
    the measured part; a workload without any marks it with
    :meth:`CallTracer.measuring` instead.  A function that cannot be wrapped
    lands in ``tracer.missing``.
    """
    roots = set(measured_roots)
    for layer, module_name, class_name, attrs in LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        for attr in attrs:
            qualified = f"{class_name}.{attr}" if class_name else attr
            tracer.wrap(
                layer,
                owner,
                attr,
                measured_root=qualified in roots,
                # One simulated op, or one replayed unit, is one span group.
                opens_group=qualified in ("WorkloadEngine._execute_one", "WorkUnit.key"),
                closes_group=qualified in ("WorkloadEngine._execute_one", "ParallelExecutor.run_units"),
                on_return=counters.capture if qualified == "build_stack" else None,
            )


# ------------------------------------------------------------------ metrics
def _select(tracer: CallTracer, layer: Optional[str] = None, suffix: Optional[str] = None) -> List[TracedFunction]:
    return [
        function
        for function in tracer.functions
        if (layer is None or function.layer == layer)
        and (suffix is None or function.name.endswith(suffix))
    ]


def _calls(functions: Sequence[TracedFunction]) -> int:
    return sum(function.calls(MEASURED) for function in functions)


def _self_s(functions: Sequence[TracedFunction], scopes: Sequence[int] = (MEASURED,)) -> float:
    return sum(function.self_ns(scope) for function in functions for scope in scopes) / NS


def _total_s(functions: Sequence[TracedFunction]) -> float:
    return sum(function.total_ns(MEASURED) + function.total_ns(SETUP) for function in functions) / NS


def _sorted_durations(functions: Sequence[TracedFunction]) -> List[int]:
    values: List[int] = []
    for function in functions:
        values.extend(function.durations)
    values.sort()
    return values


def _us(functions: Sequence[TracedFunction], fraction: float) -> float:
    return percentile(_sorted_durations(functions), fraction) / 1e3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: CallTracer,
    counters: StackCounters,
    cache_totals: Dict[str, float],
    overhead: float,
) -> Dict[str, float]:
    """Every per-layer metric, by the name ``BENCHMARK.json`` declares it under.

    ``cache_totals`` sums the replays' ``CacheStats`` fields (``hits``,
    ``misses``, ``pack_hits``, ``blocks_read``); ``overhead`` is the traced
    over untraced wall time of the measured part.
    """
    both = (MEASURED, SETUP)

    def fn(suffix: str, layer: Optional[str] = None) -> List[TracedFunction]:
        return _select(tracer, layer, suffix)

    merged = counters.get("block.merged_requests")
    programmed = counters.get("device.pages_programmed")
    moved = counters.get("device.pages_moved")
    cache_hits = counters.get("cache.hits")
    values = {
        "workloads.ops": float(_calls(fn("WorkloadEngine._execute_one"))),
        "workloads.self_s": _self_s(_select(tracer, "workloads")),
        "workloads.setup_s": _total_s(fn("WorkloadEngine.setup")),
        "core.runner.record_s": _self_s(fn("_Recorder.__call__")),
        "core.runner.warmup_s": _total_s(fn("BenchmarkRunner._warm_up")),
        "fs.stack.build_s": _total_s(fn(".build_stack")),
        "fs.vfs.calls": float(_calls(_select(tracer, "fs.vfs"))),
        "fs.vfs.self_s": _self_s(_select(tracer, "fs.vfs")),
        "fs.vfs.errors": float(sum(function.errors(MEASURED) for function in _select(tracer, "fs.vfs"))),
        "fs.vfs.read.us_p50": _us(fn("VFS.read"), 0.50),
        "fs.vfs.write.us_p99": _us(fn("VFS.write"), 0.99),
        "fs.vfs.unlink.us_p99": _us(fn("VFS.unlink"), 0.99),
        "fs.model.calls": float(_calls(_select(tracer, "fs.model"))),
        "fs.model.self_s": _self_s(_select(tracer, "fs.model")),
        "fs.base.lookup_extent.calls": float(_calls(fn("Inode.lookup_extent"))),
        "fs.base.lookup_extent.self_s": _self_s(fn("Inode.lookup_extent")),
        "fs.allocation.allocate.calls": float(_calls(fn(".allocate", "fs.allocation"))),
        "fs.allocation.allocate.self_s": _self_s(fn(".allocate", "fs.allocation")),
        "fs.allocation.free.self_s": _self_s(fn(".free", "fs.allocation")),
        "fs.journal.commit.calls": float(_calls(fn("Journal.commit"))),
        "fs.journal.commit.self_s": _self_s(fn("Journal.commit")),
        "storage.cache.calls": float(_calls(_select(tracer, "storage.cache"))),
        "storage.cache.self_s": _self_s(_select(tracer, "storage.cache")),
        "storage.cache.invalidate_inode.calls": float(_calls(fn("PageCache.invalidate_inode"))),
        "storage.cache.invalidate_inode.self_s": _self_s(fn("PageCache.invalidate_inode")),
        "storage.cache.dirty_keys.self_s": _self_s(fn("PageCache.dirty_keys")),
        "storage.cache.hit_ratio": _ratio(cache_hits, cache_hits + counters.get("cache.misses")),
        "storage.cache.evictions": counters.get("cache.evictions"),
        "storage.readahead.self_s": _self_s(_select(tracer, "storage.readahead")),
        "storage.device.submit.calls": float(_calls(fn("BlockDevice.submit"))),
        "storage.device.submit.self_s": _self_s(fn("BlockDevice.submit")),
        "storage.device.requests": counters.get("block.requests"),
        "storage.device.merge_ratio": _ratio(merged, counters.get("block.requests") + merged),
        "storage.disk.self_s": _self_s(_select(tracer, "storage.disk")),
        "storage.flash.self_s": _self_s(_select(tracer, "storage.flash")),
        "storage.flash.precondition_s": _total_s(fn(".precondition_ssd")),
        "storage.flash.write_amplification": _ratio(programmed, programmed - moved),
        "storage.flash.pages_moved": moved,
        "core.experiment.expand_s": _total_s(fn("Experiment.cells")),
        "core.parallel.cache_key.calls": float(_calls(fn(".cache_key"))),
        "core.parallel.cache_key.self_s": _self_s(fn(".cache_key")),
        "core.parallel.lookup.self_s": _self_s(fn("ResultCache.lookup")),
        "core.parallel.put.self_s": _self_s(fn("ResultCache.put"), both),
        "core.parallel.hit_ratio": _ratio(
            cache_totals.get("hits", 0.0),
            cache_totals.get("hits", 0.0) + cache_totals.get("misses", 0.0),
        ),
        "core.persistence.decode.self_s": _self_s(
            [f for f in _select(tracer, "core.persistence") if f.name.rsplit(".", 1)[1] in DECODE_FUNCTIONS]
        ),
        "core.frame.build_s": _total_s(fn("ResultFrame.from_cells")),
        "store.get_run.calls": float(_calls(fn("PackReader.get_run"))),
        "store.get_run.self_s": _self_s(fn("PackReader.get_run")),
        "store.blocks_per_lookup": _ratio(
            cache_totals.get("blocks_read", 0.0), cache_totals.get("pack_hits", 0.0)
        ),
        "store.pack_s": _total_s(fn(".pack_result_cache")),
        "trace.overhead": overhead,
    }
    return values


def layer_table(tracer: CallTracer, measured_wall_s: float) -> str:
    """Markdown tables: per layer, then the heaviest functions, by measured self time.

    ``share`` is self time over the traced measured part; ``us_p50`` and
    ``us_p99`` are per-call inclusive times over that layer's measured calls;
    ``setup_self_s`` is the layer's self time outside the measured part.
    """
    header = (
        "| {0} | calls | self_s | share | us_p50 | us_p99 | setup_self_s |\n"
        "|---|---:|---:|---:|---:|---:|---:|"
    )

    def row(label: str, functions: Sequence[TracedFunction]) -> str:
        self_s = _self_s(functions)
        durations = _sorted_durations(functions)
        return (
            f"| {label} | {_calls(functions)} | {self_s:.4f} | "
            f"{_ratio(self_s, measured_wall_s):.1%} | {percentile(durations, 0.5) / 1e3:.1f} | "
            f"{percentile(durations, 0.99) / 1e3:.1f} | {_self_s(functions, (SETUP,)):.4f} |"
        )

    lines = [header.format("layer")]
    by_layer = sorted(LAYERS, key=lambda layer: -_self_s(_select(tracer, layer)))
    for layer in by_layer:
        lines.append(row(layer, _select(tracer, layer)))
    lines += ["", header.format("function")]
    heaviest = sorted(tracer.functions, key=lambda function: -function.self_ns(MEASURED))
    for function in heaviest[:TOP_FUNCTIONS]:
        lines.append(row(function.name.replace("repro.", "", 1), [function]))
    return "\n".join(lines)


def simulator_share(tracer: CallTracer, measured_wall_s: float) -> float:
    """Share of the measured part spent in simulator layers' own code."""
    return _ratio(
        sum(_self_s(_select(tracer, layer)) for layer in SIMULATOR_LAYERS), measured_wall_s
    )
