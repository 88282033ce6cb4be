"""The declarative Experiment API: one grid, one executor, one result frame.

The paper's diagnosis -- every study hand-rolls its own harness -- used to be
true of this repository too: the figure regenerators, the suite, the survey
and the aged-vs-fresh comparison were seven bespoke loops with seven bespoke
result classes.  An :class:`Experiment` replaces the loops with a
declaration: a :class:`ParameterGrid` of named axes whose cartesian product
expands into the existing :class:`~repro.core.parallel.WorkUnit` grid and
executes through :class:`~repro.core.parallel.ParallelExecutor` -- so every
guarantee of that layer (bit-identical parallel execution, the persistent
result cache with *unchanged* cache keys) applies to every experiment for
free, and every new comparison axis is one more grid entry rather than a new
module.

Axes
----
``fs``
    File system names resolved through ``repro.fs.stack.FS_REGISTRY``.
``workload``
    Workload names resolved through ``repro.workloads.WORKLOAD_REGISTRY``
    (factories are testbed-aware, so working sets scale with the machine),
    or ready-made :class:`~repro.workloads.spec.WorkloadSpec` /
    :class:`~repro.core.benchmark.NanoBenchmark` objects.
``device``, ``scheduler``, ``cache_mb``
    Testbed variations: device models from
    ``repro.storage.DEVICE_REGISTRY``, I/O schedulers from
    ``repro.storage.device.SCHEDULER_REGISTRY``, and the page-cache size in
    MiB (the paper's fragility axis).
``snapshot``
    Aged starting states: ``None`` for a fresh file system or the path of a
    :class:`~repro.aging.snapshot.StateSnapshot` (the snapshot fingerprint
    joins the cache key exactly as before).
``seed``
    Effective seeds, pooled into the repetitions of each cell rather than
    multiplying the cell count; without a seed axis each cell runs
    ``config.repetitions`` repetitions, repetition ``i`` with seed
    ``config.seed + i``.
anything else
    A field of :class:`~repro.core.runner.BenchmarkConfig` (``duration_s``,
    ``warmup_mode``, ...), overridden per cell.

Results land in a tidy :class:`~repro.core.frame.ResultFrame` (one row per
repetition x metric) carried by the :class:`ExperimentResult`, alongside one
:class:`~repro.core.results.RepetitionSet` per cell.  The result is the only
place an experiment's runs are read from: a harness looks a cell up by its
axes (:meth:`ExperimentResult.result_for`) or by its position in ``cells``.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, fields as dataclass_fields, replace
from enum import Enum
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.benchmark import NanoBenchmark
from repro.core.frame import ResultFrame
from repro.core.parallel import (
    CacheStats,
    ParallelExecutor,
    ResultCache,
    WorkUnit,
    group_label,
)
from repro.core.results import RepetitionSet
from repro.core.runner import BenchmarkConfig, WarmupMode
from repro.storage.config import TestbedConfig, paper_testbed
from repro.workloads.spec import WorkloadSpec

MiB = 1024 * 1024

#: Axes with dedicated resolution rules; every other axis name must be a
#: BenchmarkConfig field (a per-cell protocol override).
SPECIAL_AXES = ("fs", "workload", "device", "scheduler", "cache_mb", "snapshot", "seed")


def _config_override_fields() -> Dict[str, Any]:
    """BenchmarkConfig fields usable as grid axes (``seed`` has its own axis)."""
    return {f.name: f for f in dataclass_fields(BenchmarkConfig) if f.name != "seed"}


_config_field_types: Optional[Dict[str, Any]] = None


def _coerce_override(name: str, value: Any) -> Any:
    """Coerce an override to its field's declared type where lossless.

    ``--axis duration_s=2`` parses as ``int`` but the field is ``float``;
    without coercion the canonical hash of ``2`` differs from ``2.0`` and an
    identical library-declared run would miss the cache.
    """
    global _config_field_types
    if isinstance(value, bool) or not isinstance(value, int):
        return value
    if _config_field_types is None:
        from typing import get_type_hints

        _config_field_types = get_type_hints(BenchmarkConfig)
    hint = _config_field_types.get(name)
    if hint is float or float in getattr(hint, "__args__", ()):
        return float(value)
    return value


class ParameterGrid:
    """Named axes whose cartesian product defines an experiment's cells.

    Axis order is declaration order and the product iterates with the *last*
    axis fastest (``itertools.product`` semantics), so
    ``ParameterGrid.of(workload=..., fs=...)`` enumerates workload-major --
    the order the legacy suite loop used.  Scalars are promoted to
    single-value axes; every axis must be non-empty.
    """

    def __init__(self, axes: Mapping[str, Any]) -> None:
        if not axes:
            raise ValueError("a parameter grid needs at least one axis")
        normalized: Dict[str, Tuple[Any, ...]] = {}
        for name, values in axes.items():
            if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
                values = (values,)
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {name!r} must have at least one value")
            normalized[str(name)] = values
        self.axes = normalized

    @classmethod
    def of(cls, **axes: Any) -> "ParameterGrid":
        """Keyword-style constructor: ``ParameterGrid.of(fs=("ext2", "xfs"))``."""
        return cls(axes)

    def axis_names(self) -> List[str]:
        """Axis names in declaration order."""
        return list(self.axes)

    def axis(self, name: str) -> Tuple[Any, ...]:
        """The values of one axis (``KeyError`` if absent)."""
        return self.axes[name]

    def with_axis(self, name: str, values: Any) -> "ParameterGrid":
        """A copy with one axis added or replaced."""
        merged: Dict[str, Any] = dict(self.axes)
        merged[name] = values
        return ParameterGrid(merged)

    def __contains__(self, name: str) -> bool:
        return name in self.axes

    def __len__(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def points(self, exclude: Sequence[str] = ()) -> List[Dict[str, Any]]:
        """Every combination of axis values, as dictionaries.

        ``exclude`` drops axes from the product (the experiment excludes
        ``seed``, which pools into repetitions instead of multiplying cells).
        """
        names = [name for name in self.axes if name not in exclude]
        if not names:
            return [{}]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.axes[name] for name in names))
        ]

    def describe(self) -> str:
        """One-line summary: ``fs(2) x workload(3) x seed(5) = 30 grid points``.

        Grid points, not measurements: without a seed axis each cell still
        runs ``config.repetitions`` repetitions (the grid cannot know how
        many -- :meth:`Experiment.describe` reports the real total).
        """
        parts = [f"{name}({len(values)})" for name, values in self.axes.items()]
        return " x ".join(parts) + f" = {len(self)} grid points"


@dataclass
class ExperimentCell:
    """One fully resolved grid point: what to run, on what, how many times.

    ``axes`` holds the frame-column values identifying the cell (axis names
    mapped to readable scalars); ``seeds`` are the *effective* seeds of its
    repetitions.
    """

    label: str
    axes: Dict[str, Any]
    fs_type: str
    spec: WorkloadSpec
    config: BenchmarkConfig
    testbed: TestbedConfig
    seeds: Tuple[int, ...]
    snapshot_path: Optional[str] = None
    snapshot_fingerprint: Optional[str] = None

    def work_units(self) -> List[WorkUnit]:
        """Per-repetition work units, in repetition order.

        Repetition ``i`` runs with effective seed ``seeds[i]``; the unit's
        config is rebased so ``config.seed + i == seeds[i]``, which keeps the
        runner's contract, and therefore the cache keys and the payloads of
        ``BenchmarkRunner.run_once(spec, i)``, exactly as they were.
        """
        return [
            WorkUnit(
                fs_type=self.fs_type,
                spec=self.spec,
                config=replace(self.config, seed=seed - index, repetitions=len(self.seeds)),
                repetition=index,
                testbed=self.testbed,
                group=self.label,
                snapshot_path=self.snapshot_path,
                snapshot_fingerprint=self.snapshot_fingerprint,
            )
            for index, seed in enumerate(self.seeds)
        ]


@dataclass
class ExperimentResult:
    """Everything an :class:`Experiment` run produced.

    ``frame`` is the tidy record table (the analysis lingua franca); ``sets``
    holds each cell's :class:`RepetitionSet`, keyed by cell label, for code
    that wants histograms and timelines.
    """

    name: str
    cells: List[ExperimentCell]
    sets: Dict[str, RepetitionSet]
    frame: ResultFrame
    cache_stats: Optional[CacheStats] = None

    def labels(self) -> List[str]:
        """Cell labels in grid order."""
        return [cell.label for cell in self.cells]

    def cell_for(self, **axes: Any) -> ExperimentCell:
        """The unique cell whose axis values match every ``name=value`` given."""
        matches = [
            cell
            for cell in self.cells
            if all(cell.axes.get(name) == value for name, value in axes.items())
        ]
        if not matches:
            raise KeyError(f"no cell matches {axes!r}")
        if len(matches) > 1:
            labels = ", ".join(cell.label for cell in matches)
            raise KeyError(f"{axes!r} is ambiguous; matches: {labels}")
        return matches[0]

    def result_for(self, **axes: Any) -> RepetitionSet:
        """The repetition set of the unique cell matching ``axes``."""
        return self.sets[self.cell_for(**axes).label]

    def render(self) -> str:
        """A workload x file-system summary table (mean +/- relative stddev).

        When extra axes vary (snapshot, cache size, protocol overrides) the
        rows carry those axis values so no cell is silently collapsed; the
        labels are rebuilt from each cell's axes, never parsed out of
        strings.
        """
        extra_values: Dict[str, set] = {}
        for cell in self.cells:
            for name, value in cell.axes.items():
                if name not in ("fs", "workload"):
                    extra_values.setdefault(name, set()).add(repr(value))
        varying = [name for name, values in extra_values.items() if len(values) > 1]

        summary = ResultFrame()
        seen: Dict[Tuple[str, Any], int] = {}
        for cell in self.cells:
            stats = self.sets[cell.label].throughput_summary()
            row_label = _suffixed_label(
                str(cell.axes.get("workload")),
                [name for name in varying if name in cell.axes],
                cell.axes.get,
            )
            row_label = _deduped_label(
                row_label, (row_label, cell.axes.get("fs")), seen
            )
            summary.append(
                {
                    "workload": row_label,
                    "fs": cell.axes.get("fs"),
                    "value": f"{stats.mean:.0f} +/-{stats.relative_stddev_percent:.0f}%",
                }
            )
        table = summary.pivot(index="workload", columns="fs", aggregate="first").render(
            index_headers=["workload"],
            column_header=lambda fs: f"{fs} (ops/s)",
            missing="-",
        )
        lines = [
            f"Experiment: {self.name}",
            f"cells: {len(self.cells)}, repetitions: "
            f"{sum(len(cell.seeds) for cell in self.cells)}, "
            f"frame rows: {len(self.frame)}",
            "",
            table,
        ]
        if self.cache_stats is not None:
            lines.append(
                f"\ncache: {self.cache_stats.hits} hits, "
                f"{self.cache_stats.misses} misses, {self.cache_stats.stores} stores"
            )
        return "\n".join(lines)


class Experiment:
    """A declarative experiment: grid in, tidy frame out.

    Parameters
    ----------
    grid:
        The :class:`ParameterGrid` (or a plain ``{axis: values}`` mapping).
    name:
        Label recorded in the result frame's ``experiment`` column.
    config:
        Base measurement protocol.  ``None`` uses each workload's own
        protocol when the workload axis carries :class:`NanoBenchmark`
        objects (exactly like the suite did) and ``BenchmarkConfig()``
        otherwise.  Config-field axes override it per cell.
    testbed:
        Base simulated machine (default: the paper's); the ``device``,
        ``scheduler`` and ``cache_mb`` axes derive per-cell variants.
    n_workers, cache_dir:
        Parallel fan-out and persistent result cache, verbatim from
        :class:`~repro.core.parallel.ParallelExecutor` /
        :class:`~repro.core.parallel.ResultCache`.  Cache keys are those of
        the underlying work units, so cells already measured by the legacy
        entry points (or by any other experiment) are served from cache.
    pack_paths:
        Packed result artifacts (:mod:`repro.store`) attached as a
        read-through cache tier: cells found in a pack are served without
        execution, exactly like loose cache hits.  Works with or without
        ``cache_dir`` (without it the cache is read-only).
    telemetry:
        Optional :class:`~repro.obs.telemetry.TelemetrySink` handed to the
        executor: every repetition's lifecycle is logged and fresh
        executions run under the wall-clock phase profiler.  Observation
        only -- results, frames and cache keys are byte-identical with or
        without it.
    """

    def __init__(
        self,
        grid: Union[ParameterGrid, Mapping[str, Any]],
        name: str = "experiment",
        config: Optional[BenchmarkConfig] = None,
        testbed: Optional[TestbedConfig] = None,
        n_workers: Optional[int] = 1,
        cache_dir: Optional[str] = None,
        pack_paths: Sequence[str] = (),
        telemetry: Optional[Any] = None,
    ) -> None:
        self.grid = grid if isinstance(grid, ParameterGrid) else ParameterGrid(grid)
        self.name = name
        self.config = config
        self.testbed = testbed if testbed is not None else paper_testbed()
        self.n_workers = n_workers
        self.cache_dir = cache_dir
        self.pack_paths = tuple(pack_paths)
        self.telemetry = telemetry
        self._validate_axis_names()
        self._cells: Optional[List[ExperimentCell]] = None

    # -------------------------------------------------------------- expansion
    def _validate_axis_names(self) -> None:
        overrides = _config_override_fields()
        unknown = [
            name
            for name in self.grid.axis_names()
            if name not in SPECIAL_AXES and name not in overrides
        ]
        if unknown:
            known = ", ".join(list(SPECIAL_AXES) + sorted(overrides))
            raise ValueError(
                f"unknown grid axis(es) {', '.join(repr(n) for n in unknown)} "
                f"(known: {known})"
            )
        if "seed" in self.grid and "repetitions" in self.grid:
            raise ValueError(
                "declare either a seed axis or a repetitions axis, not both: "
                "the seed axis already defines each cell's repetitions"
            )

    def cells(self) -> List[ExperimentCell]:
        """The resolved grid cells (computed once, in grid order)."""
        if self._cells is None:
            self._cells = self._expand()
        return self._cells

    def work_units(self) -> List[WorkUnit]:
        """Every per-repetition work unit of the experiment, in grid order."""
        return [unit for cell in self.cells() for unit in cell.work_units()]

    def _expand(self) -> List[ExperimentCell]:
        seeds_axis: Optional[Tuple[int, ...]] = None
        if "seed" in self.grid:
            seeds_axis = tuple(int(seed) for seed in self.grid.axis("seed"))

        # The label suffix only names axes that actually vary: single-valued
        # extra axes (e.g. one snapshot for a whole aged suite) keep the
        # legacy "workload@fs" labels.
        suffix_axes = [
            name
            for name in self.grid.axis_names()
            if name not in ("fs", "workload", "seed")
            and len(set(map(repr, self.grid.axis(name)))) > 1
        ]

        cells: List[ExperimentCell] = []
        used_labels: Dict[str, int] = {}
        for point in self.grid.points(exclude=("seed",)):
            cell = self._resolve_point(point, seeds_axis, suffix_axes)
            cell.label = _deduped_label(cell.label, cell.label, used_labels)
            cells.append(cell)
        return cells

    def _resolve_point(
        self,
        point: Dict[str, Any],
        seeds_axis: Optional[Tuple[int, ...]],
        suffix_axes: Sequence[str],
    ) -> ExperimentCell:
        fs_type = point.get("fs", "ext2")
        from repro.fs.stack import FS_REGISTRY

        if fs_type not in FS_REGISTRY:
            known = ", ".join(sorted(FS_REGISTRY))
            raise ValueError(f"unknown fs {fs_type!r} on the fs axis (known: {known})")

        testbed = self._derive_testbed(point)
        # Registry factories size against the experiment's *base* testbed,
        # not the per-cell variant: otherwise a cache_mb sweep would resize
        # the working set in lockstep with the cache under test and every
        # cell would measure the same ratio.  Testbed axes vary the machine
        # under a fixed workload, which is the paper's fragility axis.
        workload_label, spec, workload_config = _resolve_workload(
            point.get("workload", "random-read-cached"), self.testbed
        )

        config = self.config or workload_config or BenchmarkConfig()
        config = self._apply_overrides(config, point)
        config.validate()

        seeds = (
            seeds_axis
            if seeds_axis is not None
            else tuple(config.seed + index for index in range(config.repetitions))
        )

        snapshot_path = point.get("snapshot")
        snapshot_fingerprint = None
        if snapshot_path is not None:
            snapshot_path = str(snapshot_path)
            # Imported lazily: the aging subsystem sits above the core layer.
            from repro.aging.snapshot import load_snapshot_cached

            snapshot = load_snapshot_cached(snapshot_path)
            snapshot_fingerprint = snapshot.fingerprint
            if snapshot.fs_type != fs_type:
                raise ValueError(
                    f"snapshot {snapshot_path} holds {snapshot.fs_type!r} state; "
                    f"it cannot be restored as {fs_type!r} "
                    f"(use fs={snapshot.fs_type} for this snapshot axis value)"
                )

        axes: Dict[str, Any] = {"fs": fs_type, "workload": workload_label}
        for name, value in point.items():
            if name in ("fs", "workload"):
                continue
            axes[name] = _axis_record_value(value)

        label = _suffixed_label(group_label(workload_label, fs_type), suffix_axes, point.get)

        return ExperimentCell(
            label=label,
            axes=axes,
            fs_type=fs_type,
            spec=spec,
            config=config,
            testbed=testbed,
            seeds=seeds,
            snapshot_path=snapshot_path,
            snapshot_fingerprint=snapshot_fingerprint,
        )

    def _derive_testbed(self, point: Dict[str, Any]) -> TestbedConfig:
        testbed = self.testbed
        if "device" in point:
            from repro.storage.config import DEVICE_REGISTRY

            device = str(point["device"])
            if device not in DEVICE_REGISTRY:
                known = ", ".join(sorted(DEVICE_REGISTRY))
                raise ValueError(f"unknown device {device!r} (known: {known})")
            testbed = replace(testbed, device_kind=device)
        if "scheduler" in point:
            from repro.storage.device import SCHEDULER_REGISTRY

            scheduler = str(point["scheduler"])
            if scheduler not in SCHEDULER_REGISTRY:
                known = ", ".join(sorted(SCHEDULER_REGISTRY))
                raise ValueError(f"unknown scheduler {scheduler!r} (known: {known})")
            testbed = replace(testbed, io_scheduler=scheduler)
        if "cache_mb" in point:
            raw = point["cache_mb"]
            cache_mb = int(raw)
            if cache_mb != raw:
                # Truncating silently would record an axis value (64.5) the
                # testbed never had.
                raise ValueError(f"cache_mb axis values must be whole MiB, got {raw!r}")
            if cache_mb <= 0:
                raise ValueError("cache_mb axis values must be positive")
            testbed = replace(
                testbed, ram_bytes=testbed.os_reserved_bytes + cache_mb * MiB
            )
        testbed.validate()
        return testbed

    def _apply_overrides(self, config: BenchmarkConfig, point: Dict[str, Any]) -> BenchmarkConfig:
        overrides = {}
        for name in point:
            if name in SPECIAL_AXES:
                continue
            value = point[name]
            if name == "warmup_mode" and isinstance(value, str):
                value = WarmupMode(value)
            overrides[name] = _coerce_override(name, value)
        return replace(config, **overrides) if overrides else config

    # -------------------------------------------------------------- execution
    def make_executor(self) -> ParallelExecutor:
        """The executor this experiment dispatches through."""
        cache = (
            ResultCache(self.cache_dir, pack_paths=self.pack_paths)
            if (self.cache_dir or self.pack_paths)
            else None
        )
        return ParallelExecutor(
            n_workers=self.n_workers, cache=cache, telemetry=self.telemetry
        )

    def run(
        self,
        executor: Optional[ParallelExecutor] = None,
        on_unit: Optional[Callable[[WorkUnit, Any, bool], None]] = None,
        on_cell: Optional[Callable[[ExperimentCell, RepetitionSet], None]] = None,
    ) -> ExperimentResult:
        """Execute the grid and assemble the tidy result frame.

        ``executor`` overrides the experiment's own executor (for sharing a
        pool/cache across experiments).  ``run`` closes the cache of an
        executor it built itself when it returns; a caller's executor keeps
        its cache open for the next run.  ``on_unit(unit, run, cached)`` fires
        as each repetition completes (cache hits first, then fresh results in
        completion order) and ``on_cell(cell, repetitions)`` as the last
        repetition of each cell lands -- streaming progress without touching
        the bit-identical, unit-ordered results.

        With a telemetry sink attached the per-unit ordering is: the
        executor emits the unit's terminal event (``cache-hit`` /
        ``pack-hit`` / ``exec-done``), then ``on_unit`` fires, then -- when
        that unit completed its cell -- ``on_cell``.  A failing unit emits
        its ``failed`` event and then raises out of this method; neither
        callback fires for it, and ``on_cell`` never fires for a cell with a
        failed repetition, so the event log (not the callbacks) is the
        record of what went wrong.
        """
        cells = self.cells()
        units: List[WorkUnit] = [unit for cell in cells for unit in cell.work_units()]
        owned = executor is None
        executor = executor if executor is not None else self.make_executor()

        remaining = {cell.label: len(cell.seeds) for cell in cells}
        streamed: Dict[str, List[Any]] = {cell.label: [] for cell in cells}
        cell_by_label = {cell.label: cell for cell in cells}

        def _observe(unit: WorkUnit, run: Any, cached: bool) -> None:
            if on_unit is not None:
                on_unit(unit, run, cached)
            label = unit.group
            streamed[label].append(run)
            remaining[label] -= 1
            if remaining[label] == 0 and on_cell is not None:
                ordered = sorted(streamed[label], key=lambda r: r.repetition)
                on_cell(cell_by_label[label], RepetitionSet(label=label, runs=ordered))

        observe = _observe if (on_unit or on_cell) else None
        try:
            runs = executor.run_units(units, on_result=observe)
        finally:
            if owned and executor.cache is not None:
                executor.cache.close()

        sets: Dict[str, RepetitionSet] = {}
        for unit, run in zip(units, runs):
            if unit.group not in sets:
                sets[unit.group] = RepetitionSet(label=unit.group)
            sets[unit.group].add(run)

        frame = ResultFrame.from_cells(
            (
                {"experiment": self.name, **cell.axes},
                sets[cell.label].runs,
            )
            for cell in cells
        )
        return ExperimentResult(
            name=self.name,
            cells=cells,
            sets=sets,
            frame=frame,
            cache_stats=executor.cache.stats if executor.cache is not None else None,
        )

    def describe(self) -> str:
        """One-line description of the declared grid and its true run count."""
        cells = self.cells()
        repetitions = sum(len(cell.seeds) for cell in cells)
        return (
            f"{self.name}: {self.grid.describe()}, "
            f"{len(cells)} cells x repetitions = {repetitions} measurements"
        )


# ------------------------------------------------------------------ resolvers
def _resolve_workload(
    value: Any, testbed: TestbedConfig
) -> Tuple[str, WorkloadSpec, Optional[BenchmarkConfig]]:
    """Resolve a workload-axis value to ``(label, spec, default config)``."""
    if isinstance(value, NanoBenchmark):
        return value.name, value.build_workload(), value.config
    if isinstance(value, WorkloadSpec):
        return value.name, value, None
    if isinstance(value, str):
        from repro.workloads import WORKLOAD_REGISTRY

        try:
            factory = WORKLOAD_REGISTRY[value]
        except KeyError:
            known = ", ".join(sorted(WORKLOAD_REGISTRY))
            raise ValueError(f"unknown workload {value!r} (known: {known})") from None
        return value, factory(testbed), None
    if callable(value):
        spec = value()
        if not isinstance(spec, WorkloadSpec):
            raise TypeError(
                f"workload factory {value!r} returned {type(spec).__name__}, "
                "expected a WorkloadSpec"
            )
        return spec.name, spec, None
    raise TypeError(
        "workload axis values must be registry names, WorkloadSpec or "
        f"NanoBenchmark objects, or spec factories; got {type(value).__name__}"
    )


def _axis_record_value(value: Any) -> Any:
    """The frame-column form of an axis value (readable, JSON-friendly).

    Enums are checked before plain scalars: ``WarmupMode`` is a ``str``
    subclass, and its *value* ("prewarm") -- not ``str(member)`` -- is what
    labels, CSV and JSONL must agree on.
    """
    if isinstance(value, Enum):
        return value.value
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


def _axis_label_value(name: str, value: Any) -> str:
    """The cell-label form of an axis value (short, path-free)."""
    if name == "snapshot":
        return "fresh" if value is None else os.path.basename(str(value))
    return str(_axis_record_value(value))


def _suffixed_label(
    base: str, axis_names: Sequence[str], value_for: Callable[[str], Any]
) -> str:
    """``base#axis=value,...`` for the varying axes (``base`` when none).

    The single definition behind cell labels and rendered summary rows, so
    the two can never drift apart.
    """
    suffix = ",".join(
        f"{name}={_axis_label_value(name, value_for(name))}" for name in axis_names
    )
    return f"{base}#{suffix}" if suffix else base


def _deduped_label(label: str, key: Any, counts: Dict[Any, int]) -> str:
    """``label`` the first time ``key`` is seen, ``label#N`` afterwards.

    Distinct cells whose labels collide (e.g. two specs sharing a name) stay
    distinguishable instead of silently pooling.
    """
    count = counts.get(key, 0)
    counts[key] = count + 1
    return label if not count else f"{label}#{count + 1}"
