"""Parallel survey execution: process fan-out plus a persistent result cache.

The measurement protocol makes a full survey -- every benchmark on every file
system, repeated many times -- embarrassingly parallel: each repetition is a
pure function of ``(file system, workload spec, testbed, protocol, seed)``,
because the runner derives *all* randomness (stack, workload, environmental
noise) from ``config.seed + repetition``.  This module exploits that purity
twice:

* :class:`ParallelExecutor` fans repetitions out over a process pool.  The
  determinism guarantee is strict: a parallel run produces results
  **bit-identical** to a serial run of the same work units, because workers
  receive the exact seeds an in-process loop of
  ``BenchmarkRunner.run_once(spec, i)`` over the repetitions would use and no
  state is shared between repetitions.  ``n_workers=1`` (the default) runs in-process
  with no pool at all, so the serial path stays the trivially obvious one.

* :class:`ResultCache` persists finished repetitions keyed by
  :func:`cache_key`, a stable SHA-256 over the canonicalised
  ``(workload spec, testbed config, benchmark config, seed)`` tuple.
  Re-running a survey or suite skips every cell that has already been
  measured anywhere the cache directory is shared.  Because the key hashes
  the *inputs* of the pure function, a hit is exactly as trustworthy as a
  fresh measurement.

The work unit is one *repetition*, not one benchmark: that is the finest
grain at which the protocol is pure, and it keeps the pool busy even when a
survey has few (benchmark x file system) cells but many repetitions.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import operator
import os
import tempfile
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.core.persistence import load_run_result, save_run_result
from repro.core.results import RunResult
from repro.core.runner import BenchmarkConfig, run_single_repetition
from repro.obs.metrics import MetricSource
from repro.obs.profile import phase as profile_phase
from repro.obs.telemetry import TelemetryEvent, TelemetrySink, UnitTiming, timed_execute
from repro.storage.config import TestbedConfig, paper_testbed
from repro.workloads.spec import WorkloadSpec

logger = logging.getLogger(__name__)

#: Bump when the simulation's physics change incompatibly, so stale caches
#: from older code cannot satisfy new runs.
#: v2: device-model coherence fixes (track-cache invalidation on overlapping
#: writes, arrival-order NOOP merging), ext4 model, type-tagged dict keys in
#: the canonical hash.
CACHE_FORMAT_VERSION = 2


# ------------------------------------------------------------------ hashing
#: Exact types whose canonical form is the value itself.  Their subclasses
#: (a ``str``-valued enum, say) take the full branch order of
#: :func:`_canonical`.
_PLAIN = frozenset({str, int, float, bool, type(None)})

#: The encoder of key payloads.  With sorted keys and no whitespace, a value
#: encodes to the same text on its own as nested anywhere in a payload, so a
#: key can be joined from the texts of its members.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: The ``BenchmarkConfig`` fields that a key does not hold as they are, and
#: what its config text holds instead; every other field is keyed.
#: ``seed`` is written as 0 and ``repetitions`` as 1, because a key names
#: its repetition by the effective seed alone.  ``clients`` and ``trace``
#: (``None``) are left out: ``clients`` is a top-level member of the key
#: when above 1, and a traced run is the same measurement as an untraced
#: one.
CONFIG_KEY_OVERRIDES: Dict[str, Optional[int]] = {
    "seed": 0,
    "repetitions": 1,
    "clients": None,
    "trace": None,
}


@functools.cache
def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """Field names of a dataclass ``cls`` in declaration order, else ``None``.

    Looked up once per class, since a class's fields cannot change.  Asked
    per value, ``dataclasses.is_dataclass`` is slow on an enum member: its
    class raises and catches ``AttributeError`` for the unknown attribute.
    ``ClassVar`` and ``InitVar`` pseudo-fields are left out, as
    ``dataclasses.fields`` leaves them out.  The table keeps each class it
    was asked about alive and hands out immutable tuples.
    """
    if dataclasses.is_dataclass(cls):
        return tuple(field.name for field in dataclasses.fields(cls))
    return None


def _canonical(value):
    """Reduce a config object to a JSON-stable structure for hashing.

    Dataclasses and plain objects become ``{"__kind__": <class>, ...fields}``
    dictionaries, enums their values, containers their canonicalised
    elements.  Two configurations hash equal iff this structure is equal, so
    anything that can change a measurement must surface here; unknown objects
    fall back to ``repr`` rather than being silently dropped.  An exact plain
    value, and a plain item of a list, tuple or dataclass, is its own form
    and costs no recursive call.  Whether a class is a dataclass, and its
    field names, come from a per-class table (:func:`_field_names`), so a
    value pays one lookup for them.
    """
    cls = type(value)
    if cls in _PLAIN:
        return value
    names = _field_names(cls)
    if names is not None:
        fields = {"__kind__": cls.__name__}
        for name in names:
            item = getattr(value, name)
            fields[name] = item if type(item) in _PLAIN else _canonical(item)
        return fields
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        # JSON keys must be strings, but ``str(key)`` alone collides
        # ``{1: x}`` with ``{"1": x}``, and ``sorted(value.items())`` raises
        # ``TypeError`` for mixed-type keys.  Tag every key with its type and
        # sort by the tagged form, which is total and collision-free.
        return {
            tagged: _canonical(item)
            for tagged, item in sorted(
                (f"{type(key).__name__}:{key!r}", item) for key, item in value.items()
            )
        }
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _PLAIN else _canonical(item) for item in value]
    if isinstance(value, (str, int, float)):  # their subclasses; bool has none
        return value
    if hasattr(value, "__dict__"):
        fields = {key: _canonical(item) for key, item in sorted(vars(value).items())}
        return {"__kind__": cls.__name__, **fields}
    return repr(value)


@functools.cache
def _keyed_field_names(cls: Type[BenchmarkConfig]) -> Tuple[str, ...]:
    """Fields of config dataclass ``cls`` that its key text holds as they
    are: all but those of :data:`CONFIG_KEY_OVERRIDES`, looked up once per
    class.  Raises ``TypeError`` for a class that is not a dataclass."""
    return tuple(
        field.name
        for field in dataclasses.fields(cls)
        if field.name not in CONFIG_KEY_OVERRIDES
    )


def _config_text(config: BenchmarkConfig) -> str:
    """JSON text of ``config`` in a key: its canonical form with
    :data:`CONFIG_KEY_OVERRIDES` applied."""
    payload = _canonical(config)
    for name, value in CONFIG_KEY_OVERRIDES.items():
        if value is None:
            payload.pop(name, None)
        else:
            payload[name] = value
    return _ENCODER.encode(payload)


def _held_text(
    held: List[Tuple[object, str]], value: object, encode: Callable[[Any], str]
) -> str:
    """The text ``held`` keeps for the very object ``value``, else
    ``encode(value)``, which is then kept with it.  The newest is tried
    first, so the units of one cell find their object at once."""
    for kept, text in reversed(held):
        if kept is value:
            return text
    text = encode(value)
    held.append((value, text))
    return text


def _spec_text(spec: WorkloadSpec) -> str:
    return _ENCODER.encode(_canonical(spec))


def _testbed_text(testbed: Optional[TestbedConfig]) -> str:
    """``testbed=None`` is the paper's testbed."""
    return _ENCODER.encode(_canonical(testbed if testbed is not None else paper_testbed()))


class _KeyScan:
    """The JSON texts that one key scan reuses.

    An experiment resolves each workload entry, and each combination of
    testbed entries, once, so its cells share spec and testbed objects
    (:meth:`~repro.core.experiment.Experiment.cells`).  A cell's units come
    one after another, and their configs differ in ``seed`` at most
    (:meth:`~repro.core.experiment.ExperimentCell.work_units`).  So the scan
    keeps the text of every spec and testbed object it encodes, and of the
    config it encoded last, and reuses one while a unit passes:

    * a spec or testbed object it has encoded, whatever the units between;
    * a config of the same class whose every keyed field value (every
      field not in :data:`CONFIG_KEY_OVERRIDES`) is the very object the
      last one held.  The other fields do not reach the config text.

    Identity, not equality: ``1 == 1.0``, yet they encode differently, and
    lint rule DET004 bans ``id()``.  So a spec or testbed is looked up by an
    ``is`` scan over the objects held, whose length is the number of
    distinct objects: for an experiment, its workload entries and its
    testbed combinations.  Holding the objects keeps their identities from
    passing to newcomers.
    """

    def __init__(self) -> None:
        self._specs: List[Tuple[object, str]] = []
        self._testbeds: List[Tuple[object, str]] = []
        self._config: Optional[Tuple[List[object], str]] = None

    def texts(
        self, spec: WorkloadSpec, testbed: Optional[TestbedConfig]
    ) -> Tuple[str, str]:
        """JSON texts of ``(spec, testbed)``; ``testbed=None`` is the paper's."""
        return (
            _held_text(self._specs, spec, _spec_text),
            _held_text(self._testbeds, testbed, _testbed_text),
        )

    def config_text(self, config: BenchmarkConfig) -> str:
        """The last config's text if ``config`` holds its very keyed field
        values, else ``config``'s own text, which is then kept."""
        cls = type(config)
        values: List[object] = [cls]
        values += [getattr(config, name) for name in _keyed_field_names(cls)]
        kept = self._config
        if kept is None or not all(map(operator.is_, values, kept[0])):
            kept = self._config = (values, _config_text(config))
        return kept[1]


def cache_key(
    fs_type: str,
    spec: WorkloadSpec,
    config: BenchmarkConfig,
    seed: int,
    testbed: Optional[TestbedConfig] = None,
    snapshot_fingerprint: Optional[str] = None,
    scan: Optional[_KeyScan] = None,
) -> str:
    """Stable identity of one measured repetition.

    The key covers everything the measurement depends on: the file system,
    the full workload spec, the testbed, the protocol parameters and the
    *effective* seed of the repetition.  :data:`CONFIG_KEY_OVERRIDES` says
    how each config field is treated; every field it does not name is
    keyed.  ``config.seed`` and ``config.repetitions`` are deliberately
    normalised out (written as 0 and 1) -- the runner uses
    ``config.seed + repetition`` for every random source, so repetition 1 of
    a seed-42 run and repetition 0 of a seed-43 run are the same measurement
    and share a cache entry.

    ``snapshot_fingerprint`` identifies the aged starting state when the
    repetition runs against a restored
    :class:`~repro.aging.snapshot.StateSnapshot`; it is omitted from the
    payload when absent, so within one ``CACHE_FORMAT_VERSION`` fresh-state
    keys do not depend on the aging feature at all.  (Bumping the format
    version -- as the v2 physics fixes did -- deliberately invalidates every
    older cache entry, fresh and aged alike.)

    ``config.clients`` gets the same treatment as the snapshot axis: it is
    left out of the config text and recorded as a top-level ``clients``
    entry only when greater than one, so every ``clients=1`` key -- and
    with it every cache entry ever written -- stays byte-identical to the
    pre-concurrency era.

    ``config.trace`` is left out unconditionally and never re-added:
    tracing is observability, not physics (the measurement is bit-identical
    with it on or off -- see :mod:`repro.obs`), so a traced run and an
    untraced run are the *same* measurement and must share a cache entry.

    The key is the SHA-256 of one JSON document, written with sorted keys
    and no whitespace: ``cache_format``, ``clients`` (only when > 1),
    ``config``, ``fs_type``, ``seed``, ``snapshot`` (only when given),
    ``spec`` and ``testbed``.  Each member's value is encoded on its own and
    the texts are joined in that order; a value encodes the same on its own
    as nested, so these are the bytes one ``json.dumps`` of the whole
    payload gives.  Alone, a key costs one canonicalisation and one encoding
    each of the spec, the testbed and the config.  ``scan`` is the reuse
    state of a :meth:`ParallelExecutor.run_units` key scan: with it, a key
    reuses the texts of the scan's earlier keys for the very same spec and
    testbed objects, and of the previous key for a config holding the very
    same keyed field values (see :class:`_KeyScan`), so it costs identity
    checks, a text join and a SHA-256.  The key is the same either way.
    """
    scan = scan or _KeyScan()
    spec_text, testbed_text = scan.texts(spec, testbed)
    clients = int(getattr(config, "clients", 1) or 1)
    # JSON writes an exact int as ``str`` does.
    members = {
        "cache_format": str(CACHE_FORMAT_VERSION),
        "config": scan.config_text(config),
        "fs_type": _ENCODER.encode(fs_type),
        "seed": str(int(seed)),
        "spec": spec_text,
        "testbed": testbed_text,
    }
    if snapshot_fingerprint is not None:
        members["snapshot"] = _ENCODER.encode(str(snapshot_fingerprint))
    if clients > 1:
        members["clients"] = str(clients)
    encoded = "{" + ",".join(f'"{name}":{members[name]}' for name in sorted(members)) + "}"
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


# --------------------------------------------------------------- work units
@dataclass
class WorkUnit:
    """One repetition of one benchmark configuration: the unit of fan-out.

    Attributes
    ----------
    fs_type:
        File system to mount for this repetition.
    spec:
        The workload description (must be picklable; all shipped specs are).
    config:
        Measurement protocol.  The unit runs repetition ``repetition`` of
        this config, i.e. with effective seed ``config.seed + repetition``.
    repetition:
        Zero-based repetition index.
    testbed:
        Simulated machine; ``None`` means the paper's testbed.
    group:
        Label of the experiment cell this unit belongs to;
        :meth:`~repro.core.experiment.Experiment.run` gathers the units of
        one group into that cell's
        :class:`~repro.core.results.RepetitionSet`, and telemetry events
        name it.
    snapshot_path, snapshot_fingerprint:
        The aging axis: when set, the repetition starts from the
        :class:`~repro.aging.snapshot.StateSnapshot` stored at
        ``snapshot_path`` (a path, so units stay picklable), and the
        fingerprint of that state joins the cache key.  The fingerprint is
        a pre-computed optimisation only: :meth:`key` derives it from the
        snapshot file itself when absent, so a unit carrying just the path
        can never collide with a fresh-state cache entry.
    """

    fs_type: str
    spec: WorkloadSpec
    config: BenchmarkConfig
    repetition: int = 0
    testbed: Optional[TestbedConfig] = None
    group: str = ""
    snapshot_path: Optional[str] = None
    snapshot_fingerprint: Optional[str] = None

    @property
    def seed(self) -> int:
        """The effective seed the runner will use for this repetition."""
        return self.config.seed + self.repetition

    def key(self, scan: Optional[_KeyScan] = None) -> str:
        """Cache key of this unit (see :func:`cache_key`, which takes ``scan``)."""
        fingerprint = self.snapshot_fingerprint
        if fingerprint is None and self.snapshot_path is not None:
            # Imported lazily: the aging subsystem sits above the core layer.
            from repro.aging.snapshot import snapshot_fingerprint

            fingerprint = snapshot_fingerprint(self.snapshot_path)
        return cache_key(
            self.fs_type,
            self.spec,
            self.config,
            self.seed,
            self.testbed,
            snapshot_fingerprint=fingerprint,
            scan=scan,
        )


def execute_unit(unit: WorkUnit) -> RunResult:
    """Run one work unit to completion.  Pure and picklable: this is the
    function shipped to pool workers."""
    return run_single_repetition(
        fs_type=unit.fs_type,
        spec=unit.spec,
        repetition=unit.repetition,
        testbed=unit.testbed,
        config=unit.config,
        snapshot_path=unit.snapshot_path,
    )


def group_label(benchmark_name: str, fs_type: str) -> str:
    """Label of the repetition set for one (benchmark, file system) cell.

    The base of every :class:`~repro.core.experiment.Experiment` cell label.
    Harnesses read a cell by its axes or its position, not by rebuilding
    this label.
    """
    return f"{benchmark_name}@{fs_type}"


# -------------------------------------------------------------- result cache
@dataclass
class CacheStats(MetricSource):
    """Hit/miss/store/corruption counters of one :class:`ResultCache`.

    ``hits`` counts every hit regardless of tier; ``pack_hits`` is the
    subset served from attached read-through packs, and ``blocks_read``
    mirrors the pack readers' decompressed-block counters (the ZS-style
    access-granularity metric) so the campaign report and any
    :class:`~repro.obs.metrics.MetricsRegistry` see cache efficiency in one
    uniform snapshot.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    pack_hits: int = 0
    blocks_read: int = 0

    derived_metrics = ("hit_ratio",)

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ResultCache:
    """Persistent cache of finished repetitions, one JSON file per cell.

    Entries live at ``<cache_dir>/<key[:2]>/<key>.json`` in the standard
    result format (:mod:`repro.core.persistence`), so a cache doubles as an
    archive: any entry can be loaded and analysed directly.  A corrupt loose
    entry is treated as a miss, counted in ``stats.corrupt``, and quarantined
    to ``<key>.json.corrupt`` so it cannot keep masquerading as a miss run
    after run.

    ``pack_paths`` adds a read-through tier of packed result artifacts
    (:mod:`repro.store`): a :meth:`get` consults the packs first, then the
    loose directory.  Packs are read-only and integrity-checked -- a
    corrupt pack *raises* (:class:`repro.store.format.StoreCorruptionError`)
    rather than degrading to a miss, because a pack is a distributed,
    fingerprinted artifact whose damage should stop the presses, not
    silently re-measure.  ``cache_dir=None`` with packs gives a pure
    read-only cache (``put`` discards, ``clear`` removes nothing).  Each
    pack stays open until :meth:`close`, which whoever built the cache
    calls.
    """

    def __init__(
        self, cache_dir: Optional[str] = None, pack_paths: Sequence[str] = ()
    ) -> None:
        if cache_dir is None and not pack_paths:
            raise ValueError("a ResultCache needs a cache_dir, pack_paths, or both")
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()
        if self.cache_dir is not None:
            os.makedirs(self.cache_dir, exist_ok=True)
        self._packs = []
        if pack_paths:
            # Imported lazily: repro.store sits above the core layer.
            from repro.store.reader import PackReader

            try:
                for path in pack_paths:
                    self._packs.append(PackReader(path))
            except BaseException:
                self.close()
                raise

    def close(self) -> None:
        """Close the attached pack readers.  Idempotent; ``stats`` stays readable."""
        for pack in self._packs:
            pack.close()

    @property
    def pack_paths(self) -> List[str]:
        """Paths of the attached read-through packs, in lookup order."""
        return [pack.path for pack in self._packs]

    def path_for(self, key: str) -> str:
        """Filesystem path of the loose entry for ``key``."""
        if self.cache_dir is None:
            raise ValueError("pack-only cache has no loose entry paths")
        return os.path.join(self.cache_dir, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[RunResult]:
        """Return the cached result for ``key``, or ``None`` on a miss.

        Lookup order: attached packs first (committed artifacts warm a fresh
        checkout), then the loose directory.
        """
        return self.lookup(key)[0]

    def lookup(self, key: str) -> "Tuple[Optional[RunResult], str]":
        """Like :meth:`get`, but also names the tier that answered.

        Returns ``(run, origin)`` with origin one of ``"pack"``, ``"loose"``
        or ``"miss"`` -- the distinction the telemetry event log records
        (``pack-hit`` vs ``cache-hit``) and the stats expose as
        ``pack_hits``.
        """
        run = self._pack_lookup(key)
        if run is not None:
            return run, "pack"
        if self.cache_dir is None:
            self.stats.misses += 1
            return None, "miss"
        path = self.path_for(key)
        try:
            run = load_run_result(path)
        except FileNotFoundError:
            self.stats.misses += 1
            return None, "miss"
        except (
            OSError, ValueError, KeyError, json.JSONDecodeError, TypeError, AttributeError
        ):
            # TypeError and AttributeError come from JSON that parses but
            # is no run document: not an object, or a null section such as
            # ``histogram``, ``timeline`` or ``environment``.
            self._quarantine(path)
            self.stats.misses += 1
            return None, "miss"
        self.stats.hits += 1
        return run, "loose"

    def _pack_lookup(self, key: str) -> Optional[RunResult]:
        """Consult the read-through packs; keeps the pack counters synced."""
        if not self._packs:
            return None
        try:
            for pack in self._packs:
                run = pack.get_run(key)
                if run is not None:
                    self.stats.hits += 1
                    self.stats.pack_hits += 1
                    return run
            return None
        finally:
            self.stats.blocks_read = sum(pack.blocks_read for pack in self._packs)

    def _quarantine(self, path: str) -> None:
        """Set a corrupt loose entry aside as ``<path>.corrupt``."""
        self.stats.corrupt += 1
        try:
            os.replace(path, path + ".corrupt")
        except OSError:  # pragma: no cover - unreadable *and* unmovable
            logger.warning("corrupt cache entry %s (could not quarantine)", path)
            return
        logger.warning("corrupt cache entry %s quarantined to %s.corrupt", path, path)

    def put(self, key: str, run: RunResult) -> None:
        """Store ``run`` under ``key`` (atomic: write-temp-then-rename).

        A pack-only cache silently discards stores: packs are immutable
        artifacts, and the caller's contract (``get`` after ``put`` may hit)
        is already satisfied by whichever pack made the ``put`` redundant.
        """
        if self.cache_dir is None:
            return
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with profile_phase("serialize"), os.fdopen(fd, "w") as handle:
                save_run_result(run, handle)
            os.replace(temp_path, path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        self.stats.stores += 1

    def clear(self) -> int:
        """Delete every loose entry (quarantined ones included); returns how
        many live entries were removed.  Attached packs are never touched."""
        if self.cache_dir is None:
            return 0
        removed = 0
        for directory, _, files in os.walk(self.cache_dir):
            for name in files:
                if name.endswith(".json"):
                    os.unlink(os.path.join(directory, name))
                    removed += 1
                elif name.endswith(".json.corrupt"):
                    os.unlink(os.path.join(directory, name))
        return removed

    def __len__(self) -> int:
        if self.cache_dir is None:
            return 0
        return sum(
            1
            for _, _, files in os.walk(self.cache_dir)
            for name in files
            if name.endswith(".json")
        )


# ----------------------------------------------------------------- executor
def _unit_event(kind: str, unit: WorkUnit, key: str, **extra) -> TelemetryEvent:
    """One telemetry lifecycle event describing ``unit`` (see repro.obs)."""
    return TelemetryEvent(
        kind=kind,
        group=unit.group or f"{unit.spec.name}@{unit.fs_type}",
        fs=unit.fs_type,
        workload=unit.spec.name,
        repetition=unit.repetition,
        seed=unit.seed,
        key=key,
        **extra,
    )


class ParallelExecutor:
    """Runs work units across processes, with optional result caching.

    Parameters
    ----------
    n_workers:
        Worker processes.  ``1`` (the default) executes in-process with no
        pool; ``None`` or ``0`` means one worker per CPU.
    cache:
        Optional :class:`ResultCache`.  Hits skip execution entirely; every
        fresh result is stored on completion.
    telemetry:
        Optional :class:`~repro.obs.telemetry.TelemetrySink`.  When attached
        the executor emits one lifecycle event per unit (``queued``, then a
        terminal ``cache-hit``/``pack-hit``/``exec-done``/``failed``, with
        ``exec-start`` carrying a fresh execution's true start stamp) and
        runs fresh units under the wall-clock phase profiler
        (:mod:`repro.obs.profile`).  Telemetry is observation only: results,
        cache keys and serialized payloads are byte-identical with a sink
        attached or not (pinned in ``tests/test_telemetry.py``).

    Determinism: results are returned in work-unit order and each unit's
    randomness is fully determined by its own seed, so the output is
    bit-identical for any worker count (and for any mix of cache hits and
    fresh executions).
    """

    def __init__(
        self,
        n_workers: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        telemetry: Optional[TelemetrySink] = None,
    ) -> None:
        if n_workers is None or n_workers == 0:
            n_workers = os.cpu_count() or 1
        if n_workers < 0:
            raise ValueError("n_workers must be None or >= 0")
        self.n_workers = n_workers
        self.cache = cache
        self.telemetry = telemetry

    # ------------------------------------------------------------ execution
    def run_units(
        self,
        units: Sequence[WorkUnit],
        on_result: Optional[Callable[[WorkUnit, RunResult, bool], None]] = None,
    ) -> List[RunResult]:
        """Execute every unit (or fetch it from cache); results in unit order.

        ``on_result(unit, run, cached)`` is a streaming progress hook: it
        fires for every cache hit during the initial scan and then for every
        fresh result as it completes (completion order under a pool).  The
        returned list is unaffected -- still unit order, still bit-identical
        for any worker count.

        With a telemetry sink attached, each unit's events are emitted
        *before* its ``on_result`` call, so downstream consumers (the
        Experiment streaming callbacks, the progress reporter) always
        observe a unit whose event log is already terminal.  A unit that
        raises emits a ``failed`` event first and then propagates the
        exception unchanged.

        The key scan computes one key per unit (with a cache or a sink
        attached), in unit order.  It encodes each spec and testbed object
        once, and the config once per run of units holding the same keyed
        values (see :class:`_KeyScan`); the reuse state lives for this call
        only, so a spec or config mutated between calls is encoded afresh.
        """
        units = list(units)
        results: List[Optional[RunResult]] = [None] * len(units)
        sink = self.telemetry

        pending: List[int] = []
        keys: Dict[int, str] = {}
        scan = _KeyScan()
        for index, unit in enumerate(units):
            if self.cache is not None or sink is not None:
                keys[index] = unit.key(scan)
            if sink is not None:
                sink.emit(_unit_event("queued", unit, keys[index]))
            if self.cache is not None:
                cached, origin = self.cache.lookup(keys[index])
                if cached is not None:
                    # The measurement depends only on the effective seed; the
                    # repetition index is bookkeeping relative to *this* run.
                    cached.repetition = unit.repetition
                    results[index] = cached
                    if sink is not None:
                        sink.emit(
                            _unit_event(
                                "pack-hit" if origin == "pack" else "cache-hit",
                                unit,
                                keys[index],
                            )
                        )
                    if on_result is not None:
                        on_result(unit, cached, True)
                    continue
            pending.append(index)

        def _store(
            index: int, run: RunResult, timing: Optional[UnitTiming] = None
        ) -> None:
            self._cache_put(keys.get(index), run, timing)
            if sink is not None and timing is not None:
                sink.emit(
                    _unit_event(
                        "exec-start", units[index], keys[index], worker=timing.pid
                    ),
                    t_s=sink.to_sink_time(timing.started_epoch_s),
                )
                sink.emit(
                    _unit_event(
                        "exec-done",
                        units[index],
                        keys[index],
                        wall_s=timing.wall_s,
                        worker=timing.pid,
                        phases=timing.phases,
                    ),
                    t_s=sink.to_sink_time(timing.ended_epoch_s),
                )
            results[index] = run
            if on_result is not None:
                on_result(units[index], run, False)

        self._execute([units[i] for i in pending], pending, _store, keys)
        return results  # type: ignore[return-value]

    def _cache_put(
        self, key: Optional[str], run: RunResult, timing: Optional[UnitTiming]
    ) -> None:
        """Store a fresh result; under telemetry, measure the serialization.

        The ``serialize`` phase happens in the parent process (the worker
        never touches the cache), so it is bracketed here with a private
        profiler and folded into the unit's phase totals before the
        ``exec-done`` event is emitted.
        """
        if self.cache is None or key is None:
            return
        if timing is None:
            self.cache.put(key, run)
            return
        from repro.obs import profile

        previous = profile.active()
        profiler = profile.enable()
        try:
            self.cache.put(key, run)
        finally:
            if previous is not None:
                profile.enable(previous)
            else:
                profile.disable()
        for name, seconds in profiler.totals().items():
            timing.phases[name] = timing.phases.get(name, 0.0) + seconds

    # ------------------------------------------------------------- internals
    def _run_local(self, unit: WorkUnit, key: str):
        """Execute one unit in-process, returning ``store`` arguments.

        Without a sink this is a plain ``execute_unit`` call -- the
        telemetry-off path stays structurally identical to before the
        feature existed.  With a sink, the unit runs under the phase
        profiler and a ``failed`` event is emitted before any exception
        propagates, so no unit ever vanishes from the event log.
        """
        sink = self.telemetry
        if sink is None:
            return (execute_unit(unit),)
        try:
            run, timing = timed_execute(unit)
        except Exception as error:
            sink.emit(_unit_event("failed", unit, key, error=repr(error)))
            raise
        return (run, timing)

    def _execute(
        self,
        units: List[WorkUnit],
        indices: List[int],
        store: Callable[..., None],
        keys: Dict[int, str],
    ) -> None:
        """Run ``units`` and hand each result to ``store(original_index, run)``.

        Delivery order is completion order (so progress hooks stream), but
        ``store`` places results by index, so callers always observe unit
        order.  Each index is delivered exactly once.
        """
        if not units:
            return
        sink = self.telemetry
        if self.n_workers == 1 or len(units) == 1:
            for index, unit in zip(indices, units):
                store(index, *self._run_local(unit, keys.get(index, "")))
            return
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        workers = min(self.n_workers, len(units))
        delivered = set()
        run_fn = execute_unit if sink is None else timed_execute
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(run_fn, unit): position
                    for position, unit in enumerate(units)
                }
                for future in as_completed(futures):
                    position = futures[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as error:
                        if sink is not None:
                            sink.emit(
                                _unit_event(
                                    "failed",
                                    units[position],
                                    keys.get(indices[position], ""),
                                    error=repr(error),
                                )
                            )
                        raise
                    if sink is None:
                        store(indices[position], outcome)
                    else:
                        run, timing = outcome
                        store(indices[position], run, timing)
                    delivered.add(position)
        except BrokenProcessPool:  # pragma: no cover - sandboxed hosts
            # Workers could not be spawned (hosts that forbid subprocess
            # creation) or died wholesale; re-run the undelivered remainder
            # serially -- same results, just slower.  Errors raised *by a
            # unit* are not caught here: they propagate as themselves.
            for position, unit in enumerate(units):
                if position not in delivered:
                    store(
                        indices[position],
                        *self._run_local(unit, keys.get(indices[position], "")),
                    )
