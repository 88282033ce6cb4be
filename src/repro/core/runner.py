"""The measurement protocol: repetitions, cache-state control, noise injection.

The runner is where the framework encodes the paper's methodological
prescriptions:

* every configuration is run several times and reported with spread, never as
  one number;
* the cache state at the start of measurement is an explicit, named choice
  (:class:`WarmupMode`), not an accident of whatever ran before;
* small, realistic environmental perturbations (a few MB of page cache, a
  percent of CPU speed) are injected *on purpose* between repetitions, so
  that configurations whose results depend on "just a few megabytes" show up
  with the huge standard deviations they deserve (Section 3.1) instead of
  accidentally looking stable;
* the measured window is sampled in intervals so warm-up and steady state can
  be told apart after the fact;
* every repetition is a pure function of its configuration and effective seed
  (``config.seed + repetition``), which is what lets
  :mod:`repro.core.parallel` fan repetitions out across processes -- or skip
  them via its result cache -- with bit-identical results
  (:func:`run_single_repetition` is the picklable entry point).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Dict, List, Optional

from repro.core.concurrency import ClientSession, build_sessions, client_metrics, run_window
from repro.core.histogram import LatencyHistogram
from repro.core.results import RunResult
from repro.core.steady_state import SteadyStateDetector
from repro.core.timeline import HistogramTimeline, IntervalSeries
from repro.fs.stack import StorageStack, build_stack
from repro.obs.profile import phase as profile_phase
from repro.obs.trace import Tracer
from repro.storage.config import TestbedConfig, paper_testbed
from repro.workloads.spec import OpRecord, WorkloadEngine, WorkloadSpec

#: Event-ring capacity of the tracer the runner attaches for traced windows.
#: Attribution totals are exact regardless of this bound -- only the raw
#: event list is ring-buffered.
TRACE_RING_CAPACITY = 65536


class WarmupMode(str, Enum):
    """How the cache is conditioned before the measured window starts."""

    #: Measure from a cold cache (warm-up is part of the measurement).
    NONE = "none"
    #: Sequentially pre-read the fileset (up to cache capacity) outside
    #: measured time, then measure: the paper's "steady state" protocol for
    #: files that fit in memory, without spending 19 simulated minutes.
    PREWARM = "prewarm"
    #: Run the workload itself for ``warmup_s`` before measuring.
    DURATION = "duration"
    #: Run the workload until interval throughput is statistically steady
    #: (or ``max_warmup_s`` is reached), then measure.
    STEADY_STATE = "steady_state"


@dataclass(frozen=True)
class EnvironmentNoise:
    """Run-to-run environmental perturbation injected by the runner.

    ``cache_noise_bytes`` models the paper's observation that "it is
    difficult to control the availability of just a few megabytes from one
    benchmark run to another": each repetition's OS memory reservation is
    shifted by a uniform amount in ``[-cache_noise_bytes, +cache_noise_bytes]``.
    ``cpu_noise_sigma`` applies a log-normal factor to CPU costs per
    repetition (background daemons, frequency scaling).
    """

    cache_noise_bytes: int = 6 * 1024 * 1024
    cpu_noise_sigma: float = 0.01
    enabled: bool = True

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical noise parameters."""
        if self.cache_noise_bytes < 0:
            raise ValueError("cache_noise_bytes must be non-negative")
        if self.cpu_noise_sigma < 0:
            raise ValueError("cpu_noise_sigma must be non-negative")


@dataclass
class BenchmarkConfig:
    """Parameters of the measurement protocol.

    Attributes
    ----------
    duration_s:
        Length of the measured window in simulated seconds.
    max_ops:
        Optional cap on measured operations (whichever of duration/ops is
        reached first ends the window).
    repetitions:
        Number of repetitions per configuration.
    warmup_mode, warmup_s, max_warmup_s:
        Cache conditioning before measurement (see :class:`WarmupMode`).
    interval_s:
        Interval of the throughput timeline.
    histogram_interval_s:
        Interval of the histogram timeline; ``None`` disables it.
    collect_raw_latencies:
        Keep every latency sample (memory heavy; off by default).
    cold_cache:
        Drop caches between repetitions so each starts from the same state.
    seed:
        Base seed; repetition ``i`` uses ``seed + i`` for both the stack and
        the workload randomness.
    noise:
        Environmental perturbation injected per repetition.
    clients:
        Number of concurrent client sessions sharing the stack.  ``1`` (the
        default) drives the workload engine's own loop, and its payloads and
        cache keys are bit-identical to every release before the axis
        existed; ``>1`` interleaves hash-seeded copies of the workload
        through the deterministic virtual-time event loop
        (:mod:`repro.core.concurrency`) and reports per-client metrics on
        the result.  Both go through :meth:`BenchmarkRunner.run_once`.
    trace:
        Attach a :class:`repro.obs.Tracer` for the measured window and
        attach the resulting latency attribution and event ring to the
        result.  Tracing is non-perturbing: the measurement (and its
        serialized payload, and its cache key) is bit-identical with this
        on or off, which is why the flag is stripped from cache keys.
    """

    duration_s: float = 20.0
    max_ops: Optional[int] = None
    repetitions: int = 5
    warmup_mode: WarmupMode = WarmupMode.PREWARM
    warmup_s: float = 0.0
    max_warmup_s: float = 600.0
    interval_s: float = 1.0
    histogram_interval_s: Optional[float] = None
    collect_raw_latencies: bool = False
    cold_cache: bool = True
    seed: int = 42
    noise: EnvironmentNoise = field(default_factory=EnvironmentNoise)
    clients: int = 1
    trace: bool = False

    def validate(self) -> None:
        """Raise ``ValueError`` for impossible configurations."""
        if self.duration_s <= 0 and self.max_ops is None:
            raise ValueError("need a positive duration_s or a max_ops limit")
        if self.repetitions <= 0:
            raise ValueError("repetitions must be positive")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.histogram_interval_s is not None and self.histogram_interval_s <= 0:
            raise ValueError("histogram_interval_s must be positive when set")
        if self.warmup_mode is WarmupMode.DURATION and self.warmup_s <= 0:
            raise ValueError("warmup_s must be positive for DURATION warm-up")
        if self.max_warmup_s <= 0:
            raise ValueError("max_warmup_s must be positive")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        self.noise.validate()

    def with_repetitions(self, repetitions: int) -> "BenchmarkConfig":
        """Copy with a different repetition count."""
        return replace(self, repetitions=repetitions)


def run_single_repetition(
    fs_type: str,
    spec: WorkloadSpec,
    repetition: int = 0,
    testbed: Optional[TestbedConfig] = None,
    config: Optional[BenchmarkConfig] = None,
    snapshot_path: Optional[str] = None,
) -> "RunResult":
    """Run one repetition of ``spec`` as a pure function of its arguments.

    This is the picklable entry point used by the parallel executor
    (:mod:`repro.core.parallel`): it builds a fresh
    :class:`BenchmarkRunner` with the default stack factory and returns
    ``runner.run_once(spec, repetition)``.  Because the runner derives every
    random source from ``config.seed + repetition``, calling this in any
    process, in any order, yields results bit-identical to calling
    ``run_once`` for each repetition in turn in one process.

    ``snapshot_path`` is the aging axis: when given, every repetition starts
    from the aged state stored in that
    :class:`~repro.aging.snapshot.StateSnapshot` file instead of a
    freshly-formatted stack.  Restoration is itself deterministic, so the
    purity (and therefore parallel/caching safety) of this function is
    unchanged -- the snapshot fingerprint simply becomes part of the
    measurement's identity (see :func:`repro.core.parallel.cache_key`).
    """
    stack_factory = None
    if snapshot_path is not None:
        # Imported lazily: the aging subsystem sits above the core layer.
        from repro.aging.snapshot import snapshot_stack_factory

        restore_factory = snapshot_stack_factory(snapshot_path)

        def stack_factory(fs_type, testbed, seed, cpu_factor):
            # Bracketed so the snapshot restoration shows up as its own
            # wall-clock phase, nested inside (and subtracted from) the
            # runner's ``stack-build`` bracket.
            with profile_phase("snapshot-restore"):
                return restore_factory(fs_type, testbed, seed, cpu_factor)

    runner = BenchmarkRunner(
        fs_type=fs_type, testbed=testbed, config=config, stack_factory=stack_factory
    )
    return runner.run_once(spec, repetition)


class _Recorder:
    """Collects per-operation records during the measured window."""

    def __init__(self, config: BenchmarkConfig, origin_ns: float) -> None:
        self.histogram = LatencyHistogram()
        self.timeline = IntervalSeries(interval_s=config.interval_s, origin_ns=origin_ns)
        self.histogram_timeline = (
            HistogramTimeline(interval_s=config.histogram_interval_s, origin_ns=origin_ns)
            if config.histogram_interval_s is not None
            else None
        )
        self.raw: Optional[List[float]] = [] if config.collect_raw_latencies else None
        self.operations = 0
        self.enabled = True

    def __call__(self, record: OpRecord) -> None:
        if not self.enabled:
            return
        self.operations += 1
        self.histogram.add(record.latency_ns)
        self.timeline.record(record.end_time_ns, record.latency_ns, record.bytes_moved)
        if self.histogram_timeline is not None:
            self.histogram_timeline.record(record.end_time_ns, record.latency_ns)
        if self.raw is not None:
            self.raw.append(record.latency_ns)


def _flash_environment(stack: StorageStack) -> Dict[str, float]:
    """Measured-window flash telemetry for the result's environment dict.

    Stateful devices (the FTL SSD) report their flash counters through the
    stack's metrics registry; the keys are absent for stateless devices so
    existing results (and cached entries) keep their exact payloads.
    """
    if not callable(getattr(stack.device.model, "export_state", None)):
        return {}
    device = stack.metrics_registry().snapshot()["device"]
    return {
        "device_write_amplification": device["write_amplification"],
        "device_pages_programmed": device["pages_programmed"],
        "device_pages_moved": device["pages_moved"],
        "device_erases": device["erases"],
        "device_gc_time_ns": device["gc_time_ns"],
        "device_discards": device["discards"],
    }


def _session_recorder(session: ClientSession, recorder: _Recorder):
    """An ``on_op`` callback that feeds both the shared recorder and one
    session's exact per-client sample list."""

    def _record(record: OpRecord) -> None:
        recorder(record)
        session.operations += 1
        session.latencies_ns.append(record.latency_ns)

    return _record


def _drive(
    sessions: List[ClientSession],
    clock,
    duration_s: Optional[float],
    max_ops: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> int:
    """Run one window of the workload; returns the operations executed.

    One client runs its engine's own :meth:`WorkloadEngine.run`; several
    interleave through :func:`~repro.core.concurrency.run_window`.  The two
    are not interchangeable for one client: ``run`` checks the deadline
    once per round of the spec's threads, ``run_window`` after every
    operation, so a multi-threaded workload (oltp runs 8) would end its
    windows at different operations.
    """
    if len(sessions) == 1:
        return sessions[0].engine.run(duration_s=duration_s, max_ops=max_ops)
    return run_window(sessions, clock, duration_s=duration_s, max_ops=max_ops, tracer=tracer)


class BenchmarkRunner:
    """Runs a workload spec against a file system under the measurement protocol.

    Parameters
    ----------
    fs_type:
        File system to mount (``"ext2"``, ``"ext3"``, ``"ext4"``, ``"xfs"``).
    testbed:
        Simulated machine description (defaults to the paper's testbed).
    config:
        Measurement protocol parameters.
    stack_factory:
        Override for how stacks are built (used by tests and by ablation
        benchmarks that need custom readahead policies etc.).  The callable
        receives ``(fs_type, testbed, seed, cpu_speed_factor)``.
    """

    def __init__(
        self,
        fs_type: str = "ext2",
        testbed: Optional[TestbedConfig] = None,
        config: Optional[BenchmarkConfig] = None,
        stack_factory: Optional[Callable[[str, TestbedConfig, int, float], StorageStack]] = None,
    ) -> None:
        self.fs_type = fs_type
        self.testbed = testbed if testbed is not None else paper_testbed()
        self.config = config if config is not None else BenchmarkConfig()
        self.config.validate()
        self.testbed.validate()
        self._stack_factory = stack_factory or self._default_stack_factory

    @staticmethod
    def _default_stack_factory(
        fs_type: str, testbed: TestbedConfig, seed: int, cpu_speed_factor: float
    ) -> StorageStack:
        return build_stack(
            fs_type=fs_type, testbed=testbed, seed=seed, cpu_speed_factor=cpu_speed_factor
        )

    # ----------------------------------------------------------- public API
    def run_once(self, spec: WorkloadSpec, repetition: int = 0) -> RunResult:
        """Run a single repetition of ``spec`` and return its :class:`RunResult`.

        Every client count takes this one path.  The count changes four
        things: one :class:`WorkloadEngine` or
        :func:`~repro.core.concurrency.build_sessions` builds the engines;
        the ``_Recorder`` itself or one per-session hook is each engine's
        ``on_op``; :func:`_drive` picks the loop that drives a window; and
        only with more than one client does the result carry
        ``environment["clients"]`` and ``client_metrics``.
        """
        config = self.config
        multi_client = config.clients > 1
        seed = config.seed + repetition
        noise_rng = random.Random(seed * 7919 + 13)

        testbed, cpu_factor, effective_cache = self._perturbed_environment(noise_rng)
        # The profile brackets observe wall time only (see repro.obs.profile);
        # they are no-ops unless a profiler is enabled and never touch the
        # virtual clock, so the measurement is identical with or without them.
        with profile_phase("stack-build"):
            stack = self._stack_factory(self.fs_type, testbed, seed, cpu_factor)

        if multi_client:
            sessions = build_sessions(stack, spec, base_seed=seed, clients=config.clients)
        else:
            sessions = [ClientSession(0, seed, WorkloadEngine(stack, spec, seed=seed))]
        with profile_phase("setup"):
            for session in sessions:
                session.engine.setup()
            if config.cold_cache:
                stack.drop_caches()

        warmup_start_ns = stack.clock.now_ns
        with profile_phase("warmup"):
            self._warm_up(stack, sessions)
        warmup_duration_s = (stack.clock.now_ns - warmup_start_ns) / 1e9

        origin_ns = stack.clock.now_ns
        recorder = _Recorder(config, origin_ns)
        for session in sessions:
            session.engine.on_op = (
                _session_recorder(session, recorder) if multi_client else recorder
            )
        stack.reset_statistics()
        tracer = self._attach_tracer(stack)

        duration = config.duration_s if config.duration_s > 0 else None
        with profile_phase("measured-run"):
            _drive(sessions, stack.clock, duration, max_ops=config.max_ops, tracer=tracer)
        for session in sessions:
            session.engine.on_op = None
        if tracer is not None:
            stack.attach_tracer(None)

        measured_duration_s = (stack.clock.now_ns - origin_ns) / 1e9
        throughput = recorder.operations / measured_duration_s if measured_duration_s > 0 else 0.0

        # The last operation may spill past the nominal duration into a
        # mostly-empty extra interval; keep only complete intervals.
        complete_intervals = int(measured_duration_s / config.interval_s)
        if complete_intervals >= 1:
            recorder.timeline.truncate(complete_intervals)
        if recorder.histogram_timeline is not None and config.histogram_interval_s:
            complete_histograms = int(measured_duration_s / config.histogram_interval_s)
            if complete_histograms >= 1:
                recorder.histogram_timeline.truncate(complete_histograms)

        environment = {
            "page_cache_bytes": float(effective_cache),
            "cpu_speed_factor": cpu_factor,
        }
        if multi_client:
            environment["clients"] = float(config.clients)
        environment.update(_flash_environment(stack))

        return RunResult(
            workload_name=spec.name,
            fs_name=stack.fs_name,
            repetition=repetition,
            seed=seed,
            measured_duration_s=measured_duration_s,
            warmup_duration_s=warmup_duration_s,
            operations=recorder.operations,
            throughput_ops_s=throughput,
            histogram=recorder.histogram,
            timeline=recorder.timeline,
            histogram_timeline=recorder.histogram_timeline,
            raw_latencies_ns=recorder.raw,
            cache_hit_ratio=stack.cache.stats.hit_ratio,
            device_reads=stack.device.stats.read_requests,
            device_writes=stack.device.stats.write_requests,
            bytes_read=stack.vfs.stats.bytes_read,
            bytes_written=stack.vfs.stats.bytes_written,
            environment=environment,
            client_metrics=(
                client_metrics([session.latencies_ns for session in sessions], measured_duration_s)
                if multi_client
                else None
            ),
            attribution=tracer.attribution.to_dict() if tracer is not None else None,
            trace_events=tracer.events_list() if tracer is not None else None,
        )

    # ------------------------------------------------------------- internals
    def _attach_tracer(self, stack: StorageStack) -> Optional[Tracer]:
        """Attach a tracer for the measured window when ``config.trace`` is on.

        Returns ``None`` (and touches nothing) otherwise, so the untraced
        path stays structurally identical to every release before tracing
        existed.
        """
        if not self.config.trace:
            return None
        tracer = Tracer(stack.clock, capacity=TRACE_RING_CAPACITY)
        stack.attach_tracer(tracer)
        return tracer

    def _perturbed_environment(self, rng: random.Random):
        """Apply environmental noise to the testbed for one repetition."""
        noise = self.config.noise
        testbed = self.testbed
        cpu_factor = 1.0
        if noise.enabled and noise.cpu_noise_sigma > 0:
            cpu_factor = rng.lognormvariate(0.0, noise.cpu_noise_sigma)
        if noise.enabled and noise.cache_noise_bytes > 0:
            delta = rng.randint(-noise.cache_noise_bytes, noise.cache_noise_bytes)
            reserved = min(
                max(0, testbed.os_reserved_bytes + delta), testbed.ram_bytes - testbed.page_size
            )
            testbed = replace(testbed, os_reserved_bytes=reserved)
        return testbed, cpu_factor, testbed.page_cache_bytes

    def _warm_up(self, stack: StorageStack, sessions: List[ClientSession]) -> None:
        """Condition the cache according to the configured warm-up mode.

        Every client takes part: PREWARM pre-reads each client's fileset in
        client order (stopping, as ever, once the shared cache is full), and
        DURATION and STEADY_STATE run windows of the same loop the measured
        window uses (see :func:`_drive`).
        """
        config = self.config
        mode = config.warmup_mode
        if mode is WarmupMode.NONE:
            return
        if mode is WarmupMode.PREWARM:
            for session in sessions:
                self._prewarm_sequential(stack, session.engine)
            return
        if mode is WarmupMode.DURATION:
            _drive(sessions, stack.clock, config.warmup_s)
            return
        # STEADY_STATE: run in interval-sized chunks until stable.
        detector = SteadyStateDetector()
        elapsed = 0.0
        chunk = max(config.interval_s, 1.0)
        while elapsed < config.max_warmup_s:
            start_ns = stack.clock.now_ns
            ops = _drive(sessions, stack.clock, chunk)
            interval_s = (stack.clock.now_ns - start_ns) / 1e9
            elapsed += interval_s
            if detector.observe(ops / interval_s if interval_s > 0 else 0.0):
                return

    def _prewarm_sequential(self, stack: StorageStack, engine: WorkloadEngine) -> None:
        """Sequentially read the fileset into the cache, outside measured time.

        Reads stop once the page cache is full -- warming more than fits
        would only churn the cache.  Afterwards the virtual clock keeps its
        value (warm-up time is reported separately) but device backlog is
        drained so measurement does not start with a busy device.
        """
        vfs = stack.vfs
        fileset = engine.fileset
        if fileset is None:
            return
        capacity_pages = stack.cache.capacity_pages
        chunk = 1024 * 1024
        for index in range(len(fileset)):
            if len(stack.cache) >= capacity_pages:
                break
            size = fileset.size_of(index)
            if size <= 0:
                continue
            fd = vfs.open_uncharged(fileset.path_of(index))
            offset = 0
            while offset < size and len(stack.cache) < capacity_pages:
                vfs.read(fd, min(chunk, size - offset), offset=offset)
                offset += chunk
            vfs.close_uncharged(fd)
        # Drain outstanding asynchronous device work before measuring.
        backlog = vfs._device_busy_until_ns - stack.clock.now_ns
        if backlog > 0:
            stack.clock.advance(backlog)
