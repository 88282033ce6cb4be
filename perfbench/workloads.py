"""The benchmark's workloads: two simulations and one campaign replay.

Every workload drives the simulator through ``Experiment.run`` with the
serial executor, as a closed loop: each unit starts when the previous one
ends.  Unit ``i`` of a run uses seed ``seed + i``.  Inputs are fixed so a
run's work does not depend on its seed:

* every unit's window ends at a fixed op count (``max_ops``), never at a
  simulated duration -- postmark completes ~2.2k ops in its first 5 virtual
  seconds but ~103k in 20;
* ``EnvironmentNoise`` is switched off, so every unit gets the same page
  cache (51.25 MiB at ``scaled_testbed(0.125)``) instead of a per-seed
  +/-6 MiB swing that the warm-up then fills.

See ``perfbench/README.md`` for each workload's inputs and why it was chosen.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import Experiment
from repro.core.persistence import canonical_run_payload, run_from_payload
from repro.core.runner import BenchmarkConfig, EnvironmentNoise
from repro.obs import profile
from repro.storage import config as storage_config
from repro.storage.config import scaled_testbed
from repro.store import writer as store_writer

from perfbench import declared, layers
from perfbench.hostspeed import ReferenceClock
from perfbench.tracer import CallTracer

TESTBED_SCALE = 0.125


@dataclass
class Tally:
    """Units attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def fail(self, units: int, reason: str) -> None:
        self.failed += units
        if len(self.reasons) < 10:
            self.reasons.append(reason)


@dataclass
class Unit:
    """One checked unit: its result bytes and where its wall time went."""

    seed: int
    payload: bytes
    operations: int
    measured_s: float
    setup_s: float
    #: Wall seconds to reference seconds for this unit (see ``hostspeed``).
    scale: float = 1.0


def declared_metrics(section: str, values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """``values`` as result metrics, in the order and units ``BENCHMARK.json`` declares."""
    return {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in declared(section)}


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def round_trip_problem(run) -> Optional[str]:
    """Why ``run`` does not survive canonical encode -> decode -> encode, if it does not."""
    payload = canonical_run_payload(run)
    if canonical_run_payload(run_from_payload(payload)) != payload:
        return "payload does not round-trip byte-identically"
    return None


def frame_bytes(frame) -> bytes:
    buffer = io.StringIO()
    frame.to_jsonl(buffer)
    return buffer.getvalue().encode("utf-8")


def clear_ftl_memo() -> None:
    """Forget preconditioned FTL states, as a fresh process would have.

    ``ssd-ftl-steady`` memoises the preconditioned device per process; the
    first stack of every round pays for preconditioning again, so each
    round's set-up holds the same work.
    """
    storage_config._STEADY_FTL_STATES.clear()


def window_config(max_ops: int, interval_s: float = 1.0) -> BenchmarkConfig:
    return BenchmarkConfig(
        duration_s=0.0,
        max_ops=max_ops,
        repetitions=1,
        interval_s=interval_s,
        noise=EnvironmentNoise(enabled=False),
    )


# ------------------------------------------------------------ simulations
@dataclass
class SimulationWorkload:
    """One registry workload on one file system and device, unit by unit.

    A round is ``round_units`` consecutive units that start from an empty
    FTL memo; the measured part is the units' measured windows, everything
    else in a round is its set-up.
    """

    name: str
    fs: str
    device: str
    workload: str
    max_ops: int
    round_units: int
    trace_units: int

    MEASURED_ROOTS: ClassVar[Tuple[str, ...]] = ("WorkloadEngine.run",)

    def __post_init__(self) -> None:
        self.config = window_config(self.max_ops)
        self.testbed = scaled_testbed(TESTBED_SCALE)

    def run_unit(self, seed: int, tally: Tally) -> Optional[Unit]:
        gc.collect()
        tally.attempted += 1
        profiler = profile.enable()
        started = time.perf_counter()
        try:
            result = Experiment(
                {"fs": self.fs, "workload": self.workload, "device": self.device, "seed": [seed]},
                name=self.name,
                config=self.config,
                testbed=self.testbed,
                n_workers=1,
            ).run()
        except Exception as error:  # a unit that raises fails; the run goes on
            tally.fail(1, f"{self.name} seed {seed}: {error!r}")
            return None
        finally:
            wall_s = time.perf_counter() - started
            profile.disable()
        measured_s = profiler.totals().get("measured-run", 0.0)
        runs = [run for repetitions in result.sets.values() for run in repetitions.runs]
        problem = None
        if len(runs) != 1:
            problem = f"expected one run, got {len(runs)}"
        elif runs[0].operations != self.max_ops:
            problem = f"window ended after {runs[0].operations} of {self.max_ops} ops"
        else:
            problem = round_trip_problem(runs[0])
        if problem is not None:
            tally.fail(1, f"{self.name} seed {seed}: {problem}")
            return None
        run = runs[0]
        return Unit(seed, canonical_run_payload(run), run.operations, measured_s, wall_s - measured_s)

    def run_round(
        self,
        seeds: Sequence[int],
        tally: Tally,
        after_unit: Optional[Callable[[], None]] = None,
        clock: Optional[ReferenceClock] = None,
    ) -> List[Unit]:
        clear_ftl_memo()
        units = []
        for seed in seeds:
            unit = self.run_unit(seed, tally)
            if after_unit is not None:
                after_unit()
            scale = clock.scale() if clock is not None else 1.0
            if unit is not None:
                unit.scale = scale
                units.append(unit)
        return units

    def measure(self, seed: int, seconds: float, tally: Tally, work_dir: str) -> Dict[str, Dict[str, object]]:
        # Unit 0 warms the interpreter and allocator; it is checked, not timed.
        self.run_round([seed], tally)
        clock = ReferenceClock()
        next_seed = seed + 1
        measured_s = 0.0
        rates: List[Tuple[float, float]] = []
        setups: List[Tuple[float, float]] = []
        while measured_s < seconds:
            seeds = range(next_seed, next_seed + self.round_units)
            next_seed += self.round_units
            units = self.run_round(seeds, tally, clock=clock)
            if not units:
                break
            setups.append(
                (sum(u.setup_s * u.scale for u in units), sum(u.setup_s for u in units))
            )
            rates.extend(
                (u.operations / (u.measured_s * u.scale), u.operations / u.measured_s)
                for u in units
            )
            measured_s += sum(unit.measured_s for unit in units)
        return end_to_end(self.name, rates, setups)

    def trace(self, seed: int, seconds: float, tally: Tally, work_dir: str) -> Dict[str, Dict[str, object]]:
        self.run_round([seed], tally)
        clock = ReferenceClock()
        seeds = range(seed + 1, seed + 1 + self.trace_units)
        untraced = self.run_round(seeds, tally, clock=clock)
        tracer, counters = layer_tracer(self.name, self.MEASURED_ROOTS, len(seeds), tally)
        with tracer:
            traced = self.run_round(seeds, tally, after_unit=counters.harvest, clock=clock)
        compare_payloads(self.name, untraced, traced, tally)
        traced_s = sum(unit.measured_s for unit in traced)
        untraced_s = sum(unit.measured_s * unit.scale for unit in untraced)
        scaled_traced_s = sum(unit.measured_s * unit.scale for unit in traced)
        overhead = scaled_traced_s / untraced_s if untraced_s else 0.0
        values = layers.layer_metrics(tracer, counters, {}, overhead)
        write_trace(self.name, seed, tracer, traced_s, work_dir)
        return declared_metrics("per_layer", values)


def layer_tracer(
    name: str, measured_roots: Sequence[str], traced_units: int, tally: Tally
) -> Tuple[CallTracer, layers.StackCounters]:
    """A tracer over every layer function, and the counters of the stacks it sees.

    A function the tracer cannot find (renamed, moved or made a property)
    would read as zero in every metric built on it, so it fails the traced
    units instead.
    """
    tracer = CallTracer()
    counters = layers.StackCounters()
    layers.register(tracer, counters, measured_roots)
    if tracer.missing:
        tally.fail(traced_units, f"{name}: traced functions not found: {', '.join(tracer.missing)}")
    return tracer, counters


def compare_payloads(name: str, untraced: Sequence[Unit], traced: Sequence[Unit], tally: Tally) -> None:
    """The traced pass must reproduce the untraced pass byte for byte."""
    untraced_by_seed = {unit.seed: unit.payload for unit in untraced}
    for unit in traced:
        if untraced_by_seed.get(unit.seed) != unit.payload:
            tally.fail(1, f"{name} seed {unit.seed}: traced payload differs from untraced")


def write_trace(name: str, seed: int, tracer: CallTracer, measured_s: float, work_dir: str) -> None:
    """Write the raw spans and the per-layer table of one traced run."""
    os.makedirs(work_dir, exist_ok=True)
    tracer.write(
        os.path.join(work_dir, f"trace-{name}-seed{seed}.jsonl"),
        {"workload": name, "seed": seed, "measured_s": measured_s},
    )
    with open(os.path.join(work_dir, f"layers-{name}.md"), "w") as handle:
        handle.write(f"{name}, seed {seed}: traced measured part {measured_s:.3f} s\n\n")
        handle.write(layers.layer_table(tracer, measured_s) + "\n")
        handle.write(
            f"\nsimulator layers' share of the measured part: "
            f"{layers.simulator_share(tracer, measured_s):.1%}\n"
        )


def end_to_end(
    name: str, rates: Sequence[Tuple[float, float]], setups: Sequence[Tuple[float, float]]
) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics from ``(reference, wall)`` samples.

    Medians over units (or replay chunks) and over set-ups, in reference
    seconds; the wall-second medians go to standard error for comparison.
    """
    def median(samples: Sequence[Tuple[float, float]], index: int) -> float:
        return statistics.median(sample[index] for sample in samples) if samples else 0.0

    print(
        f"perfbench: {name}: wall-clock medians: {median(rates, 1):.1f} ops/s, "
        f"set-up {median(setups, 1):.4f} s over {len(rates)} rate and {len(setups)} set-up samples",
        file=sys.stderr,
    )
    values = {"sim_ops_per_s": median(rates, 0), "setup_s": median(setups, 0), "peak_rss_mb": peak_rss_mb()}
    return declared_metrics("end_to_end", values)


# ---------------------------------------------------------- campaign replay
@dataclass
class Campaign:
    """An executed campaign: its loose cache, its pack and what they hold."""

    directory: str
    loose: str
    pack: str
    frame: bytes
    operations: int
    setup_s: float


@dataclass
class CampaignReplayWorkload:
    """Replay an executed campaign through ``Experiment.run`` without executing.

    Set-up executes the grid into a loose ``ResultCache`` and packs it with
    ``pack_result_cache``; the measured part replays the grid again and
    again, alternating the pack tier and the loose tier.
    """

    name: str
    fs: Tuple[str, ...]
    workloads: Tuple[str, ...]
    device: str
    seeds_per_cell: int
    max_ops: int
    interval_s: float
    setups: int
    chunk_replays: int
    trace_replays: int

    #: Empty: :meth:`replay` marks the measured part with ``tracer.measuring()``.
    MEASURED_ROOTS: ClassVar[Tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        self.config = window_config(self.max_ops, self.interval_s)
        self.testbed = scaled_testbed(TESTBED_SCALE)
        self.units = len(self.fs) * len(self.workloads) * self.seeds_per_cell

    def grid(self, seed: int) -> Dict[str, object]:
        return {
            "fs": self.fs,
            "workload": self.workloads,
            "device": self.device,
            "seed": list(range(seed, seed + self.seeds_per_cell)),
        }

    def experiment(self, seed: int, **tier) -> Experiment:
        return Experiment(
            self.grid(seed), name=self.name, config=self.config, testbed=self.testbed, n_workers=1, **tier
        )

    def set_up(self, seed: int, work_dir: str, tally: Tally) -> Optional[Campaign]:
        gc.collect()
        tally.attempted += self.units
        os.makedirs(work_dir, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="campaign-", dir=work_dir)
        loose = os.path.join(directory, "loose")
        pack = os.path.join(directory, "campaign.frpack")
        started = time.perf_counter()
        try:
            result = self.experiment(seed, cache_dir=loose).run()
            summary = store_writer.pack_result_cache(loose, pack)
        except Exception as error:
            tally.fail(self.units, f"{self.name} set-up seed {seed}: {error!r}")
            shutil.rmtree(directory, ignore_errors=True)
            return None
        setup_s = time.perf_counter() - started
        runs = [run for repetitions in result.sets.values() for run in repetitions.runs]
        problem = None
        if result.cache_stats is None or result.cache_stats.stores != self.units:
            problem = "campaign did not execute and store every unit"
        elif summary.records != self.units or summary.skipped:
            problem = f"pack holds {summary.records} records, {summary.skipped} skipped"
        elif any(run.operations != self.max_ops for run in runs):
            problem = "a unit did not complete its window"
        else:
            problem = next(filter(None, map(round_trip_problem, runs)), None)
        if problem is not None:
            tally.fail(self.units, f"{self.name} set-up seed {seed}: {problem}")
            shutil.rmtree(directory, ignore_errors=True)
            return None
        return Campaign(
            directory=directory,
            loose=loose,
            pack=pack,
            frame=frame_bytes(result.frame),
            operations=sum(run.operations for run in runs),
            setup_s=setup_s,
        )

    def replay(
        self,
        seed: int,
        campaign: Campaign,
        use_pack: bool,
        tally: Tally,
        cache_totals: Dict[str, float],
        tracer: Optional[CallTracer] = None,
    ) -> Optional[Tuple[float, list]]:
        """One replay of the whole grid: its wall time and runs, or ``None``.

        Only ``Experiment.run`` is timed (and, when tracing, measured); the
        checks that follow are not.  The replayed frame carries every metric
        of every run, so comparing it byte for byte with the executed
        campaign's checks every replayed result.
        """
        tally.attempted += self.units
        tier = {"pack_paths": [campaign.pack]} if use_pack else {"cache_dir": campaign.loose}
        experiment = self.experiment(seed, **tier)
        scope = tracer.measuring() if tracer is not None else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with scope:
                result = experiment.run()
        except Exception as error:
            tally.fail(self.units, f"{self.name} replay: {error!r}")
            return None
        wall_s = time.perf_counter() - started
        stats = result.cache_stats
        problem = None
        if stats is None or stats.hits != self.units or stats.misses or stats.stores:
            problem = "a replay executed a unit or missed the cache"
        elif use_pack and stats.pack_hits != self.units:
            problem = f"pack tier served {stats.pack_hits} of {self.units} units"
        elif frame_bytes(result.frame) != campaign.frame:
            problem = "replayed frame differs from the executed campaign's"
        if problem is not None:
            tally.fail(self.units, f"{self.name} replay ({'pack' if use_pack else 'loose'}): {problem}")
            return None
        for counter in ("hits", "misses", "pack_hits", "blocks_read"):
            cache_totals[counter] = cache_totals.get(counter, 0.0) + getattr(stats, counter)
        return wall_s, [run for repetitions in result.sets.values() for run in repetitions.runs]

    def measure(self, seed: int, seconds: float, tally: Tally, work_dir: str) -> Dict[str, Dict[str, object]]:
        setups: List[Tuple[float, float]] = []
        rates: List[Tuple[float, float]] = []
        replay_s = 0.0
        clock = ReferenceClock()
        for index in range(self.setups):
            campaign = self.set_up(seed, work_dir, tally)
            scale = clock.scale()
            if campaign is None:
                continue
            try:
                setups.append((campaign.setup_s * scale, campaign.setup_s))
                if index == 0:
                    # Untimed replays warm the harness's code paths.
                    self.replay_chunk(seed, campaign, tally)
                    clock.scale()
                budget = seconds * (index + 1) / self.setups
                while replay_s < budget:
                    wall_s = self.replay_chunk(seed, campaign, tally)
                    scale = clock.scale()
                    if not wall_s:
                        break
                    replay_s += wall_s
                    operations = self.chunk_replays * campaign.operations
                    rates.append((operations / (wall_s * scale), operations / wall_s))
            finally:
                shutil.rmtree(campaign.directory, ignore_errors=True)
        return end_to_end(self.name, rates, setups)

    def replay_chunk(self, seed: int, campaign: Campaign, tally: Tally) -> float:
        """Replay the grid ``chunk_replays`` times, alternating tiers.

        Returns the chunk's replay wall time, or 0.0 when a replay failed.
        A chunk holds both tiers equally, so chunk rates are one population
        and their median is a rate, not a tier.
        """
        total_s = 0.0
        for replay in range(self.chunk_replays):
            outcome = self.replay(seed, campaign, replay % 2 == 0, tally, {})
            if outcome is None:
                return 0.0
            total_s += outcome[0]
        return total_s

    def trace(self, seed: int, seconds: float, tally: Tally, work_dir: str) -> Dict[str, Dict[str, object]]:
        clock = ReferenceClock()
        _, untraced_s, untraced = self._replays(seed, tally, work_dir, clock, None, {})
        tracer, counters = layer_tracer(
            self.name, self.MEASURED_ROOTS, self.trace_replays * self.units, tally
        )
        cache_totals: Dict[str, float] = {}
        with tracer:
            traced_s, scaled_traced_s, traced = self._replays(
                seed, tally, work_dir, clock, tracer, cache_totals
            )
        if untraced != traced:
            tally.fail(self.units, f"{self.name}: traced replays differ from untraced replays")
        overhead = scaled_traced_s / untraced_s if untraced_s else 0.0
        values = layers.layer_metrics(tracer, counters, cache_totals, overhead)
        write_trace(self.name, seed, tracer, traced_s, work_dir)
        return declared_metrics("per_layer", values)

    def _replays(
        self,
        seed: int,
        tally: Tally,
        work_dir: str,
        clock: ReferenceClock,
        tracer: Optional[CallTracer],
        cache_totals: Dict[str, float],
    ) -> Tuple[float, float, List[List[bytes]]]:
        """One set-up, a warm-up chunk, then a fixed number of timed replays.

        Returns the replays' wall time, the same in reference seconds, and
        each replay's canonical payloads (empty for a failed replay).
        """
        campaign = self.set_up(seed, work_dir, tally)
        if campaign is None:
            return 0.0, 0.0, []
        replay_s = 0.0
        replays: List[List[bytes]] = []
        try:
            self.replay_chunk(seed, campaign, tally)
            clock.scale()
            for index in range(self.trace_replays):
                outcome = self.replay(seed, campaign, index % 2 == 0, tally, cache_totals, tracer)
                if outcome is None:
                    replays.append([])
                    continue
                replay_s += outcome[0]
                replays.append([canonical_run_payload(run) for run in outcome[1]])
            scale = clock.scale()
        finally:
            shutil.rmtree(campaign.directory, ignore_errors=True)
        return replay_s, replay_s * scale, replays


WORKLOADS = {
    workload.name: workload
    for workload in (
        SimulationWorkload(
            name="postmark-ext2-hdd",
            fs="ext2",
            device="hdd",
            workload="postmark",
            max_ops=20_000,
            round_units=1,
            trace_units=2,
        ),
        SimulationWorkload(
            name="oltp-ext4-ftl",
            fs="ext4",
            device="ssd-ftl-steady",
            workload="oltp",
            max_ops=10_000,
            round_units=4,
            trace_units=4,
        ),
        CampaignReplayWorkload(
            name="campaign-replay",
            fs=("ext2", "ext4"),
            workloads=("postmark", "metadata-mix"),
            device="hdd",
            seeds_per_cell=3,
            max_ops=500,
            interval_s=0.1,
            setups=8,
            chunk_replays=100,
            trace_replays=400,
        ),
    )
}
