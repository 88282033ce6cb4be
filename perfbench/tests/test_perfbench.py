"""Self-tests of the benchmark: tracer hygiene, span accounting, metric names.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench/tests``.
Workloads here are shrunk to a few hundred ops so each test takes seconds.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import declared, layers  # noqa: E402
from perfbench.tracer import MEASURED, SETUP, CallTracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CampaignReplayWorkload,
    WORKLOADS,
    SimulationWorkload,
    Tally,
    end_to_end,
    layer_tracer,
)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def declared_names(section):
    return [entry["name"] for entry in declared(section)]


def tiny_simulation(**overrides):
    fields = dict(
        name="tiny-postmark",
        fs="ext2",
        device="hdd",
        workload="postmark",
        max_ops=300,
        round_units=1,
        trace_units=1,
    )
    fields.update(overrides)
    return SimulationWorkload(**fields)


def tiny_replay():
    return CampaignReplayWorkload(
        name="tiny-replay",
        fs=("ext2",),
        workloads=("postmark",),
        device="hdd",
        seeds_per_cell=2,
        max_ops=100,
        interval_s=0.1,
        setups=1,
        chunk_replays=2,
        trace_replays=4,
    )


def originals(tracer):
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer._pending]


def test_traced_mode_restores_every_wrapped_function(tmp_path):
    tracer = CallTracer()
    layers.register(tracer, layers.StackCounters(), SimulationWorkload.MEASURED_ROOTS)
    before = originals(tracer)
    assert not tracer.missing
    with pytest.raises(RuntimeError, match="boom"):
        with tracer:
            assert all(owner.__dict__[attr] is not original for owner, attr, original in before)
            tiny_simulation().run_unit(1, Tally())
            raise RuntimeError("boom")
    assert all(owner.__dict__[attr] is original for owner, attr, original in before)
    assert not tracer.installed


def test_span_self_times_are_non_negative_and_tile_the_window():
    tracer = CallTracer(ring_capacity=10_000_000)
    counters = layers.StackCounters()
    layers.register(tracer, counters, SimulationWorkload.MEASURED_ROOTS)
    tally = Tally()
    with tracer:
        unit = tiny_simulation().run_unit(3, tally)
        counters.harvest()
    assert unit is not None and tally.failed == 0
    spans = list(tracer.ring)
    assert spans and len(spans) == sum(
        function.calls(MEASURED) + function.calls(SETUP) for function in tracer.functions
    )
    assert all(own >= 0 for *_, own in spans)
    assert tracer.root_self_ns >= 0
    assert sum(own for *_, own in spans) + tracer.root_self_ns == tracer.window_ns
    assert tracer.total_self_ns() == tracer.window_ns
    # Every span inside a simulated op shares that op's group.
    ops = [span for span in spans if tracer.functions[span[3]].name.endswith("._execute_one")]
    assert len(ops) == 300 and len({span[2] for span in ops}) == 300


def test_printed_metric_names_are_declared():
    printed = list(end_to_end("x", [(1.0, 1.0)], [(1.0, 1.0)]))
    assert printed == declared_names("end_to_end")
    computed = layers.layer_metrics(CallTracer(), layers.StackCounters(), {}, 1.0)
    assert sorted(computed) == sorted(declared_names("per_layer"))
    for name in printed + list(computed):
        assert NAME.match(name), name
    assert list(WORKLOADS) == declared_names("workloads")


def test_a_traced_function_that_is_not_found_fails_the_traced_units(monkeypatch):
    monkeypatch.setattr(
        layers,
        "LAYER_FUNCTIONS",
        layers.LAYER_FUNCTIONS + (("fs.model", "repro.fs.base", "Inode", ("no_such_function",)),),
    )
    tally = Tally()
    tally.attempted = 3
    tracer, _ = layer_tracer("x", SimulationWorkload.MEASURED_ROOTS, 3, tally)
    assert tracer.missing == ["repro.fs.base.Inode.no_such_function"]
    assert tally.failed == 3
    assert "Inode.no_such_function" in tally.reasons[0]


def test_simulation_measure_and_trace_print_declared_metrics(tmp_path):
    workload = tiny_simulation()
    tally = Tally()
    metrics = workload.measure(5, 0.05, tally, str(tmp_path))
    assert tally.failed == 0 and tally.attempted >= 2
    assert list(metrics) == declared_names("end_to_end")
    assert all(entry["value"] > 0 for entry in metrics.values())
    traced = workload.trace(5, 0.05, tally, str(tmp_path))
    assert tally.failed == 0
    assert list(traced) == declared_names("per_layer")
    assert traced["workloads.ops"]["value"] == 300
    assert traced["fs.vfs.errors"]["value"] == 0
    assert (tmp_path / "layers-tiny-postmark.md").exists()


def test_campaign_replay_checks_pass_and_nothing_simulates_in_the_measured_part(tmp_path):
    workload = tiny_replay()
    tally = Tally()
    metrics = workload.measure(7, 0.05, tally, str(tmp_path))
    assert tally.failed == 0, tally.reasons
    assert metrics["sim_ops_per_s"]["value"] > 0
    traced = workload.trace(7, 0.05, tally, str(tmp_path))
    assert tally.failed == 0, tally.reasons
    assert traced["core.parallel.hit_ratio"]["value"] == 1.0
    assert traced["core.parallel.cache_key.calls"]["value"] == 4 * 2
    assert traced["workloads.ops"]["value"] == 0 and traced["fs.vfs.calls"]["value"] == 0
    assert traced["store.pack_s"]["value"] > 0
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith("campaign-")]
    assert leftovers == []


def test_a_unit_that_raises_counts_as_failed_and_the_run_goes_on():
    tally = Tally()
    workload = tiny_simulation(fs="no-such-fs")
    assert workload.run_round([1, 2], tally) == []
    assert tally.attempted == 2 and tally.failed == 2


def test_without_the_simulator_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
