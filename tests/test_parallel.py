"""Tests for the parallel execution engine and its result cache.

The load-bearing guarantees:

* parallel execution is **bit-identical** to serial execution (same seeds,
  same spreads, same histograms) for any worker count;
* the experiment path reproduces exactly what a plain in-process loop of
  ``BenchmarkRunner.run_once`` over the repetitions produces;
* the result cache serves previously measured cells and invalidates on any
  input change (spec, testbed, protocol, seed).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from dataclasses import replace

import pytest

from repro.core.benchmark import NanoBenchmark
from repro.core.dimensions import Dimension, DimensionVector
from repro.core.experiment import Experiment, ParameterGrid
from repro.core.parallel import (
    ParallelExecutor,
    ResultCache,
    WorkUnit,
    cache_key,
    execute_unit,
)
from repro.core.persistence import run_result_to_dict
from repro.core.results import RepetitionSet
from repro.core.runner import (
    BenchmarkConfig,
    BenchmarkRunner,
    EnvironmentNoise,
    WarmupMode,
    run_single_repetition,
)
from repro.core.suite import NanoBenchmarkSuite
from repro.core.survey import MeasuredSurvey
from repro.storage.config import scaled_testbed
from repro.workloads.micro import random_read_workload, stat_workload

MiB = 1024 * 1024


def quick_config(**overrides):
    values = dict(
        duration_s=0.5,
        repetitions=3,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=0.25,
    )
    values.update(overrides)
    return BenchmarkConfig(**values)


@pytest.fixture
def testbed():
    return scaled_testbed(1.0 / 16.0)


@pytest.fixture
def nano():
    return NanoBenchmark(
        name="inmemory",
        description="random reads of a cached file",
        workload_factory=lambda: random_read_workload(2 * MiB),
        config=quick_config(),
    )


def dicts(repetitions: RepetitionSet):
    return [run_result_to_dict(run) for run in repetitions]


def nano_experiment(benchmark, testbed, **options):
    """The experiment a suite declares for ``benchmark`` on ext2."""
    grid = ParameterGrid.of(workload=[benchmark], fs=["ext2"])
    return Experiment(grid, testbed=testbed, **options)


def nano_units(benchmark, testbed, **options):
    """Per-repetition work units of ``benchmark`` on ext2."""
    return nano_experiment(benchmark, testbed, **options).work_units()


class TestRunSingleRepetition:
    def test_matches_runner_run_once(self, testbed):
        config = quick_config()
        spec = random_read_workload(2 * MiB)
        runner = BenchmarkRunner(fs_type="ext2", testbed=testbed, config=config)
        direct = runner.run_once(random_read_workload(2 * MiB), repetition=1)
        pure = run_single_repetition("ext2", spec, repetition=1, testbed=testbed, config=config)
        assert run_result_to_dict(direct) == run_result_to_dict(pure)

    def test_work_units_are_picklable(self, testbed, nano):
        units = nano_units(nano, testbed)
        restored = pickle.loads(pickle.dumps(units))
        assert len(restored) == 3
        assert run_result_to_dict(execute_unit(restored[0])) == run_result_to_dict(
            execute_unit(units[0])
        )


class TestSerialParallelEquivalence:
    def test_parallel_is_bit_identical_to_serial(self, testbed, nano):
        serial = nano_experiment(nano, testbed, n_workers=1).run().sets
        parallel = nano_experiment(nano, testbed, n_workers=2).run().sets
        assert serial.keys() == parallel.keys() == {"inmemory@ext2"}
        assert dicts(serial["inmemory@ext2"]) == dicts(parallel["inmemory@ext2"])

    def test_executor_path_matches_a_serial_run_once_loop(self, testbed, nano):
        runner = BenchmarkRunner(fs_type="ext2", testbed=testbed, config=nano.config)
        spec = nano.build_workload()
        serial = [runner.run_once(spec, i) for i in range(nano.config.repetitions)]
        via_units = nano_experiment(nano, testbed).run().sets["inmemory@ext2"]
        assert dicts(serial) == dicts(via_units)

    def test_suite_parallel_matches_suite_serial(self, testbed):
        benchmarks = [
            NanoBenchmark(
                name="inmemory",
                description="cached reads",
                workload_factory=lambda: random_read_workload(2 * MiB),
                config=quick_config(repetitions=2),
            ),
            NanoBenchmark(
                name="stat",
                description="stat scan",
                workload_factory=lambda: stat_workload(file_count=50, directories=5),
                config=quick_config(repetitions=2, warmup_mode=WarmupMode.NONE),
            ),
        ]
        serial = NanoBenchmarkSuite(benchmarks, testbed=testbed, n_workers=1).run(("ext2", "xfs"))
        parallel = NanoBenchmarkSuite(benchmarks, testbed=testbed, n_workers=2).run(("ext2", "xfs"))
        assert serial.benchmark_names() == parallel.benchmark_names()
        assert serial.filesystems() == parallel.filesystems()
        for name in serial.benchmark_names():
            for fs_name in serial.filesystems():
                assert dicts(serial.result_for(name, fs_name)) == dicts(
                    parallel.result_for(name, fs_name)
                ), (name, fs_name)

    def test_nondeterministic_factory_keeps_one_spec_per_cell(self, testbed):
        # The serial reference, an in-process loop of run_once(spec, i) over
        # the repetitions, reuses one spec per (benchmark, fs) cell; the unit
        # expansion must do the same, or a factory with construction-time
        # randomness would break bit-identity.
        sizes = iter([2 * MiB, 3 * MiB, 5 * MiB])
        bench = NanoBenchmark(
            name="varying",
            description="factory output changes per call",
            workload_factory=lambda: random_read_workload(next(sizes)),
            config=quick_config(repetitions=2),
        )
        experiment = nano_experiment(bench, testbed, n_workers=2)
        units = experiment.work_units()
        assert units[0].spec is units[1].spec
        runner = BenchmarkRunner(fs_type="ext2", testbed=testbed, config=bench.config)
        serial = [runner.run_once(units[0].spec, i) for i in range(bench.config.repetitions)]
        via_units = experiment.run().sets["varying@ext2"]
        assert dicts(serial) == dicts(via_units)

    def test_duplicate_fs_types_collapse_like_the_serial_loop(self, testbed):
        benchmarks = [
            NanoBenchmark(
                name="inmemory",
                description="cached reads",
                workload_factory=lambda: random_read_workload(2 * MiB),
                config=quick_config(repetitions=2),
            )
        ]
        once = NanoBenchmarkSuite(benchmarks, testbed=testbed).run(("ext2",))
        doubled = NanoBenchmarkSuite(benchmarks, testbed=testbed).run(("ext2", "ext2"))
        assert len(doubled.result_for("inmemory", "ext2")) == 2
        assert dicts(once.result_for("inmemory", "ext2")) == dicts(
            doubled.result_for("inmemory", "ext2")
        )

    def test_noise_is_still_injected_per_repetition(self, testbed, nano):
        runs = ParallelExecutor(n_workers=2).run_units(nano_units(nano, testbed))
        cpu_factors = {run.environment["cpu_speed_factor"] for run in runs}
        assert len(cpu_factors) == len(runs)


class TestCacheKey:
    def test_stable_across_equal_configurations(self, testbed):
        config = quick_config()
        key_a = cache_key("ext2", random_read_workload(MiB), config, 42, testbed)
        key_b = cache_key("ext2", random_read_workload(MiB), config, 42, testbed)
        assert key_a == key_b

    def test_changes_with_every_input(self, testbed):
        config = quick_config()
        spec = random_read_workload(MiB)
        base = cache_key("ext2", spec, config, 42, testbed)
        assert cache_key("xfs", spec, config, 42, testbed) != base
        assert cache_key("ext2", random_read_workload(2 * MiB), config, 42, testbed) != base
        assert cache_key("ext2", spec, replace(config, duration_s=1.0), 42, testbed) != base
        assert cache_key("ext2", spec, config, 43, testbed) != base
        assert cache_key("ext2", spec, config, 42, scaled_testbed(1.0 / 8.0)) != base

    def test_noise_parameters_are_part_of_the_key(self, testbed):
        config = quick_config()
        quiet = replace(config, noise=EnvironmentNoise(enabled=False))
        spec = random_read_workload(MiB)
        assert cache_key("ext2", spec, config, 42, testbed) != cache_key(
            "ext2", spec, quiet, 42, testbed
        )

    def test_repetition_and_base_seed_normalise_to_effective_seed(self, testbed, nano):
        # Repetition 1 of a seed-42 run is the same measurement as
        # repetition 0 of a seed-43 run; they must share a cache entry.
        units_42 = nano_units(nano, testbed)
        shifted = replace(nano.config, seed=43)
        units_43 = nano_units(nano, testbed, config=shifted)
        assert units_42[1].key() == units_43[0].key()
        assert units_42[0].key() != units_43[0].key()

    def test_canonical_handles_mixed_type_dict_keys(self):
        from repro.core.parallel import _canonical

        # Mixed-type keys used to raise TypeError in sorted(value.items()).
        mixed = _canonical({1: "a", "1": "b", (2, 3): "c"})
        assert len(mixed) == 3
        # ...and {1: x} must not collide with {"1": x}.
        assert _canonical({1: "x"}) != _canonical({"1": "x"})
        # Same content, different insertion order: identical canonical form.
        assert _canonical({"b": 1, "a": 2}) == _canonical({"a": 2, "b": 1})

    # A run_units key scan reuses the JSON text of the previous unit's spec
    # and testbed when it passes the very same object, and of its config when
    # every field holds the very same value.  These cases would break a reuse
    # that outlived the scan, matched by equality, matched without checking
    # the object at all, or carried a member of the previous key over.
    @staticmethod
    def fresh_keys(units):
        return [
            cache_key(
                u.fs_type, u.spec, u.config, u.seed, u.testbed, u.snapshot_fingerprint
            )
            for u in units
        ]

    def test_scan_keys_of_interleaved_cells_are_fresh_keys(self, testbed, nano, scan_keys):
        cell_a = nano_units(nano, testbed)
        other = replace(nano, workload_factory=lambda: random_read_workload(4 * MiB))
        cell_b = nano_units(other, scaled_testbed(1.0 / 8.0))
        units = [cell_a[0], cell_b[0], cell_a[1]]
        keys = scan_keys(units)
        assert keys == self.fresh_keys(units)
        assert len(set(keys)) == 3

    def test_spec_mutated_between_scans_gets_a_fresh_key(self, testbed, nano, scan_keys):
        executor = ParallelExecutor()
        units = nano_units(nano, testbed)
        before = scan_keys(units, executor)
        units[0].spec.threads += 1  # every unit of the cell shares the spec
        after = scan_keys(units, executor)
        assert after == self.fresh_keys(units)
        assert set(after).isdisjoint(before)

    def test_config_mutated_between_scans_gets_a_fresh_key(self, testbed, nano, scan_keys):
        executor = ParallelExecutor()
        units = nano_units(nano, testbed)
        before = scan_keys(units, executor)
        # Every unit's config holds the one noise object; it is frozen, but
        # whoever holds it can still change it in place.
        noise = units[0].config.noise
        object.__setattr__(noise, "cpu_noise_sigma", noise.cpu_noise_sigma + 0.01)
        after = scan_keys(units, executor)
        assert after == self.fresh_keys(units)
        assert set(after).isdisjoint(before)

    @pytest.mark.parametrize(
        "field, values",
        [
            ("clients", [1, 4, 1]),
            ("trace", [False, True, False]),
            ("snapshot_fingerprint", [None, "ab" * 32, None]),
            ("fs_type", ["ext2", "xfs", "ext2"]),
            ("seed", [42, 43, 42]),
        ],
    )
    def test_scan_keys_of_units_differing_in_one_input_are_fresh_keys(
        self, testbed, scan_keys, field, values
    ):
        base = WorkUnit("ext2", random_read_workload(MiB), quick_config(), testbed=testbed)
        if field in ("clients", "trace", "seed"):
            units = [replace(base, config=replace(base.config, **{field: v})) for v in values]
        else:
            units = [replace(base, **{field: value}) for value in values]
        keys = scan_keys(units)
        assert keys == self.fresh_keys(units)
        assert keys[2] == keys[0]
        # A traced unit shares the untraced key; every other change moves it.
        assert (keys[1] == keys[0]) == (field == "trace")

    @pytest.mark.parametrize("field", ["config", "spec", "testbed"])
    def test_equal_inputs_that_encode_differently_keep_their_keys(
        self, testbed, scan_keys, field
    ):
        # 1 == 1.0, but the two encode differently, so their keys differ.
        spec = random_read_workload(MiB)
        pairs = {
            "config": (quick_config(duration_s=1), quick_config(duration_s=1.0)),
            "spec": (replace(spec, op_overhead_ns=1), replace(spec, op_overhead_ns=1.0)),
            "testbed": (
                replace(testbed, ram_bytes=32 * MiB),
                replace(testbed, ram_bytes=32.0 * MiB),
            ),
        }
        base = WorkUnit("ext2", spec, quick_config(), testbed=testbed)
        units = [replace(base, **{field: value}) for value in pairs[field]]
        assert getattr(units[0], field) == getattr(units[1], field)
        keys = scan_keys(units)
        assert keys == self.fresh_keys(units)
        assert keys[0] != keys[1]

    def test_cache_format_version_bumped_for_canonical_change(self):
        from repro.core.parallel import CACHE_FORMAT_VERSION

        assert CACHE_FORMAT_VERSION >= 2


#: Another valid value of each ``BenchmarkConfig`` field than
#: ``quick_config()`` holds.  A field missing here fails the classification
#: tests, so a new field cannot reach (or miss) the key unchecked.
CHANGED_CONFIG_VALUES = {
    "duration_s": 0.75,
    "max_ops": 100,
    "repetitions": 5,
    "warmup_mode": WarmupMode.NONE,
    "warmup_s": 0.5,
    "max_warmup_s": 60.0,
    "interval_s": 0.5,
    "histogram_interval_s": 0.5,
    "collect_raw_latencies": True,
    "cold_cache": False,
    "seed": 7,
    "noise": EnvironmentNoise(enabled=False),
    "clients": 4,
    "trace": True,
}


class TestKeyClassification:
    """Which ``BenchmarkConfig`` fields move the key, checked on keys.

    ``seed``, ``repetitions`` and ``trace`` never do; every other field
    does (``clients`` only above 1, which ``CHANGED_CONFIG_VALUES`` uses).
    The expectation is stated here, not read from the code that makes
    keys, so a field slipped into ``CONFIG_KEY_OVERRIDES`` fails; a new
    field without an entry in ``CHANGED_CONFIG_VALUES`` fails too, which
    makes its key semantics a deliberate decision.
    """

    UNKEYED = {"seed", "repetitions", "trace"}

    @classmethod
    def keyed_fields(cls):
        return {field.name for field in dataclasses.fields(BenchmarkConfig)} - cls.UNKEYED

    @staticmethod
    def changed_configs():
        """``(base, {field: base with that field alone changed})``."""
        names = [field.name for field in dataclasses.fields(BenchmarkConfig)]
        assert sorted(CHANGED_CONFIG_VALUES) == sorted(names)
        base = quick_config()
        changed = {name: replace(base, **{name: CHANGED_CONFIG_VALUES[name]}) for name in names}
        for name, config in changed.items():
            config.validate()
            assert getattr(config, name) != getattr(base, name)
        return base, changed

    def test_exactly_the_keyed_fields_move_the_key(self, testbed):
        base, changed = self.changed_configs()
        spec = random_read_workload(MiB)
        base_key = cache_key("ext2", spec, base, 42, testbed)
        moved = {
            name
            for name, config in changed.items()
            if cache_key("ext2", spec, config, 42, testbed) != base_key
        }
        assert moved == self.keyed_fields()
        assert set(changed) - moved == self.UNKEYED

    def test_a_scan_moves_the_key_for_exactly_the_keyed_fields(self, testbed, scan_keys):
        # Each changed unit directly follows the base unit, so a config
        # reuse that missed a field serves the base unit's config text.
        base, changed = self.changed_configs()
        base_unit = WorkUnit("ext2", random_read_workload(MiB), base, testbed=testbed)
        units = []
        for config in changed.values():
            # Same effective seed as the base unit, whatever config.seed is.
            repetition = base.seed - config.seed
            units += [base_unit, replace(base_unit, config=config, repetition=repetition)]
        keys = scan_keys(units)
        assert keys == TestCacheKey.fresh_keys(units)
        moved = {
            name
            for name, base_key, key in zip(changed, keys[0::2], keys[1::2])
            if key != base_key
        }
        assert moved == self.keyed_fields()


class TestResultCache:
    def test_roundtrip(self, tmp_path, testbed, nano):
        cache = ResultCache(str(tmp_path))
        unit = nano_units(nano, testbed)[0]
        run = execute_unit(unit)
        cache.put(unit.key(), run)
        loaded = cache.get(unit.key())
        assert loaded is not None
        assert run_result_to_dict(loaded) == run_result_to_dict(run)
        assert len(cache) == 1

    def test_miss_on_unknown_and_corrupt_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        path = cache.path_for(key)
        import os

        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("not json{")
        assert cache.get(key) is None
        assert cache.stats.misses == 2

    def test_second_run_is_served_entirely_from_cache(self, tmp_path, testbed, nano):
        units = nano_units(nano, testbed)
        cache = ResultCache(str(tmp_path))
        executor = ParallelExecutor(n_workers=1, cache=cache)
        fresh = executor.run_units(units)
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (0, 3, 3)
        cached = executor.run_units(units)
        assert (cache.stats.hits, cache.stats.stores) == (3, 3)
        assert [run_result_to_dict(run) for run in fresh] == [
            run_result_to_dict(run) for run in cached
        ]

    def test_cache_entries_survive_process_boundaries_logically(self, tmp_path, testbed, nano):
        # A different executor (and worker count) over the same directory
        # still hits: the key depends only on measurement inputs.
        units = nano_units(nano, testbed)
        ParallelExecutor(n_workers=2, cache=ResultCache(str(tmp_path))).run_units(units)
        cache = ResultCache(str(tmp_path))
        ParallelExecutor(n_workers=1, cache=cache).run_units(units)
        assert (cache.stats.hits, cache.stats.misses) == (3, 0)

    def test_config_change_invalidates(self, tmp_path, testbed, nano):
        cache = ResultCache(str(tmp_path))
        executor = ParallelExecutor(n_workers=1, cache=cache)
        executor.run_units(nano_units(nano, testbed))
        longer = replace(nano.config, duration_s=0.75)
        executor.run_units(nano_units(nano, testbed, config=longer))
        assert cache.stats.hits == 0
        assert cache.stats.stores == 6

    def test_cached_repetition_index_is_relabelled(self, tmp_path, testbed, nano):
        cache = ResultCache(str(tmp_path))
        executor = ParallelExecutor(n_workers=1, cache=cache)
        executor.run_units(nano_units(nano, testbed))
        shifted = replace(nano.config, seed=nano.config.seed + 1, repetitions=2)
        runs = executor.run_units(nano_units(nano, testbed, config=shifted))
        # Seeds 43,44 were measured as repetitions 1,2 of the seed-42 run;
        # they come back relabelled as repetitions 0,1 of this run.
        assert cache.stats.hits == 2
        assert [run.repetition for run in runs] == [0, 1]
        assert [run.seed for run in runs] == [43, 44]

    def test_clear(self, tmp_path, testbed, nano):
        cache = ResultCache(str(tmp_path))
        ParallelExecutor(n_workers=1, cache=cache).run_units(nano_units(nano, testbed))
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_corrupt_entry_is_counted_and_quarantined(self, tmp_path, caplog):
        import logging
        import os

        cache = ResultCache(str(tmp_path))
        key = "cd" + "1" * 62
        path = cache.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("not json{")
        with caplog.at_level(logging.WARNING, logger="repro.core.parallel"):
            assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        # The bad file is set aside, not left to masquerade as a miss forever.
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert any(path in record.getMessage() for record in caplog.records)
        # The next lookup is a plain miss: nothing left to re-quarantine.
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 2

    @pytest.mark.parametrize(
        "whole, section",
        [([], None), (42, None), (None, "histogram"), (None, "timeline"), (None, "environment")],
        ids=["list", "number", "null-histogram", "null-timeline", "null-environment"],
    )
    def test_entry_that_parses_but_is_no_run_is_quarantined_and_rerun(
        self, tmp_path, testbed, nano, whole, section
    ):
        unit = nano_units(nano, testbed)[0]
        cache = ResultCache(str(tmp_path))
        executor = ParallelExecutor(cache=cache)
        (fresh,) = executor.run_units([unit])
        path = cache.path_for(unit.key())
        with open(path) as handle:
            document = json.load(handle)
        if section is None:
            document = whole
        else:
            document["data"][section] = None
        with open(path, "w") as handle:
            json.dump(document, handle)
        (rerun,) = executor.run_units([unit])
        assert (cache.stats.corrupt, cache.stats.misses, cache.stats.stores) == (1, 2, 2)
        assert os.path.exists(path + ".corrupt")
        assert run_result_to_dict(rerun) == run_result_to_dict(fresh)
        assert run_result_to_dict(cache.get(unit.key())) == run_result_to_dict(fresh)

    def test_clear_removes_quarantined_entries_too(self, tmp_path):
        import os

        cache = ResultCache(str(tmp_path))
        key = "ef" + "2" * 62
        path = cache.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("{broken")
        cache.get(key)
        assert os.path.exists(path + ".corrupt")
        assert cache.clear() == 0  # no live entries
        assert not os.path.exists(path + ".corrupt")

    def test_cache_needs_a_directory_or_packs(self):
        with pytest.raises(ValueError):
            ResultCache()


class TestMeasuredSurvey:
    def test_runs_and_renders(self, testbed):
        survey = MeasuredSurvey(testbed=testbed, quick=True, n_workers=1)
        # Shrink the suite drastically so the test stays fast.
        survey.suite.benchmarks = [
            NanoBenchmark(
                name="inmemory",
                description="cached reads",
                workload_factory=lambda: random_read_workload(2 * MiB),
                dimensions=DimensionVector.of(isolates=[Dimension.CACHING]),
                config=quick_config(repetitions=2),
            )
        ]
        result = survey.run(("ext2",))
        report = result.render()
        assert "Measured dimension survey" in report
        assert "inmemory" in report
        assert "ext2" in report
        assert "+/-" in report

    def test_survey_uses_cache(self, tmp_path, testbed):
        def build(cache_dir):
            survey = MeasuredSurvey(
                testbed=testbed, quick=True, n_workers=1, cache_dir=cache_dir
            )
            survey.suite.benchmarks = [
                NanoBenchmark(
                    name="inmemory",
                    description="cached reads",
                    workload_factory=lambda: random_read_workload(2 * MiB),
                    config=quick_config(repetitions=2),
                )
            ]
            return survey

        cache_dir = str(tmp_path / "cache")
        first = build(cache_dir)
        executor = first.suite.as_experiment(("ext2",)).make_executor()
        first.run(("ext2",), executor=executor)
        assert executor.cache.stats.stores == 2

        second = build(cache_dir)
        executor = second.suite.as_experiment(("ext2",)).make_executor()
        second.run(("ext2",), executor=executor)
        assert (executor.cache.stats.hits, executor.cache.stats.misses) == (2, 0)


class TestExecutorEdgeCases:
    def test_invalid_config_fails_at_expansion_not_in_workers(self, testbed, nano):
        bad = replace(nano.config, repetitions=0)
        with pytest.raises(ValueError, match="repetitions"):
            nano_units(nano, testbed, config=bad)

    def test_duplicate_benchmark_names_rejected(self, testbed, nano):
        clone = NanoBenchmark(
            name=nano.name,
            description="same name, different workload",
            workload_factory=lambda: stat_workload(file_count=10, directories=2),
            config=quick_config(repetitions=1),
        )
        with pytest.raises(ValueError, match="duplicate benchmark names"):
            NanoBenchmarkSuite([nano, clone], testbed=testbed)

    def test_empty_unit_list(self):
        assert ParallelExecutor(n_workers=2).run_units([]) == []

    def test_zero_workers_means_cpu_count(self):
        assert ParallelExecutor(n_workers=0).n_workers >= 1
        assert ParallelExecutor(n_workers=None).n_workers >= 1

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(n_workers=-1)
