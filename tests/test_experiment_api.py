"""Tests for the declarative experiment API (grid, experiment, registries, CLI).

The load-bearing guarantees of the redesign:

* grid expansion is the declared cartesian product, with the seed axis pooled
  into repetitions and config-field axes overriding the protocol per cell;
* an ``Experiment`` over the same cells as a ``NanoBenchmarkSuite`` run is
  **bit-identical** to it, serial and parallel, and shares its cache entries
  (cache keys unchanged);
* ``ResultFrame`` round-trips through JSONL and CSV and pivots faithfully;
* the legacy entry points are thin deprecation shims over the same engine.
"""

from __future__ import annotations

import io

import pytest

import repro.cli as cli
from repro.core.benchmark import NanoBenchmark
from repro.core.experiment import Experiment, ParameterGrid
from repro.core.frame import ResultFrame, rows_for_run, run_metrics
from repro.core.persistence import run_result_to_dict
from repro.core.runner import BenchmarkConfig, WarmupMode
from repro.core.suite import NanoBenchmarkSuite
from repro.storage.config import scaled_testbed
from repro.workloads.micro import random_read_workload, stat_workload

MiB = 1024 * 1024


def quick_config(**overrides):
    values = dict(
        duration_s=0.5,
        repetitions=2,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=0.25,
    )
    values.update(overrides)
    return BenchmarkConfig(**values)


@pytest.fixture
def testbed():
    return scaled_testbed(1.0 / 16.0)


@pytest.fixture
def benchmarks():
    return [
        NanoBenchmark(
            name="inmemory",
            description="cached reads",
            workload_factory=lambda: random_read_workload(2 * MiB),
            config=quick_config(),
        ),
        NanoBenchmark(
            name="stat",
            description="stat scan",
            workload_factory=lambda: stat_workload(file_count=50, directories=5),
            config=quick_config(warmup_mode=WarmupMode.NONE),
        ),
    ]


def dicts(repetitions):
    return [run_result_to_dict(run) for run in repetitions]


class TestParameterGrid:
    def test_cartesian_product_and_order(self):
        grid = ParameterGrid.of(workload=("a", "b"), fs=("ext2", "xfs"))
        points = grid.points()
        assert len(points) == len(grid) == 4
        # Last axis fastest (workload-major), like the legacy suite loop.
        assert points == [
            {"workload": "a", "fs": "ext2"},
            {"workload": "a", "fs": "xfs"},
            {"workload": "b", "fs": "ext2"},
            {"workload": "b", "fs": "xfs"},
        ]

    def test_scalars_promote_and_ranges_accepted(self):
        grid = ParameterGrid.of(fs="ext2", seed=range(3))
        assert grid.axis("fs") == ("ext2",)
        assert grid.axis("seed") == (0, 1, 2)

    def test_exclude_and_with_axis(self):
        grid = ParameterGrid.of(fs=("ext2",), seed=(1, 2, 3))
        assert grid.points(exclude=("seed",)) == [{"fs": "ext2"}]
        widened = grid.with_axis("fs", ("ext2", "xfs"))
        assert len(widened) == 6 and len(grid) == 3

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid.of(fs=())
        with pytest.raises(ValueError):
            ParameterGrid({})

    def test_describe_counts_grid_points_and_measurements(self, testbed, benchmarks):
        grid = ParameterGrid.of(fs=("ext2", "xfs"), seed=(0, 1, 2))
        assert "= 6 grid points" in grid.describe()
        # The experiment reports the true repetition total (cells x reps),
        # which the grid alone cannot know without a seed axis.
        experiment = Experiment(
            ParameterGrid.of(workload=benchmarks, fs=("ext2",)), testbed=testbed
        )
        assert "= 4 measurements" in experiment.describe()  # 2 cells x 2 reps


class TestExperimentExpansion:
    def test_unknown_axis_rejected_up_front(self, testbed):
        with pytest.raises(ValueError, match="unknown grid axis"):
            Experiment(ParameterGrid.of(fs=("ext2",), warp_factor=(9,)), testbed=testbed)

    def test_unknown_names_rejected(self, testbed):
        with pytest.raises(ValueError, match="unknown fs"):
            Experiment(ParameterGrid.of(fs=("zfs",)), testbed=testbed).cells()
        with pytest.raises(ValueError, match="unknown workload"):
            Experiment(ParameterGrid.of(workload=("no-such",)), testbed=testbed).cells()
        with pytest.raises(ValueError, match="unknown device"):
            Experiment(ParameterGrid.of(device=("tape",)), testbed=testbed).cells()
        with pytest.raises(ValueError, match="unknown scheduler"):
            Experiment(ParameterGrid.of(scheduler=("cfq",)), testbed=testbed).cells()

    def test_seed_axis_pools_into_repetitions(self, testbed, benchmarks):
        experiment = Experiment(
            ParameterGrid.of(workload=[benchmarks[0]], fs=("ext2",), seed=(7, 9, 20)),
            testbed=testbed,
        )
        cells = experiment.cells()
        assert len(cells) == 1
        assert cells[0].seeds == (7, 9, 20)
        units = experiment.work_units()
        assert [unit.seed for unit in units] == [7, 9, 20]
        assert [unit.repetition for unit in units] == [0, 1, 2]

    def test_enum_axis_values_record_their_enum_value(self, testbed, benchmarks):
        experiment = Experiment(
            ParameterGrid.of(
                workload=[benchmarks[0]],
                fs=("ext2",),
                warmup_mode=(WarmupMode.NONE, WarmupMode.PREWARM),
            ),
            testbed=testbed,
        )
        cells = experiment.cells()
        # Labels and frame columns carry "none"/"prewarm", never
        # "WarmupMode.NONE" (WarmupMode is a str-subclass enum).
        assert [cell.axes["warmup_mode"] for cell in cells] == ["none", "prewarm"]
        assert cells[0].label.endswith("#warmup_mode=none")
        assert [cell.config.warmup_mode for cell in cells] == [
            WarmupMode.NONE,
            WarmupMode.PREWARM,
        ]

    def test_config_field_axis_overrides_protocol(self, testbed, benchmarks):
        experiment = Experiment(
            ParameterGrid.of(workload=[benchmarks[0]], fs=("ext2",), duration_s=(0.25, 0.75)),
            testbed=testbed,
        )
        cells = experiment.cells()
        assert [cell.config.duration_s for cell in cells] == [0.25, 0.75]
        # Varying extra axes land in the cell labels, so cells stay distinct.
        assert cells[0].label != cells[1].label
        assert "duration_s=0.25" in cells[0].label

    def test_testbed_axes_derive_per_cell_machines(self, testbed):
        experiment = Experiment(
            ParameterGrid.of(
                workload=("random-read-cached",),
                fs=("ext2",),
                device=("ssd",),
                scheduler=("deadline",),
                cache_mb=(8,),
            ),
            config=quick_config(),
            testbed=testbed,
        )
        cell = experiment.cells()[0]
        assert cell.testbed.device_kind == "ssd"
        assert cell.testbed.io_scheduler == "deadline"
        assert cell.testbed.page_cache_bytes == 8 * MiB
        # Registry workloads size off the *base* testbed, so testbed axes
        # vary the machine under a fixed workload.
        expected = max(2 * MiB, int(testbed.page_cache_bytes * 0.25))
        assert cell.spec.fileset.size_distribution.mean() == pytest.approx(expected)

    def test_int_overrides_coerce_to_float_fields(self, testbed, benchmarks):
        # '--axis duration_s=2' parses as int; the field is float.  Without
        # coercion the canonical hash of 2 differs from 2.0 and the same
        # grid declared with floats would miss the cache.
        int_axis = Experiment(
            ParameterGrid.of(workload=[benchmarks[0]], fs=("ext2",), duration_s=(2,)),
            testbed=testbed,
        )
        cell = int_axis.cells()[0]
        assert cell.config.duration_s == 2.0 and isinstance(cell.config.duration_s, float)
        float_axis = Experiment(
            ParameterGrid.of(workload=[benchmarks[0]], fs=("ext2",), duration_s=(2.0,)),
            testbed=testbed,
        )
        assert [u.key() for u in int_axis.work_units()] == [
            u.key() for u in float_axis.work_units()
        ]
        # Int fields stay ints; bools stay bools.
        reps = Experiment(
            ParameterGrid.of(
                workload=[benchmarks[0]], fs=("ext2",), repetitions=(3,), cold_cache=(True,)
            ),
            testbed=testbed,
        ).cells()[0]
        assert reps.config.repetitions == 3 and isinstance(reps.config.repetitions, int)
        assert reps.config.cold_cache is True

    def test_render_keeps_workload_names_with_at_signs(self, testbed):
        spec_a = random_read_workload(2 * MiB, name="mix@v1")
        spec_b = random_read_workload(2 * MiB, name="mix@v2")
        outcome = Experiment(
            ParameterGrid.of(workload=(spec_a, spec_b), fs=("ext2",), duration_s=(0.25, 0.5)),
            config=quick_config(repetitions=1),
            testbed=testbed,
        ).run()
        rendered = outcome.render()
        assert "mix@v1#duration_s=0.25" in rendered
        assert "mix@v2#duration_s=0.5" in rendered

    def test_cache_mb_sweep_keeps_the_working_set_fixed(self, testbed):
        experiment = Experiment(
            ParameterGrid.of(
                workload=("random-read-cached",), fs=("ext2",), cache_mb=(4, 16)
            ),
            config=quick_config(),
            testbed=testbed,
        )
        cells = experiment.cells()
        sizes = {cell.spec.fileset.size_distribution.mean() for cell in cells}
        assert len(sizes) == 1  # the axis varies the cache, not the file

    def test_fractional_cache_mb_rejected(self, testbed):
        with pytest.raises(ValueError, match="whole MiB"):
            Experiment(
                ParameterGrid.of(fs=("ext2",), cache_mb=(64.5,)), testbed=testbed
            ).cells()
        # Whole-number floats are fine (CLI parses 64.0 as float).
        cell = Experiment(
            ParameterGrid.of(
                workload=("random-read-cached",), fs=("ext2",), cache_mb=(8.0,)
            ),
            config=quick_config(),
            testbed=testbed,
        ).cells()[0]
        assert cell.testbed.page_cache_bytes == 8 * MiB

    def test_seed_and_repetitions_axes_conflict(self, testbed):
        with pytest.raises(ValueError, match="seed axis or a repetitions axis"):
            Experiment(
                ParameterGrid.of(fs=("ext2",), seed=(0, 1), repetitions=(3,)),
                testbed=testbed,
            )

    def test_registry_workload_resolves_by_name(self, testbed):
        experiment = Experiment(
            ParameterGrid.of(workload=("postmark",), fs=("ext4",)),
            config=quick_config(),
            testbed=testbed,
        )
        cell = experiment.cells()[0]
        assert cell.axes["workload"] == "postmark"
        assert cell.spec.name == "postmark"
        assert cell.label == "postmark@ext4"

    def test_duplicate_labels_disambiguated(self, testbed):
        spec = random_read_workload(2 * MiB)
        clone = random_read_workload(4 * MiB, name=spec.name)
        experiment = Experiment(
            ParameterGrid.of(workload=(spec, clone), fs=("ext2",)),
            config=quick_config(),
            testbed=testbed,
        )
        labels = [cell.label for cell in experiment.cells()]
        assert len(set(labels)) == 2


class TestSuiteEquivalence:
    """The acceptance criterion: Experiment vs NanoBenchmarkSuite, bit-identical."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_grid_matches_suite_cells(self, testbed, benchmarks, n_workers):
        fs_types = ("ext2", "xfs")
        suite = NanoBenchmarkSuite(benchmarks, testbed=testbed, n_workers=n_workers)
        suite_result = suite.run(fs_types)

        experiment = Experiment(
            ParameterGrid.of(workload=benchmarks, fs=fs_types, seed=(42, 43)),
            testbed=testbed,
            n_workers=n_workers,
        )
        outcome = experiment.run()
        for benchmark in benchmarks:
            for fs_type in fs_types:
                assert dicts(suite_result.result_for(benchmark.name, fs_type)) == dicts(
                    outcome.result_for(workload=benchmark.name, fs=fs_type)
                ), (benchmark.name, fs_type, n_workers)

    def test_experiment_serial_matches_parallel(self, testbed, benchmarks):
        grid = ParameterGrid.of(workload=benchmarks, fs=("ext2", "xfs"), seed=(0, 1))
        serial = Experiment(grid, testbed=testbed, n_workers=1).run()
        parallel = Experiment(grid, testbed=testbed, n_workers=2).run()
        assert serial.labels() == parallel.labels()
        for label in serial.labels():
            assert dicts(serial.sets[label]) == dicts(parallel.sets[label]), label
        assert serial.frame == parallel.frame

    def test_cache_keys_unchanged_suite_and_experiment_share_entries(
        self, tmp_path, testbed, benchmarks
    ):
        cache_dir = str(tmp_path / "cache")
        suite = NanoBenchmarkSuite(
            benchmarks, testbed=testbed, n_workers=1, cache_dir=cache_dir
        )
        suite.run(("ext2",))

        experiment = Experiment(
            ParameterGrid.of(workload=benchmarks, fs=("ext2",)),
            testbed=testbed,
            n_workers=1,
            cache_dir=cache_dir,
        )
        outcome = experiment.run()
        assert outcome.cache_stats is not None
        assert outcome.cache_stats.misses == 0
        assert outcome.cache_stats.hits == sum(len(c.seeds) for c in outcome.cells)

    def test_streaming_callbacks_fire_per_unit_and_cell(self, testbed, benchmarks):
        events = {"units": 0, "cells": []}
        experiment = Experiment(
            ParameterGrid.of(workload=benchmarks, fs=("ext2",)), testbed=testbed
        )
        outcome = experiment.run(
            on_unit=lambda unit, run, cached: events.__setitem__(
                "units", events["units"] + 1
            ),
            on_cell=lambda cell, reps: events["cells"].append((cell.label, len(reps))),
        )
        assert events["units"] == len(experiment.work_units())
        assert events["cells"] == [(cell.label, len(cell.seeds)) for cell in outcome.cells]

    def test_result_for_matches_axes(self, testbed, benchmarks):
        outcome = Experiment(
            ParameterGrid.of(workload=benchmarks, fs=("ext2", "xfs")), testbed=testbed
        ).run()
        repetitions = outcome.result_for(workload="stat", fs="xfs")
        assert dicts(repetitions) == dicts(outcome.sets["stat@xfs"])
        with pytest.raises(KeyError):
            outcome.result_for(workload="stat", fs="ext3")
        with pytest.raises(KeyError):
            outcome.result_for(fs="ext2")  # two workloads match


class TestResultFrame:
    def make_frame(self, testbed):
        outcome = Experiment(
            ParameterGrid.of(
                workload=[
                    NanoBenchmark(
                        name="mini",
                        description="cached reads",
                        workload_factory=lambda: random_read_workload(2 * MiB),
                        config=quick_config(),
                    )
                ],
                fs=("ext2", "xfs"),
            ),
            name="frame-test",
            testbed=testbed,
        ).run()
        return outcome.frame

    def test_tidy_shape(self, testbed):
        frame = self.make_frame(testbed)
        # 2 fs x 2 repetitions x len(run_metrics) rows.
        metric_count = len(frame.metrics())
        assert len(frame) == 2 * 2 * metric_count
        assert set(["experiment", "fs", "workload", "seed", "repetition", "metric", "value"]) <= set(
            frame.columns()
        )

    def test_filter_group_summary(self, testbed):
        frame = self.make_frame(testbed)
        ext2 = frame.filter(fs="ext2", metric="throughput_ops_s")
        assert len(ext2) == 2
        groups = dict(frame.group_by("fs"))
        assert set(groups) == {("ext2",), ("xfs",)}
        summary = frame.summary(metric="throughput_ops_s", fs="ext2")
        assert summary.n == 2 and summary.mean > 0

    def test_pivot_mean(self, testbed):
        frame = self.make_frame(testbed)
        pivot = frame.filter(metric="throughput_ops_s").pivot(index="workload", columns="fs")
        assert pivot.row_keys == [("mini",)]
        assert pivot.col_keys == ["ext2", "xfs"]
        expected = frame.summary(metric="throughput_ops_s", fs="ext2").mean
        assert pivot.value("mini", "ext2") == pytest.approx(expected)
        rendered = pivot.render(column_header=lambda fs: f"{fs} (ops/s)")
        assert "ext2 (ops/s)" in rendered and "mini" in rendered

    def test_pivot_rejects_non_numeric_for_mean(self):
        frame = ResultFrame([{"a": 1, "metric": "m", "value": "not-a-number"}])
        with pytest.raises(TypeError, match="non-numeric"):
            frame.pivot(index="a", columns="metric")
        assert frame.pivot(index="a", columns="metric", aggregate="first").value(1, "m") == (
            "not-a-number"
        )

    def test_jsonl_roundtrip(self, testbed, tmp_path):
        frame = self.make_frame(testbed)
        path = str(tmp_path / "frame.jsonl")
        frame.to_jsonl(path)
        assert ResultFrame.from_jsonl(path) == frame

    def test_csv_roundtrip(self, testbed, tmp_path):
        frame = self.make_frame(testbed)
        path = str(tmp_path / "frame.csv")
        frame.to_csv(path)
        assert ResultFrame.from_csv(path) == frame

    def test_csv_roundtrip_none_and_strings(self):
        frame = ResultFrame(
            [{"snapshot": None, "fs": "ext2", "metric": "m", "value": 1.5, "flag": True}]
        )
        buffer = io.StringIO(frame.to_csv_text())
        assert ResultFrame.from_csv(buffer) == frame

    def test_rows_for_run_covers_metrics(self, testbed):
        from repro.core.runner import run_single_repetition

        run = run_single_repetition(
            "ext2", random_read_workload(2 * MiB), testbed=testbed, config=quick_config()
        )
        rows = rows_for_run({"fs": "ext2"}, run)
        assert {row["metric"] for row in rows} == set(run_metrics(run))
        assert all(row["seed"] == run.seed for row in rows)

    def test_frame_concatenation(self):
        a = ResultFrame([{"x": 1}])
        b = ResultFrame([{"x": 2}])
        assert len(a + b) == 2


class TestHarnessEntryPoints:
    """The paper's harness entry points run on the Experiment API."""

    def test_run_figure1_delegates_to_an_experiment(self, testbed):
        from repro.experiments import run_figure1
        from repro.experiments.config import ExperimentScale

        scale = ExperimentScale(
            name="unit",
            figure1_duration_s=0.5,
            figure1_repetitions=2,
            figure1_sizes_mb=(2, 4),
            figure2_duration_s=60.0,
            figure2_file_mb=26,
            figure2_testbed_scale=1.0 / 16.0,
            figure3_ops=100,
            figure3_sizes_mb=(2, 4),
            figure4_duration_s=60.0,
            figure4_file_mb=20,
            interval_s=5.0,
        )
        result = run_figure1(fs_type="ext2", testbed=testbed, scale=scale, seed=3)
        assert len(result.rows()) == 2
        frame = result.to_frame()
        assert frame.filter(metric="throughput_ops_s", file_size_mb=2).summary().n == 2

    def test_run_aged_vs_fresh_uses_snapshot_axis(self):
        # Covered end-to-end by tests/test_aging.py; here we only assert the
        # harness declares a grid without paying for an aging run.
        import inspect

        from repro.aging.experiment import run_aged_vs_fresh

        assert "ParameterGrid.of" in inspect.getsource(run_aged_vs_fresh)

    def test_suite_as_experiment_roundtrip(self, testbed, benchmarks):
        suite = NanoBenchmarkSuite(benchmarks, testbed=testbed)
        experiment = suite.as_experiment(("ext2", "ext2", "xfs"))
        labels = [cell.label for cell in experiment.cells()]
        # Duplicate fs dropped, workload-major order preserved.
        assert labels == [
            "inmemory@ext2",
            "inmemory@xfs",
            "stat@ext2",
            "stat@xfs",
        ]


class TestCliRunAndList:
    def test_list_prints_every_registry(self, capsys):
        assert cli.main(["list"]) == 0
        output = capsys.readouterr().out
        for token in ("ext2", "ext4", "postmark", "hdd", "ssd", "noop", "deadline",
                      "figure1", "aged-vs-fresh", "survey"):
            assert token in output, token

    def test_run_executes_grid_and_writes_jsonl(self, capsys, tmp_path):
        out = str(tmp_path / "results.jsonl")
        code = cli.main(
            [
                "run",
                "--axis", "fs=ext2",
                "--axis", "workload=random-read-cached",
                "--axis", "seed=0..1",
                "--axis", "duration_s=0.5",
                "--axis", "warmup_mode=none",
                "--scaled-testbed", "0.0625",
                "--out", out,
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "random-read-cached" in captured.out
        assert "wrote" in captured.out
        frame = ResultFrame.from_jsonl(out)
        assert frame.unique("seed") == [0, 1]
        assert frame.unique("fs") == ["ext2"]

    def test_run_writes_csv_when_asked(self, tmp_path):
        out = str(tmp_path / "results.csv")
        code = cli.main(
            [
                "run", "--quiet",
                "--axis", "fs=ext2",
                "--axis", "workload=random-read-cached",
                "--axis", "seed=3",
                "--axis", "duration_s=0.5",
                "--scaled-testbed", "0.0625",
                "--out", out,
            ]
        )
        assert code == 0
        assert len(ResultFrame.from_csv(out)) > 0

    def test_axis_value_coercion(self):
        # 'none' only means Python None on the snapshot axis; enum-valued
        # config fields (warmup_mode=none) must keep the string.
        assert cli._parse_axis("warmup_mode=none") == ("warmup_mode", ["none"])
        assert cli._parse_axis("snapshot=fresh,/tmp/x.json") == (
            "snapshot",
            [None, "/tmp/x.json"],
        )
        assert cli._parse_axis("cold_cache=true,false") == ("cold_cache", [True, False])
        assert cli._parse_axis("seed=0..2,9") == ("seed", [0, 1, 2, 9])
        # '..' only means a range when both bounds are integers; relative
        # snapshot paths must survive as strings.
        assert cli._parse_axis("snapshot=../aged.snapshot.json") == (
            "snapshot",
            ["../aged.snapshot.json"],
        )
        with pytest.raises(SystemExit):
            cli.main(["run", "--axis", "seed=4..0"])

    def test_warmup_mode_axis_reaches_the_protocol(self, tmp_path):
        out = str(tmp_path / "r.jsonl")
        code = cli.main(
            [
                "run", "--quiet",
                "--axis", "fs=ext2",
                "--axis", "workload=random-read-cached",
                "--axis", "seed=1",
                "--axis", "duration_s=0.5",
                "--axis", "warmup_mode=none",
                "--scaled-testbed", "0.0625",
                "--out", out,
            ]
        )
        assert code == 0
        frame = ResultFrame.from_jsonl(out)
        # WarmupMode.NONE means no warm-up time at all; the steady-state
        # fall-through this guards against would report a long warm-up.
        assert frame.values(metric="warmup_duration_s") == [0.0]
        assert frame.unique("warmup_mode") == ["none"]

    def test_run_rejects_bad_axis(self, capsys):
        assert cli.main(["run", "--axis", "fs=zfs"]) == 2
        assert "unknown fs" in capsys.readouterr().err
        assert cli.main(["run", "--axis", "warp=1"]) == 2
        capsys.readouterr()
        # A wrongly-typed config override (noise wants an EnvironmentNoise
        # object) is a clean usage error, not a traceback.
        assert cli.main(["run", "--axis", "noise=off"]) == 2
        assert "fsbench-rocket: error:" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.main(["run", "--axis", "malformed"])

    def test_run_uses_cache_across_invocations(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "run", "--quiet",
            "--axis", "fs=ext2",
            "--axis", "workload=random-read-cached",
            "--axis", "seed=0..1",
            "--axis", "duration_s=0.5",
            "--scaled-testbed", "0.0625",
            "--cache-dir", cache_dir,
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert "cache: 0 hits, 2 misses, 2 stores" in first
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert "cache: 2 hits, 0 misses, 0 stores" in second


class TestRegistries:
    def test_workload_registry_factories_build_specs(self):
        from repro.storage.config import paper_testbed
        from repro.workloads import WORKLOAD_REGISTRY

        testbed = paper_testbed()
        for name, factory in WORKLOAD_REGISTRY.items():
            spec = factory(testbed)
            assert spec.name, name
            spec.validate()

    def test_register_workload_extends_the_grid(self, testbed):
        from repro.workloads import WORKLOAD_REGISTRY, register_workload

        register_workload("tiny-read", lambda tb: random_read_workload(2 * MiB))
        try:
            cell = Experiment(
                ParameterGrid.of(workload=("tiny-read",), fs=("ext2",)),
                config=quick_config(),
                testbed=testbed,
            ).cells()[0]
            assert cell.axes["workload"] == "tiny-read"
        finally:
            WORKLOAD_REGISTRY.pop("tiny-read", None)

    def test_device_registry_backs_testbed_builds(self):
        from repro.storage.config import DEVICE_REGISTRY, paper_testbed
        from repro.storage.disk import DeviceModel

        testbed = paper_testbed()
        for name, factory in DEVICE_REGISTRY.items():
            assert isinstance(factory(testbed), DeviceModel), name

    def test_scheduler_registry_matches_make_scheduler(self):
        from repro.storage.device import SCHEDULER_REGISTRY, make_scheduler

        for name in SCHEDULER_REGISTRY:
            assert type(make_scheduler(name)) is SCHEDULER_REGISTRY[name]
