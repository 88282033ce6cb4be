"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

import repro.cli as cli
from repro.core.runner import BenchmarkRunner


def _no_measurement(*args, **kwargs):
    raise AssertionError("a usage error must stop the command before anything is measured")


class TestParser:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["figure99"])

    def test_unknown_fs_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["figure1", "--fs", "zfs"])

    def test_every_subcommand_has_a_handler(self):
        (subcommands,) = [
            action.choices
            for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(subcommands) == set(cli.COMMANDS)


class TestTable1Command:
    def test_prints_the_table(self, capsys):
        assert cli.main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Postmark" in output
        assert "Ad-hoc" in output
        assert "Legend" in output


class TestFigureCommands:
    """Figure commands are dispatched with stubbed harnesses (the real ones are
    exercised by tests/test_experiments.py and by the benchmarks)."""

    class _StubResult:
        def render(self):
            return "stub-render"

    def test_figure1_dispatch(self, monkeypatch, capsys):
        captured = {}

        def fake_run_figure1(fs_type, scale):
            captured["fs"] = fs_type
            captured["scale"] = scale
            return self._StubResult()

        monkeypatch.setattr(cli, "run_figure1", fake_run_figure1)
        assert cli.main(["figure1", "--fs", "xfs"]) == 0
        assert captured["fs"] == "xfs"
        assert captured["scale"].name == "default"
        assert "stub-render" in capsys.readouterr().out

    def test_paper_scale_flag(self, monkeypatch):
        captured = {}
        monkeypatch.setattr(
            cli, "run_figure3", lambda fs_type, scale: captured.update(scale=scale) or self._StubResult()
        )
        cli.main(["--paper-scale", "figure3"])
        assert captured["scale"].name == "paper"

    @pytest.mark.parametrize("argv", [["suite", "--quick"], ["run"]])
    def test_paper_scale_is_rejected_where_no_harness_takes_a_scale(
        self, monkeypatch, capsys, argv
    ):
        monkeypatch.setattr(BenchmarkRunner, "run_once", _no_measurement)
        assert cli.main(["--paper-scale", *argv]) == 2
        assert "figure1, figure2, figure3, figure4, zoom" in capsys.readouterr().err

    def test_figure2_default_filesystems(self, monkeypatch):
        captured = {}
        monkeypatch.setattr(
            cli,
            "run_figure2",
            lambda fs_types, scale: captured.update(fs=fs_types) or self._StubResult(),
        )
        cli.main(["figure2"])
        assert captured["fs"] == ("ext2", "ext3", "xfs")

    def test_figure2_explicit_filesystems(self, monkeypatch):
        captured = {}
        monkeypatch.setattr(
            cli,
            "run_figure2",
            lambda fs_types, scale: captured.update(fs=fs_types) or self._StubResult(),
        )
        cli.main(["figure2", "--fs", "ext2", "--fs", "xfs"])
        assert captured["fs"] == ("ext2", "xfs")

    def test_figure4_and_zoom_dispatch(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_figure4", lambda fs_type, scale: calls.append("f4") or self._StubResult())
        monkeypatch.setattr(
            cli, "run_transition_zoom", lambda fs_type, scale: calls.append("zoom") or self._StubResult()
        )
        cli.main(["figure4"])
        cli.main(["zoom"])
        assert calls == ["f4", "zoom"]

    def test_suite_command(self, monkeypatch, capsys):
        class _FakeSuite:
            def __init__(self, testbed=None, quick=False, n_workers=1, cache_dir=None, snapshot_path=None):
                self.quick = quick

            def run(self, fs_types):
                return {"fs": fs_types}

        monkeypatch.setattr(cli, "NanoBenchmarkSuite", _FakeSuite)
        monkeypatch.setattr(cli, "suite_report", lambda result: f"suite over {result['fs']}")
        assert cli.main(["suite", "--quick", "--fs", "ext2", "--scaled-testbed", "0.125"]) == 0
        assert "ext2" in capsys.readouterr().out


class TestParallelFlags:
    """--workers / --cache-dir / --no-cache reach the execution layer."""

    class _FakeSuite:
        captured = {}

        def __init__(self, testbed=None, quick=False, n_workers=1, cache_dir=None, snapshot_path=None):
            type(self).captured = {"n_workers": n_workers, "cache_dir": cache_dir}

        def run(self, fs_types):
            return {"fs": fs_types}

    def test_suite_workers_and_cache_dir(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "NanoBenchmarkSuite", self._FakeSuite)
        monkeypatch.setattr(cli, "suite_report", lambda result: "ok")
        assert cli.main(["suite", "--workers", "4", "--cache-dir", "/tmp/c"]) == 0
        assert self._FakeSuite.captured == {"n_workers": 4, "cache_dir": "/tmp/c"}

    def test_no_cache_overrides_cache_dir(self, monkeypatch):
        monkeypatch.setattr(cli, "NanoBenchmarkSuite", self._FakeSuite)
        monkeypatch.setattr(cli, "suite_report", lambda result: "ok")
        cli.main(["suite", "--cache-dir", "/tmp/c", "--no-cache"])
        assert self._FakeSuite.captured["cache_dir"] is None

    def test_survey_dispatch(self, monkeypatch, capsys):
        captured = {}

        class _FakeSurvey:
            def __init__(self, testbed=None, quick=False, n_workers=1, cache_dir=None, snapshot_path=None):
                captured.update(n_workers=n_workers, cache_dir=cache_dir, quick=quick)

            def run(self, fs_types):
                captured["fs"] = fs_types

                class _Result:
                    def render(self):
                        return "survey-render"

                return _Result()

        monkeypatch.setattr(cli, "MeasuredSurvey", _FakeSurvey)
        assert cli.main(["survey", "--quick", "--fs", "xfs", "--workers", "0"]) == 0
        assert captured["n_workers"] == 0
        assert captured["quick"] is True
        assert captured["fs"] == ("xfs",)
        assert "survey-render" in capsys.readouterr().out


class TestDeviceAndSchedulerFlags:
    """--device/--scheduler choices come from the registries, never a hardcoded list."""

    class _FakeSuite:
        captured = {}

        def __init__(self, testbed=None, quick=False, n_workers=1, cache_dir=None, snapshot_path=None):
            type(self).captured = {"testbed": testbed}

        def run(self, fs_types):
            return {"fs": fs_types}

    def test_choices_track_the_registries(self):
        from repro.storage.config import DEVICE_REGISTRY
        from repro.storage.device import SCHEDULER_REGISTRY

        assert cli.DEVICE_CHOICES == tuple(DEVICE_REGISTRY)
        assert cli.SCHEDULER_CHOICES == tuple(SCHEDULER_REGISTRY)
        assert "ssd-ftl-steady" in cli.DEVICE_CHOICES

    def test_suite_device_and_scheduler_reach_the_testbed(self, monkeypatch):
        monkeypatch.setattr(cli, "NanoBenchmarkSuite", self._FakeSuite)
        monkeypatch.setattr(cli, "suite_report", lambda result: "ok")
        assert (
            cli.main(
                ["suite", "--quick", "--device", "ssd-ftl", "--scheduler", "deadline"]
            )
            == 0
        )
        testbed = self._FakeSuite.captured["testbed"]
        assert testbed.device_kind == "ssd-ftl"
        assert testbed.io_scheduler == "deadline"

    def test_unregistered_device_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["suite", "--device", "floppy"])


class TestSsdSteadyCommand:
    def test_dispatch_and_render(self, monkeypatch, capsys):
        captured = {}

        class _StubResult:
            def render(self):
                return "ssd-steady-render"

        def fake_run(fs_type, workload, testbed, quick, n_workers, cache_dir):
            captured.update(
                fs_type=fs_type, workload=workload, quick=quick, n_workers=n_workers
            )
            return _StubResult()

        monkeypatch.setattr(cli, "run_fresh_vs_steady", fake_run)
        assert cli.main(["ssd-steady", "--quick", "--fs", "ext2", "--workers", "2"]) == 0
        assert captured == {
            "fs_type": "ext2",
            "workload": "postmark",
            "quick": True,
            "n_workers": 2,
        }
        assert "ssd-steady-render" in capsys.readouterr().out

    def test_unknown_workload_is_a_usage_error(self, capsys):
        assert cli.main(["ssd-steady", "--quick", "--workload", "no-such-workload"]) == 2
        assert "error" in capsys.readouterr().err


class TestSingleCellCommands:
    """``trace`` and ``explain`` measure one repetition of one cell."""

    @pytest.mark.parametrize("command", ["trace", "explain"])
    @pytest.mark.parametrize("axis", ["seed=0..3", "fs=ext2,xfs"])
    def test_a_multi_valued_axis_is_a_usage_error(self, monkeypatch, capsys, command, axis):
        monkeypatch.setattr(BenchmarkRunner, "run_once", _no_measurement)
        argv = [command, "--axis", "workload=random-read-cached", "--axis", axis]
        assert cli.main([*argv, "--scaled-testbed", "0.0625"]) == 2
        assert "pin every --axis to a single value" in capsys.readouterr().err


class TestLintCommand:
    def test_another_tree_is_linted_with_its_own_lint_toml(self, tmp_path, monkeypatch, capsys):
        # Run from this checkout, whose lint.toml holds a suppression that
        # matches nothing in the other tree: applied there, it is LINT001.
        checkout = Path(__file__).resolve().parents[1]
        assert (checkout / "lint.toml").is_file()
        project = tmp_path / "other"
        (project / "pkg").mkdir(parents=True)
        (project / "pkg" / "clock.py").write_text(
            "import time\n\n\ndef now():\n    return time.time()\n", encoding="utf-8"
        )
        (project / "lint.toml").write_text(
            '[[suppress]]\nrule = "DET001"\npath = "pkg/clock.py"\n'
            'reason = "this tree reads host time on purpose"\n',
            encoding="utf-8",
        )
        monkeypatch.chdir(checkout)
        assert cli.main(["lint", "--root", str(project / "pkg"), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["config"] == str(project / "lint.toml")
        assert document["findings"] == []
        assert [entry["rule"] for entry in document["suppressed"]] == ["DET001"]
