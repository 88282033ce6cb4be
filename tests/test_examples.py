"""Smoke tests for the example scripts.

The examples are user-facing documentation; these tests make sure every one
of them imports, exposes a ``main`` entry point, and that the quick/cheap
ones actually run end to end.  The heavier examples are exercised indirectly
by the suite and experiment tests.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = [
    "quickstart.py",
    "compare_filesystems.py",
    "fragility_demo.py",
    "survey_report.py",
    "macro_personalities.py",
    "trace_replay_demo.py",
    "aging_demo.py",
    "ssd_steady_state.py",
]


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesExist:
    def test_at_least_three_runnable_examples(self):
        assert len(ALL_EXAMPLES) >= 3
        for name in ALL_EXAMPLES:
            assert (EXAMPLES_DIR / name).exists(), name

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_example_has_main_and_docstring(self, name):
        module = load_example(name)
        assert callable(getattr(module, "main", None)), f"{name} must expose main()"
        assert module.__doc__ and len(module.__doc__) > 80, f"{name} needs a real docstring"


class TestFastExamplesRun:
    def test_survey_report_runs(self, capsys):
        module = load_example("survey_report.py")
        assert module.main([]) == 0
        output = capsys.readouterr().out
        assert "Ad-hoc" in output
        assert "Extending the survey" in output

    def test_trace_replay_demo_runs_quick(self, capsys):
        module = load_example("trace_replay_demo.py")
        assert module.main(["--quick"]) == 0
        output = capsys.readouterr().out
        assert "replayed" in output
        assert "xfs" in output

    def test_aging_demo_runs_quick(self, capsys):
        module = load_example("aging_demo.py")
        assert module.main(["--quick"]) == 0
        output = capsys.readouterr().out
        assert "Aged with churn" in output
        assert "fresh ext2" in output
        assert "aged  ext2" in output

    def test_ssd_steady_state_runs_quick(self, capsys):
        module = load_example("ssd_steady_state.py")
        assert module.main(["--quick"]) == 0
        output = capsys.readouterr().out
        assert "ssd-ftl-fresh" in output
        assert "ssd-ftl-steady" in output
        assert "write amplification" in output

    def test_quickstart_runs_quick(self, capsys):
        module = load_example("quickstart.py")
        assert module.main(["--quick"]) == 0
        output = capsys.readouterr().out
        assert "Regime: memory-bound" in output
        assert "Regime: io-bound" in output
        assert "read latency" in output

    def test_macro_personalities_runs_quick(self, capsys):
        module = load_example("macro_personalities.py")
        assert module.main(["--quick"]) == 0
        output = capsys.readouterr().out
        assert "--- Filebench-like webserver" in output
        assert "--- Filebench-like varmail" in output
        assert "--- PostMark" in output
