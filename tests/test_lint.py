"""Tests for the determinism-contract static analyzer (repro.lint).

Two halves:

* synthetic known-bad fixtures, one firing and one non-firing case per rule,
  written to ``tmp_path`` and linted in isolation -- these prove each rule
  actually detects the defect class it claims to (deleting an exported
  attribute, a second payload encoder, introducing ``time.time()``, ...);
* the self-check: ``src/repro`` lints clean at HEAD under the repository's
  own ``lint.toml``, with every suppression used.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import cli
from repro.lint import (
    LintConfig,
    LintConfigError,
    ProjectIndex,
    RULE_REGISTRY,
    load_config,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------- helpers
def lint_source(tmp_path: Path, source: str, config: LintConfig = None, name: str = "mod.py"):
    """Lint one synthetic module and return the findings of all rules."""
    tree = tmp_path / "proj"
    tree.mkdir(exist_ok=True)
    (tree / name).write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_tree(tree, config)


def lint_tree(tree: Path, config: LintConfig = None):
    config = config if config is not None else LintConfig()
    index = ProjectIndex(tree, project_root=tree.parent)
    findings = list(index.errors)
    for rule_cls in RULE_REGISTRY.values():
        findings.extend(rule_cls().check(index, config))
    return findings


def rules_of(findings):
    return {finding.rule for finding in findings}


# ------------------------------------------------------- registry contract
#: Ids of deleted rules.  Ids are append-only, so these are never reused:
#: KEY001 and PROTO001-003 became runtime tests (tests/test_parallel.py
#: ``TestKeyClassification``, tests/test_obs.py ``TestRegistryHooks`` and
#: ``test_every_mutable_stats_dataclass_is_a_metric_source``).
RETIRED_RULES = {"KEY001", "PROTO001", "PROTO002", "PROTO003"}


def test_registry_has_all_documented_rules():
    expected = {
        "DET001",
        "DET002",
        "DET003",
        "DET004",
        "SNAP001",
        "SNAP002",
        "KEY002",
    }
    assert set(RULE_REGISTRY) == expected
    assert not RETIRED_RULES & set(RULE_REGISTRY)
    for rule_id, rule_cls in RULE_REGISTRY.items():
        assert rule_cls.rule_id == rule_id
        assert rule_cls.contract, f"{rule_id} has no contract statement"


# ------------------------------------------------------------- determinism
def test_det001_fires_on_wall_clock(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import time

        def measure():
            return time.time()
        """,
    )
    det = [finding for finding in findings if finding.rule == "DET001"]
    assert len(det) == 1
    assert "time.time" in det[0].message
    assert det[0].line == 5


def test_det001_fires_on_datetime_now_and_urandom(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import os
        from datetime import datetime

        def stamp():
            return datetime.now(), os.urandom(8)
        """,
    )
    assert sum(1 for finding in findings if finding.rule == "DET001") == 2


def test_det001_silent_on_virtual_clock(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class VirtualClock:
            def __init__(self):
                self._now_ns = 0.0

            def now_ns(self):
                return self._now_ns
        """,
    )
    assert "DET001" not in rules_of(findings)


def test_det001_respects_allowlist(tmp_path):
    config = LintConfig(determinism_allow=["proj/wallclock.py"])
    findings = lint_source(
        tmp_path,
        """
        import time

        def hosttime():
            return time.time()
        """,
        config=config,
        name="wallclock.py",
    )
    assert "DET001" not in rules_of(findings)


def test_det002_fires_on_module_level_random(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import random

        def pick(items):
            return random.choice(items)
        """,
    )
    assert "DET002" in rules_of(findings)


def test_det002_silent_on_seeded_instance(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import random

        def pick(items, seed):
            rng = random.Random(seed)
            return rng.choice(items)
        """,
    )
    assert "DET002" not in rules_of(findings)


def test_det003_fires_on_set_iteration(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def keys(resident: set):
            return list(resident)
        """,
    )
    assert "DET003" in rules_of(findings)


def test_det003_silent_on_sorted_and_reductions(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def keys(resident: set):
            total = sum(1 for key in resident)
            return sorted(resident), total
        """,
    )
    assert "DET003" not in rules_of(findings)


def test_det004_fires_on_id_keyed_dict(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def index(objs):
            table = {}
            for obj in objs:
                table[id(obj)] = obj
            return table
        """,
    )
    assert "DET004" in rules_of(findings)


# ---------------------------------------------------------------- snapshot
SNAPSHOT_CLASS = """
class Journalish:
    def __init__(self):
        self.block_size = 4096
        self._head = 0
        self._pending = []

    def advance(self):
        self._head += 1

    def export_state(self):
        return {"head": self._head, "pending": list(self._pending)}

    def restore_state(self, data):
        self._head = int(data["head"])
        self._pending = list(data["pending"])
"""


def test_snap001_silent_when_state_is_covered(tmp_path):
    findings = lint_source(tmp_path, SNAPSHOT_CLASS)
    assert "SNAP001" not in rules_of(findings)


def test_snap001_fires_when_export_attr_deleted(tmp_path):
    # The acceptance scenario: drop _pending from the export/restore pair.
    broken = SNAPSHOT_CLASS.replace(', "pending": list(self._pending)', "").replace(
        '        self._pending = list(data["pending"])\n', ""
    )
    findings = lint_source(tmp_path, broken)
    snap = [finding for finding in findings if finding.rule == "SNAP001"]
    assert len(snap) == 1
    assert snap[0].symbol == "Journalish._pending"
    assert "export_state/restore_state" in snap[0].message


def test_snap001_honours_ephemeral_annotation(tmp_path):
    broken = SNAPSHOT_CLASS.replace(', "pending": list(self._pending)', "").replace(
        '        self._pending = list(data["pending"])\n', ""
    )
    annotated = broken.replace(
        "self._pending = []",
        "self._pending = []  # lint: ephemeral -- rebuilt on replay",
    )
    findings = lint_source(tmp_path, annotated)
    assert "SNAP001" not in rules_of(findings)


def test_snap001_sees_through_init_helpers_and_bases(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Base:
            def __init__(self):
                self._init_mapping()

            def _init_mapping(self):
                self._l2p = {}

        class Ftlish(Base):
            def __init__(self):
                super().__init__()
                self._erases = [0] * 8

            def export_state(self):
                return {"erases": list(self._erases)}

            def restore_state(self, data):
                self._erases = list(data["erases"])
        """,
    )
    snap = [finding for finding in findings if finding.rule == "SNAP001"]
    assert [finding.symbol for finding in snap] == ["Ftlish._l2p"]


def test_snap002_fires_for_required_class_without_pair(tmp_path):
    config = LintConfig(snapshot_required=("Clockish",))
    findings = lint_source(
        tmp_path,
        """
        class Clockish:
            def __init__(self):
                self._now = 0.0

            def advance(self, dt):
                self._now += dt
        """,
        config=config,
    )
    snap = [finding for finding in findings if finding.rule == "SNAP002"]
    assert len(snap) == 1 and snap[0].symbol == "Clockish"


def test_snap002_silent_when_pair_exists(tmp_path):
    config = LintConfig(snapshot_required=("Journalish",))
    findings = lint_source(tmp_path, SNAPSHOT_CLASS, config=config)
    assert "SNAP002" not in rules_of(findings)


# --------------------------------------------------------------- cache key
def test_key002_fires_on_ad_hoc_result_serialization(tmp_path):
    # A second encoder: dumping run_result_to_dict() output directly instead
    # of going through canonical_run_payload.
    findings = lint_source(
        tmp_path,
        """
        import json

        from repro.core.persistence import run_result_to_dict


        def rogue_payload(run):
            return json.dumps(run_result_to_dict(run)).encode("utf-8")
        """,
    )
    key = [finding for finding in findings if finding.rule == "KEY002"]
    assert len(key) == 1
    assert key[0].symbol == "run_result_to_dict"
    assert "canonical" in key[0].hint


def test_key002_fires_on_private_wrap_call(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        from repro.core.persistence import _wrap, run_result_to_dict


        def rogue_document(run):
            return _wrap("run_result", run_result_to_dict(run))
        """,
    )
    assert any(
        finding.rule == "KEY002" and finding.symbol == "_wrap"
        for finding in findings
    )


def test_key002_silent_on_in_memory_comparison(tmp_path):
    # obs.payloads_match-style dict equality never produces bytes, so it is
    # not a serialization path.
    findings = lint_source(
        tmp_path,
        """
        from repro.core.persistence import run_result_to_dict


        def payloads_match(run_a, run_b):
            return run_result_to_dict(run_a) == run_result_to_dict(run_b)
        """,
    )
    assert "KEY002" not in rules_of(findings)


def test_key002_silent_inside_the_persistence_module(tmp_path):
    # The canonical encoder itself is the one legitimate _wrap + dumps site.
    tree = tmp_path / "proj" / "core"
    tree.mkdir(parents=True)
    (tree / "persistence.py").write_text(
        textwrap.dedent(
            """
            import json


            def _wrap(kind, payload):
                return {"kind": kind, "data": payload}


            def run_result_to_dict(run):
                return dict(vars(run))


            def canonical_run_payload(run):
                document = _wrap("run_result", run_result_to_dict(run))
                return json.dumps(document, sort_keys=True).encode("utf-8")
            """
        ),
        encoding="utf-8",
    )
    findings = lint_tree(tmp_path / "proj")
    assert "KEY002" not in rules_of(findings)


# ----------------------------------------------------- runner and plumbing
def test_lint000_reports_unparseable_module(tmp_path):
    findings = lint_source(tmp_path, "def broken(:\n    pass\n")
    assert "LINT000" in rules_of(findings)


def test_run_lint_flags_unused_suppression(tmp_path):
    tree = tmp_path / "proj"
    tree.mkdir()
    (tree / "clean.py").write_text("X = 1\n", encoding="utf-8")
    config_file = tmp_path / "lint.toml"
    config_file.write_text(
        '[[suppress]]\nrule = "DET001"\npath = "nowhere.py"\n'
        'reason = "stale exemption"\n',
        encoding="utf-8",
    )
    report = run_lint(tree, config_path=config_file, project_root=tmp_path)
    assert [finding.rule for finding in report.findings] == ["LINT001"]
    assert report.exit_code == 1


def test_suppression_without_reason_is_rejected(tmp_path):
    config_file = tmp_path / "lint.toml"
    config_file.write_text(
        '[[suppress]]\nrule = "DET001"\npath = "x.py"\n', encoding="utf-8"
    )
    with pytest.raises(LintConfigError, match="reason"):
        load_config(config_file)


def test_rules_entry_that_is_not_a_table_is_a_config_error(tmp_path):
    config_file = tmp_path / "lint.toml"
    config_file.write_text(
        '[rules]\ndeterminism = ["obs/telemetry.py"]\n', encoding="utf-8"
    )
    with pytest.raises(LintConfigError, match="rules.determinism"):
        load_config(config_file)


def test_cli_lint_rejects_a_missing_explicit_config(tmp_path, capsys):
    tree = tmp_path / "proj"
    tree.mkdir()
    (tree / "clean.py").write_text("X = 1\n", encoding="utf-8")
    missing = tmp_path / "missing.toml"
    assert cli.main(["lint", "--root", str(tree), "--config", str(missing)]) == 2
    assert "missing.toml" in capsys.readouterr().err


def test_cli_lint_rejects_a_root_that_is_not_a_directory(tmp_path, capsys):
    assert cli.main(["lint", "--root", str(tmp_path / "no-such-dir")]) == 2
    captured = capsys.readouterr()
    assert "no-such-dir" in captured.err
    assert captured.out == ""


def test_cli_lint_takes_a_relative_root(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert cli.main(["lint", "--root", "src/repro", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["clean"] is True
    assert document["rules_run"] == len(RULE_REGISTRY)
    assert document["modules_scanned"] > 50


def test_acceptance_time_time_fails_a_run(tmp_path):
    tree = tmp_path / "proj"
    tree.mkdir()
    (tree / "hot.py").write_text(
        "import time\n\n\ndef now():\n    return time.time()\n", encoding="utf-8"
    )
    report = run_lint(tree, project_root=tmp_path)
    assert report.exit_code == 1
    assert any(finding.rule == "DET001" for finding in report.findings)


def test_report_renders_table_and_json(tmp_path):
    tree = tmp_path / "proj"
    tree.mkdir()
    (tree / "hot.py").write_text(
        "import time\n\n\ndef now():\n    return time.time()\n", encoding="utf-8"
    )
    report = run_lint(tree, project_root=tmp_path)
    table = report.to_table()
    assert "DET001" in table and "proj/hot.py:5" in table
    document = json.loads(report.to_json())
    assert document["clean"] is False
    assert document["findings"][0]["rule"] == "DET001"


# ------------------------------------------------------------- self-checks
def test_src_repro_lints_clean_at_head():
    report = run_lint(
        REPO_ROOT / "src" / "repro",
        config_path=REPO_ROOT / "lint.toml",
        project_root=REPO_ROOT,
    )
    details = "\n".join(
        f"{finding.rule} {finding.location()} {finding.message}"
        for finding in report.findings
    )
    assert report.clean, f"src/repro has contract violations:\n{details}"
    # Every suppression in lint.toml matched something (no LINT001 above)
    # and the documented VirtualClock exemption is actually exercised.
    assert any(
        finding.symbol == "VirtualClock" for finding, _ in report.suppressed
    )


def test_cli_lint_verb_json(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "--format", "json"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    document = json.loads(result.stdout)
    assert document["clean"] is True
    assert document["modules_scanned"] > 50


# ------------------------------------------- conventional linters (if here)
@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_error_class_clean():
    result = subprocess.run(
        ["ruff", "check", "src", "tests"], capture_output=True, text=True, cwd=REPO_ROOT
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_minimal_gate_clean():
    result = subprocess.run(
        ["mypy", "--config-file", "pyproject.toml"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
