"""Drive a lint run: index, rules, suppressions, report rendering.

:func:`run_lint` is the single entry point the CLI verb and the tests share.
It parses the tree once, runs every registered rule, applies ``lint.toml``
suppressions, and folds three meta-failures back into the findings stream so
nothing can fail silently:

* ``LINT000`` -- a module that does not parse (the analyzer cannot vouch for
  code it cannot read);
* ``LINT001`` -- a suppression that matched nothing (stale exemptions are
  themselves contract violations: they document a false positive that no
  longer exists).

Output is deterministic: findings sort by ``(path, line, rule, symbol)``, so
two runs over the same tree render byte-identical reports -- the linter
holds itself to the reproducibility bar it enforces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from repro.lint.base import all_rules
from repro.lint.config import LintConfig, Suppression, apply_suppressions, load_config
from repro.lint.model import Finding, ProjectIndex

# Importing the rule modules populates RULE_REGISTRY.
from repro.lint import rules_determinism  # noqa: F401  (registration side effect)
from repro.lint import rules_snapshot  # noqa: F401
from repro.lint import rules_cachekey  # noqa: F401


@dataclass
class LintReport:
    """Everything one lint run produced."""

    root: Path
    config: LintConfig
    findings: List[Finding] = field(default_factory=list)  # active (gate CI)
    suppressed: List[Tuple[Finding, Suppression]] = field(default_factory=list)
    modules_scanned: int = 0
    rules_run: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    # ----------------------------------------------------------- rendering
    def to_json(self) -> str:
        document = {
            "root": str(self.root),
            "config": str(self.config.path) if self.config.path else None,
            "modules_scanned": self.modules_scanned,
            "rules_run": self.rules_run,
            "clean": self.clean,
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [
                {
                    **finding.to_dict(),
                    "suppressed_by": suppression.describe(),
                    "reason": suppression.reason,
                }
                for finding, suppression in self.suppressed
            ],
        }
        return json.dumps(document, indent=2, sort_keys=False)

    def to_table(self) -> str:
        lines: List[str] = []
        lines.append(
            f"lint: {self.modules_scanned} modules, {self.rules_run} rules, "
            f"{len(self.findings)} finding(s), {len(self.suppressed)} suppressed"
        )
        if self.findings:
            rows = [
                (finding.rule, finding.location(), finding.symbol, finding.message)
                for finding in self.findings
            ]
            widths = [
                max(len(row[column]) for row in rows + [_TABLE_HEADER])
                for column in range(3)
            ]
            lines.append("")
            lines.append(_format_row(_TABLE_HEADER, widths))
            lines.append(_format_row(tuple("-" * width for width in widths) + ("-" * 7,), widths))
            for row in rows:
                lines.append(_format_row(row, widths))
            hints = [f for f in self.findings if f.hint]
            if hints:
                lines.append("")
                for finding in hints:
                    lines.append(f"  {finding.rule} {finding.location()}: {finding.hint}")
        if self.suppressed:
            lines.append("")
            lines.append("suppressed (justified in lint.toml):")
            for finding, suppression in self.suppressed:
                lines.append(
                    f"  {finding.rule} {finding.location()} {finding.symbol}"
                    f" -- {suppression.reason}"
                )
        lines.append("")
        lines.append("clean" if self.clean else "FAIL: determinism contract violations")
        return "\n".join(lines)


_TABLE_HEADER = ("rule", "location", "symbol", "message")


def _format_row(row: Tuple[str, ...], widths: List[int]) -> str:
    cells = [row[column].ljust(widths[column]) for column in range(3)]
    return "  ".join(cells + [row[3]])


def run_lint(
    root: Path,
    config_path: Optional[Path] = None,
    project_root: Optional[Path] = None,
) -> LintReport:
    """Lint every module under ``root`` against the full rule registry."""
    config = load_config(config_path)
    index = ProjectIndex(root, project_root=project_root)
    rules = all_rules()

    raw: List[Finding] = list(index.errors)
    for rule in rules:
        raw.extend(rule.check(index, config))

    active, suppressed, unused = apply_suppressions(raw, config)
    for suppression in unused:
        active.append(
            Finding(
                rule="LINT001",
                path=str(config.path) if config.path else "lint.toml",
                line=1,
                symbol=suppression.describe(),
                message=(
                    f"suppression {suppression.describe()} matched no finding; "
                    "the exemption is stale"
                ),
                hint="delete the [[suppress]] entry (or fix its pattern)",
            )
        )

    active.sort(key=lambda f: (f.path, f.line, f.rule, f.symbol))
    suppressed.sort(key=lambda pair: (pair[0].path, pair[0].line, pair[0].rule))
    return LintReport(
        root=Path(root),
        config=config,
        findings=active,
        suppressed=suppressed,
        modules_scanned=len(index.modules),
        rules_run=len(rules),
    )
