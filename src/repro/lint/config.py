"""``lint.toml``: per-rule options and justified suppressions.

The config file is the *audited* half of the contract system.  A finding can
only be silenced two ways, both of which leave a written trail:

* an inline ``# lint: ephemeral`` annotation (snapshot rule only -- it marks
  an attribute as deliberately outside the snapshot contract), or
* a ``[[suppress]]`` entry here, which **must** carry a non-empty ``reason``
  string.  A suppression that stops matching anything becomes a finding
  itself (``LINT001``), so stale exemptions cannot linger.

Schema::

    [rules.determinism]
    allow = ["src/repro/some/measured_wallclock.py"]   # fnmatch patterns

    [rules.snapshot]
    required = ["Journal", "PageCache", ...]  # classes that must export state

    [[suppress]]
    rule = "SNAP002"
    path = "src/repro/storage/clock.py"   # fnmatch against the finding path
    match = "VirtualClock"                # substring of the finding symbol
    reason = "why this is a false positive"
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.model import Finding


class LintConfigError(ValueError):
    """Raised when ``lint.toml`` is malformed or a suppression lacks a reason."""


@dataclass(frozen=True)
class Suppression:
    """One justified exemption from a rule."""

    rule: str
    path: str = "*"
    match: str = "*"
    reason: str = ""

    def covers(self, finding: Finding) -> bool:
        if self.rule != finding.rule:
            return False
        if not fnmatch(finding.path, self.path) and not fnmatch(
            finding.path, f"*/{self.path}"
        ):
            return False
        return self.match == "*" or self.match in finding.symbol

    def describe(self) -> str:
        return f"{self.rule} @ {self.path} [{self.match}]"


#: Classes that must participate in the snapshot protocol (define an
#: export/restore state pair) -- the stateful layers ``snapshot_stack``
#: serialises.  ``lint.toml`` may extend but not shrink the contract.
DEFAULT_SNAPSHOT_REQUIRED: Tuple[str, ...] = (
    "Journal",
    "PageCache",
    "FlashTranslationLayer",
    "BlockGroupAllocator",
    "ExtentAllocator",
    "VirtualClock",
)

@dataclass
class LintConfig:
    """Parsed configuration driving one lint run."""

    path: Optional[Path] = None
    suppressions: List[Suppression] = field(default_factory=list)
    determinism_allow: List[str] = field(default_factory=list)
    snapshot_required: Tuple[str, ...] = DEFAULT_SNAPSHOT_REQUIRED


def _string_list(value: object, context: str) -> List[str]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise LintConfigError(f"{context} must be a list of strings")
    return list(value)


def _table(value: object, context: str) -> Dict[str, object]:
    if not isinstance(value, dict):
        raise LintConfigError(f"[{context}] must be a table")
    return value


def load_config(path: Optional[Path]) -> LintConfig:
    """Load ``lint.toml``; ``None`` yields the defaults.

    Raises :class:`LintConfigError` when ``path`` is not a file or the file
    is malformed.
    """
    config = LintConfig(path=path)
    if path is None:
        return config
    if not Path(path).is_file():
        raise LintConfigError(f"{path}: no such file")
    with open(path, "rb") as handle:
        try:
            document = tomllib.load(handle)
        except tomllib.TOMLDecodeError as error:
            raise LintConfigError(f"{path}: {error}") from error

    rules = _table(document.get("rules", {}), "rules")
    determinism = _table(rules.get("determinism", {}), "rules.determinism")
    if determinism:
        config.determinism_allow = _string_list(
            determinism.get("allow", []), "rules.determinism.allow"
        )
    snapshot = _table(rules.get("snapshot", {}), "rules.snapshot")
    if snapshot:
        extra = _string_list(snapshot.get("required", []), "rules.snapshot.required")
        merged = list(DEFAULT_SNAPSHOT_REQUIRED)
        merged.extend(name for name in extra if name not in merged)
        config.snapshot_required = tuple(merged)

    for index, entry in enumerate(document.get("suppress", [])):
        if not isinstance(entry, dict):
            raise LintConfigError(f"[[suppress]] entry {index} must be a table")
        rule = entry.get("rule")
        reason = entry.get("reason", "")
        if not isinstance(rule, str) or not rule:
            raise LintConfigError(f"[[suppress]] entry {index} needs a rule id")
        if not isinstance(reason, str) or not reason.strip():
            raise LintConfigError(
                f"[[suppress]] entry {index} ({rule}) needs a non-empty reason: "
                "every exemption must be justified"
            )
        config.suppressions.append(
            Suppression(
                rule=rule,
                path=str(entry.get("path", "*")),
                match=str(entry.get("match", "*")),
                reason=reason.strip(),
            )
        )
    return config


def apply_suppressions(
    findings: Sequence[Finding], config: LintConfig
) -> Tuple[List[Finding], List[Tuple[Finding, Suppression]], List[Suppression]]:
    """Split findings into (active, suppressed) and report unused suppressions.

    First matching suppression wins; a suppression that matched nothing in
    the whole run is returned so the caller can flag it (``LINT001``).
    """
    active: List[Finding] = []
    suppressed: List[Tuple[Finding, Suppression]] = []
    used = [False] * len(config.suppressions)
    for finding in findings:
        for index, suppression in enumerate(config.suppressions):
            if suppression.covers(finding):
                used[index] = True
                suppressed.append((finding, suppression))
                break
        else:
            active.append(finding)
    unused = [
        suppression
        for index, suppression in enumerate(config.suppressions)
        if not used[index]
    ]
    return active, suppressed, unused
