"""repro.lint: a determinism-contract static analyzer for the repro tree.

The golden-hash tests (PRs 6-7) *spot-check* the determinism story: one
snapshot fingerprint, one cache key, one measurement payload, pinned to
bytes.  This package machine-checks the **invariants behind those hashes**
over the whole source tree, so the contract holds for code paths no golden
test happens to execute:

* determinism hazards (``DET001``-``DET004``): no wall clock, no ambient
  entropy, no unseeded module-level randomness, no iteration over unordered
  sets feeding ordered results, no ``id()``-keyed containers;
* snapshot completeness (``SNAP001``-``SNAP002``): every mutable attribute
  of a snapshot participant is exported/restored or explicitly ephemeral;
* one payload encoder (``KEY002``): result documents are serialized only by
  :mod:`repro.core.persistence`.

Two contracts are checked at runtime instead, by tests that look at keys,
registries and traced runs rather than source text: which
``BenchmarkConfig`` fields move a cache key (``tests/test_parallel.py``),
and that every registered file system and device model has the hooks the
observability layer wires (``tests/test_obs.py``).

Run it with ``fsbench-rocket lint`` (exit code gates CI); configure and
justify exemptions in ``lint.toml``.  The analyzer never imports the code it
checks -- it parses, so linting has no side effects and no hidden state.
"""

from repro.lint.base import RULE_REGISTRY, Rule, all_rules, register_rule
from repro.lint.config import (
    LintConfig,
    LintConfigError,
    Suppression,
    apply_suppressions,
    load_config,
)
from repro.lint.model import Finding, ProjectIndex
from repro.lint.runner import LintReport, run_lint

__all__ = [
    "Finding",
    "LintConfig",
    "LintConfigError",
    "LintReport",
    "ProjectIndex",
    "RULE_REGISTRY",
    "Rule",
    "Suppression",
    "all_rules",
    "apply_suppressions",
    "load_config",
    "register_rule",
    "run_lint",
]
