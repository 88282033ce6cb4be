"""Analysis of benchmark results: regimes, transitions, fragility, comparison.

The modules here turn raw results into the judgements the paper says careful
researchers should be making explicitly:

* :mod:`repro.analysis.regimes` -- label measurements as memory-bound,
  transition or I/O-bound rather than averaging across regimes;
* :mod:`repro.analysis.transition` -- locate and characterise the
  memory-to-disk transition of a parameter sweep (the Figure 1 cliff and the
  "less than 6 MB" zoom);
* :mod:`repro.analysis.fragility` -- quantify how fragile a configuration is
  and generate explicit warnings for reports;
* :mod:`repro.analysis.comparison` -- honest multi-system comparison that
  refuses to produce a single-number winner when the data spans regimes.
"""

from repro.analysis.comparison import ComparisonVerdict, compare_repetition_sets
from repro.analysis.fragility import (
    FragilityReport,
    FragilityWarning,
    assess_aging,
    assess_sweep,
)
from repro.analysis.regimes import Regime, classify_run
from repro.analysis.transition import TransitionRegion, find_transition, refine_transition

__all__ = [
    "ComparisonVerdict",
    "compare_repetition_sets",
    "FragilityReport",
    "FragilityWarning",
    "assess_aging",
    "assess_sweep",
    "Regime",
    "classify_run",
    "TransitionRegion",
    "find_transition",
    "refine_transition",
]
