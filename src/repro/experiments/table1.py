"""Table 1: the benchmark-usage survey, and its measured counterpart.

Unlike the figures, Table 1 is data the authors collected by reading 100
papers; reproducing it means regenerating the table (and its headline
statistics) from the structured survey dataset shipped with the library, and
verifying the totals the paper quotes in the text.

:func:`run_table1` can additionally run the *measured* counterpart of the
table (:class:`~repro.core.survey.MeasuredSurvey`): actual per-dimension
measurements across the full file-system grid -- ext2, ext3, ext4 and xfs --
printed next to the literature's usage counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.dimensions import Dimension
from repro.core.report import checks_line
from repro.core.survey import (
    MeasuredSurvey,
    MeasuredSurveyResult,
    PAPERS_SURVEYED_2009_2010,
    PAPERS_WITH_EVALUATION_2009_2010,
    SurveyDatabase,
    load_paper_survey,
)


@dataclass
class Table1Result:
    """The regenerated survey table plus its aggregate checks.

    ``measured`` carries the measured-survey counterpart when
    :func:`run_table1` was asked to produce one.
    """

    database: SurveyDatabase
    measured: Optional[MeasuredSurveyResult] = None

    def row_count(self) -> int:
        """Number of benchmark rows."""
        return len(self.database)

    def usage_counts(self) -> Dict[str, Dict[str, int]]:
        """benchmark -> period -> uses."""
        return {
            entry.name: {
                "1999_2007": entry.uses_1999_2007,
                "2009_2010": entry.uses_2009_2010,
            }
            for entry in self.database.entries()
        }

    def most_used(self, period: str = "2009_2010") -> str:
        """The most-used benchmark category in a period (Ad-hoc, per the paper)."""
        entries = self.database.entries()
        key = (lambda e: e.uses_2009_2010) if period == "2009_2010" else (lambda e: e.uses_1999_2007)
        return max(entries, key=key).name

    def checks(self) -> Dict[str, bool]:
        """The paper's claims about the survey, evaluated against the dataset."""
        database = self.database
        postmark = database.get("Postmark")
        filebench = database.get("Filebench")
        return {
            "nineteen_benchmark_rows": self.row_count() == 19,
            "adhoc_is_most_common": self.most_used("2009_2010") == "Ad-hoc"
            and self.most_used("1999_2007") == "Ad-hoc",
            "adhoc_counts_match_paper": database.get("Ad-hoc").uses_1999_2007 == 237
            and database.get("Ad-hoc").uses_2009_2010 == 67,
            "postmark_counts_match_paper": postmark.uses_1999_2007 == 30
            and postmark.uses_2009_2010 == 17,
            "filebench_used_in_8_papers_total": filebench.total_uses == 8,
            "no_benchmark_isolates_every_dimension": all(
                not all(entry.coverage.isolates(d) for d in Dimension.ordered())
                for entry in database.entries()
            ),
        }

    def render(self) -> str:
        """The regenerated Table 1 plus survey-level statistics."""
        lines = [
            "Table 1 reproduction -- benchmarks, dimension coverage and usage counts",
            "",
            self.database.render_table1(),
            "",
            f"Survey scope: {PAPERS_SURVEYED_2009_2010} papers reviewed for 2009-2010, "
            f"{PAPERS_WITH_EVALUATION_2009_2010} with a relevant evaluation.",
        ]
        lines.append(checks_line(self.checks()))
        if self.measured is not None:
            lines.append("")
            lines.append(self.measured.render())
        return "\n".join(lines)


def run_table1(
    measured_fs_types: Optional[Sequence[str]] = None,
    testbed=None,
    quick: bool = False,
    n_workers: Optional[int] = 1,
    cache_dir: Optional[str] = None,
) -> Table1Result:
    """Regenerate Table 1 from the bundled survey dataset.

    When ``measured_fs_types`` is given, also run the measured survey across
    those file systems (the table's executable counterpart) and attach it to
    the result; the remaining parameters configure that run exactly as they
    do :class:`~repro.core.survey.MeasuredSurvey`.  The measured counterpart
    executes as a declarative :class:`~repro.core.experiment.Experiment`
    (survey -> suite -> ``as_experiment``).
    """
    database = load_paper_survey()
    measured = None
    if measured_fs_types:
        survey = MeasuredSurvey(
            database=database,
            testbed=testbed,
            quick=quick,
            n_workers=n_workers,
            cache_dir=cache_dir,
        )
        measured = survey.run(tuple(measured_fs_types))
    return Table1Result(database=database, measured=measured)
