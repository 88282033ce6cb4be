"""Command-line interface: declarative experiment runs plus the paper's
figures and tables.

The primary entry point is ``run``, the CLI face of the declarative
experiment API (:mod:`repro.core.experiment`): every ``--axis`` adds one grid
dimension, and the cartesian product executes through the parallel engine
with streaming progress and a tidy JSONL/CSV result frame::

    fsbench-rocket run --axis fs=ext2,ext4 --axis workload=postmark \\
        --axis seed=0..4 --out results.jsonl
    fsbench-rocket run --axis fs=ext4 --axis workload=random-read-cached \\
        --axis cache_mb=64,128,256 --workers 0 --cache-dir .fsbench-cache
    fsbench-rocket list        # registered filesystems/workloads/devices/...

Axis values resolve by name through the registries ``list`` prints
(``FS_REGISTRY``, ``WORKLOAD_REGISTRY``, ``DEVICE_REGISTRY``,
``SCHEDULER_REGISTRY``); ``a..b`` is an inclusive integer range and any other
axis name is a :class:`~repro.core.runner.BenchmarkConfig` field override
(``--axis duration_s=5``).

``trace`` and ``explain`` answer the paper's "where did the time go?"
question for any single cell (see :mod:`repro.obs`)::

    fsbench-rocket trace --axis fs=ext4 --axis workload=postmark \\
        --out trace.jsonl --chrome trace.json
    fsbench-rocket explain --axis fs=ext4 --axis workload=postmark \\
        --cache-dir .fsbench-cache

``trace`` runs the cell with the virtual-time tracer attached and exports
the span events; ``explain`` re-runs a cached cell traced, proves the traced
measurement bit-identical to the cached one, and prints the per-layer
latency-attribution pivot.  Progress goes through ``logging`` to stderr
(``-v``/``--log-level`` control it); rendered tables stay on stdout.

``report`` and ``bench-diff`` watch the campaign and the harness itself
(see :mod:`repro.obs.telemetry` / :mod:`repro.obs.benchdiff`)::

    fsbench-rocket run --axis fs=ext4 --axis workload=postmark \\
        --telemetry telemetry.jsonl
    fsbench-rocket report telemetry.jsonl
    fsbench-rocket bench-diff BENCH_PR7.json BENCH_PR9.json --threshold 0.5

``run --telemetry`` logs every work unit's lifecycle (queued / cache-hit /
pack-hit / exec-start / exec-done / failed) with wall-clock phase profiles;
``report`` renders campaign health from that log, and ``bench-diff`` exits
non-zero when a shared benchmark's mean regressed beyond the threshold.

``results`` and ``cache`` manage measured cells at campaign scale (see
:mod:`repro.store`): a loose cache directory packs into a single
compressed, fingerprinted ``.frpack`` artifact that shards can merge and
any checkout can mount as a read-through cache tier::

    fsbench-rocket results pack --cache-dir .fsbench-cache --out campaign.frpack
    fsbench-rocket results verify campaign.frpack
    fsbench-rocket results query campaign.frpack --where fs=ext4
    fsbench-rocket run --axis fs=ext4 --axis workload=postmark \\
        --pack campaign.frpack
    fsbench-rocket cache .fsbench-cache   # inspect / integrity-scan / --clear

The paper's harness commands run on the same engine::

    fsbench-rocket table1 [--measured --quick]
    fsbench-rocket figure1 --fs ext2
    fsbench-rocket suite --quick --fs ext4 --fs xfs --workers 4
    fsbench-rocket survey --quick --workers 0
    fsbench-rocket age --quick --fs ext4 --out aged-ext4.snapshot.json
    fsbench-rocket suite --quick --fs ext4 --snapshot aged-ext4.snapshot.json

``--workers`` fans the grid out over worker processes (``0`` = one per CPU)
with bit-identical results; ``--cache-dir`` persists every measured cell so
repeated runs only simulate what has never been measured before
(``--no-cache`` overrides it).  ``age`` churns a file system into a realistic
aged state and saves it as a deterministic snapshot; pass it to ``run`` via
``--axis snapshot=PATH`` (or to suite/survey via ``--snapshot``) to measure
from the aged state.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from typing import List, Optional

from repro.core.experiment import Experiment, ParameterGrid
from repro.core.report import suite_report
from repro.core.suite import NanoBenchmarkSuite
from repro.core.survey import MeasuredSurvey
from repro.fs.stack import DEFAULT_FS_TYPES
from repro.experiments import (
    default_scale,
    paper_scale,
    run_figure1,
    run_figure2,
    run_figure3,
    run_figure4,
    run_fresh_vs_steady,
    run_scalability,
    run_table1,
    run_transition_zoom,
)
from repro.storage.config import DEFAULT_DEVICE_KINDS, paper_testbed, scaled_testbed
from repro.storage.device import SCHEDULER_REGISTRY

#: CLI choices derived from the registries, never hardcoded: a newly
#: registered device or scheduler kind appears in fsbench-rocket (flags and
#: ``list`` output) automatically.
DEVICE_CHOICES = DEFAULT_DEVICE_KINDS
SCHEDULER_CHOICES = tuple(SCHEDULER_REGISTRY)

#: Progress/diagnostics logger.  Everything here goes to stderr so stdout
#: stays machine-consumable (result tables, rendered reports, JSONL paths).
logger = logging.getLogger("fsbench-rocket")

LOG_LEVELS = ("debug", "info", "warning", "error")


class _StderrHandler(logging.StreamHandler):
    """A stream handler that resolves ``sys.stderr`` at emit time.

    Binding the stream lazily (instead of at configure time) keeps log
    output visible to anything that swaps ``sys.stderr`` after logging was
    configured -- pytest's capture machinery in particular.
    """

    def __init__(self) -> None:
        super().__init__(stream=sys.stderr)

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value) -> None:  # StreamHandler.__init__ assigns this
        pass


def _configure_logging(args) -> None:
    """Wire the CLI logger from ``-v``/``--log-level``/``--quiet``.

    Explicit ``--log-level`` wins; otherwise ``-v`` raises verbosity to
    DEBUG and ``--quiet`` (where the subcommand has it) lowers it to
    WARNING, keeping the historical default of progress lines on stderr.
    """
    if args.log_level is not None:
        level = getattr(logging, args.log_level.upper())
    elif args.verbose:
        level = logging.DEBUG
    elif getattr(args, "quiet", False):
        level = logging.WARNING
    else:
        level = logging.INFO
    logger.setLevel(level)
    logger.propagate = False
    if not logger.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)


def _nonnegative_int(value: str) -> int:
    """argparse type for --workers: an int >= 0 (0 = one worker per CPU)."""
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 means one worker per CPU)")
    return number


def _nonnegative_float(value: str) -> float:
    """argparse type for --threshold: a float >= 0."""
    number = float(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return number


def _testbed_fraction(value: str) -> float:
    """argparse type for --scaled-testbed: a fraction in (0, 1]."""
    number = float(value)
    if not (0 < number <= 1):
        raise argparse.ArgumentTypeError("must be a fraction in (0, 1]")
    return number


def _client_counts(value: str) -> tuple:
    """argparse type for --clients: comma-separated ints, at least two distinct."""
    try:
        counts = tuple(int(token) for token in value.split(",") if token.strip())
    except ValueError:
        raise argparse.ArgumentTypeError("must be comma-separated integers")
    if any(count < 1 for count in counts):
        raise argparse.ArgumentTypeError("client counts must be >= 1")
    if len(set(counts)) < 2:
        raise argparse.ArgumentTypeError("need at least two distinct client counts")
    return counts


def _parse_axis_value(axis: str, token: str):
    """One axis value: int/float/bool coerced, anything else a string.

    Only the snapshot axis maps ``none``/``fresh`` to Python ``None`` (a
    fresh file system); everywhere else those tokens stay strings so enum
    fields like ``warmup_mode=none`` resolve to their enum values.
    """
    token = token.strip()
    lowered = token.lower()
    if axis == "snapshot" and lowered in ("none", "fresh"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _parse_axis(text: str):
    """argparse type for --axis: ``NAME=V1[,V2...]`` with ``a..b`` int ranges."""
    name, sep, raw = text.partition("=")
    name = name.strip()
    if not sep or not name or not raw.strip():
        raise argparse.ArgumentTypeError(
            "expected NAME=VALUE[,VALUE...] (e.g. fs=ext2,ext4 or seed=0..4)"
        )
    values = []
    for token in raw.split(","):
        token = token.strip()
        low, range_sep, high = token.partition("..")
        if range_sep:
            # 'a..b' is an inclusive integer range only when both bounds are
            # integers; anything else (e.g. a snapshot path like ../aged.json)
            # falls through to a plain value.
            try:
                start, stop = int(low), int(high)
            except ValueError:
                values.append(_parse_axis_value(name, token))
                continue
            if stop < start:
                raise argparse.ArgumentTypeError(f"empty range: {token!r}")
            values.extend(range(start, stop + 1))
        else:
            values.append(_parse_axis_value(name, token))
    return name, values


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="fsbench-rocket",
        description="Reproduce the experiments of 'Benchmarking File System Benchmarking' (HotOS XIII).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help=(
            "use the paper's full durations and repetition counts (slower; "
            f"{', '.join(PAPER_SCALE_COMMANDS)} only)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="debug-level progress on stderr (result tables stay on stdout)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=LOG_LEVELS,
        help="explicit stderr log level (overrides -v and --quiet)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, each defined once in a parent
    # parser that those subcommands inherit.
    def flag_group() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    testbed = flag_group()
    testbed.add_argument(
        "--scaled-testbed",
        type=_testbed_fraction,
        default=None,
        metavar="FRACTION",
        help="shrink the simulated machine by this factor (e.g. 0.125)",
    )
    execution = flag_group()
    execution.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=1,
        metavar="N",
        help="worker processes for the fan-out (0 = one per CPU; default 1, serial)",
    )
    execution.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist measured cells here and skip them on re-runs (default: no cache)",
    )
    no_cache = flag_group()
    no_cache.add_argument(
        "--no-cache", action="store_true", help="ignore --cache-dir and measure everything fresh"
    )
    quick = flag_group()
    quick.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: shorter protocol, smaller filesets and aging, fewer repetitions",
    )
    pack = flag_group()
    pack.add_argument(
        "--pack",
        action="append",
        default=[],
        metavar="PACK",
        help="attach a packed result artifact (.frpack) as a read-through "
        "cache tier (repeatable; see 'fsbench-rocket results')",
    )
    fs_list = flag_group()
    fs_list.add_argument(
        "--fs",
        action="append",
        choices=DEFAULT_FS_TYPES,
        help="file systems to measure (repeatable; default: the command's own set)",
    )
    fs_ext2, fs_ext4 = flag_group(), flag_group()
    for group, default in ((fs_ext2, "ext2"), (fs_ext4, "ext4")):
        group.add_argument("--fs", default=default, choices=DEFAULT_FS_TYPES)
    single_cell = flag_group()
    single_cell.add_argument(
        "--axis",
        action="append",
        type=_parse_axis,
        default=[],
        metavar="NAME=VALUE",
        help=(
            "pin one grid axis (repeatable); every axis must resolve to a single "
            "value -- tracing explains exactly one cell"
        ),
    )

    run_cmd = subparsers.add_parser(
        "run",
        parents=[testbed, execution, no_cache, pack],
        help="run a declarative experiment grid (--axis NAME=V1,V2 per dimension)",
    )
    run_cmd.add_argument(
        "--axis",
        action="append",
        type=_parse_axis,
        default=[],
        metavar="NAME=V1[,V2...]",
        help=(
            "add one grid axis (repeatable): fs/workload/device/scheduler by "
            "registry name, cache_mb in MiB, snapshot paths ('fresh' = no "
            "snapshot), seed with a..b ranges, or any BenchmarkConfig field"
        ),
    )
    run_cmd.add_argument(
        "--name", default="cli-run", help="experiment name recorded in the result frame"
    )
    run_cmd.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the tidy result frame here (.csv writes CSV, anything else JSONL)",
    )
    run_cmd.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines on stderr"
    )
    run_cmd.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="write the executor's per-unit lifecycle event log (JSONL) here "
        "and profile wall-clock phases; render it with 'fsbench-rocket report'",
    )

    subparsers.add_parser(
        "list",
        help="list registered filesystems, workloads, devices, schedulers and experiments",
    )

    report_cmd = subparsers.add_parser(
        "report",
        help="render campaign health (stage breakdown, cache efficiency, "
        "worker utilization) from a telemetry JSONL file",
    )
    report_cmd.add_argument(
        "telemetry", metavar="TELEMETRY.jsonl", help="event log written by 'run --telemetry'"
    )
    report_cmd.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="how many slowest cells to list (default 5)",
    )

    bench_diff_cmd = subparsers.add_parser(
        "bench-diff",
        help="compare two benchmark-timing JSON files; non-zero exit when a "
        "shared benchmark regressed beyond the threshold",
    )
    bench_diff_cmd.add_argument("old", metavar="OLD.json", help="baseline bench JSON")
    bench_diff_cmd.add_argument("new", metavar="NEW.json", help="candidate bench JSON")
    bench_diff_cmd.add_argument(
        "--threshold",
        type=_nonnegative_float,
        default=None,
        metavar="FRACTION",
        help="allowed mean-time growth before a benchmark counts as regressed "
        "(default 0.5, i.e. 1.5x)",
    )
    bench_diff_cmd.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0 (CI advisory mode)",
    )

    lint_cmd = subparsers.add_parser(
        "lint",
        help="statically check the determinism contracts (wall-clock/entropy "
        "bans, snapshot completeness, one result-payload encoder)",
    )
    lint_cmd.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="source tree to analyze (default: the installed repro package)",
    )
    lint_cmd.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="lint.toml with rule options and justified suppressions "
        "(default: ./lint.toml, then <project>/lint.toml)",
    )
    lint_cmd.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="human table (default) or machine-readable JSON findings",
    )

    trace_cmd = subparsers.add_parser(
        "trace",
        parents=[single_cell, testbed],
        help="run one cell with tracing on; export span events and the latency attribution",
    )
    trace_cmd.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the trace events as JSON Lines here",
    )
    trace_cmd.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON here (open in chrome://tracing or Perfetto)",
    )

    explain_cmd = subparsers.add_parser(
        "explain",
        parents=[single_cell, testbed, pack],
        help="re-derive the per-layer latency attribution of a (cached) cell",
    )
    explain_cmd.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "result cache holding the cell (the explained measurement is "
            "checked bit-for-bit against the cached entry; a missing entry "
            "is measured and stored first)"
        ),
    )

    for name in PAPER_SCALE_COMMANDS:
        subparsers.add_parser(
            name, parents=[fs_list if name == "figure2" else fs_ext2], help=f"regenerate {name}"
        )
    table1 = subparsers.add_parser(
        "table1", parents=[fs_list, quick, testbed, execution], help="regenerate table1"
    )
    table1.add_argument(
        "--measured",
        action="store_true",
        help="also run the measured survey counterpart across the full file-system grid",
    )

    suite = subparsers.add_parser(
        "suite",
        parents=[fs_list, quick, testbed, execution, no_cache],
        help="run the multi-dimensional nano-benchmark suite",
    )
    survey = subparsers.add_parser(
        "survey",
        parents=[fs_list, quick, testbed, execution, no_cache],
        help="measure every evaluation dimension across file systems (Table 1's executable counterpart)",
    )
    for sub in (suite, survey):
        sub.add_argument(
            "--device",
            default=None,
            choices=DEVICE_CHOICES,
            help="device model kind (choices come from DEVICE_REGISTRY; default: the testbed's hdd)",
        )
        sub.add_argument(
            "--scheduler",
            default=None,
            choices=SCHEDULER_CHOICES,
            help="block-layer I/O scheduler (choices come from SCHEDULER_REGISTRY)",
        )
        sub.add_argument(
            "--snapshot",
            default=None,
            metavar="PATH",
            help="start every repetition from this aged state snapshot (see the 'age' command)",
        )

    ssd_steady = subparsers.add_parser(
        "ssd-steady",
        parents=[fs_ext4, quick, testbed, execution],
        help="measure fresh-out-of-box vs preconditioned (steady-state) SSD divergence",
    )
    ssd_steady.add_argument(
        "--workload",
        default="postmark",
        help="workload registry name to measure on both device states",
    )

    scalability = subparsers.add_parser(
        "scalability",
        parents=[fs_ext4, quick, testbed, execution],
        help="sweep concurrent clients over fresh, aged and steady-SSD stacks",
    )
    scalability.add_argument(
        "--workload",
        default=None,
        help="workload registry name (default: the built-in scale-mix personality)",
    )
    scalability.add_argument(
        "--clients",
        type=_client_counts,
        default=(1, 2, 4),
        metavar="N,N,...",
        help="comma-separated client counts to sweep (default 1,2,4)",
    )
    scalability.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help="reuse/write the aged snapshot here (default: a private temp directory)",
    )

    from repro.store.commands import add_store_subparsers

    add_store_subparsers(subparsers)

    age = subparsers.add_parser(
        "age",
        parents=[fs_ext2, quick, testbed],
        help="age a file system and save the state as a reproducible snapshot",
    )
    age.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="snapshot destination (default: aged-<fs>.snapshot.json)",
    )
    age.add_argument(
        "--seed", type=int, default=777, help="seed of the aging churn (default 777)"
    )
    age.add_argument(
        "--compare",
        action="store_true",
        help="also run the aged-vs-fresh comparison benchmark and report the delta",
    )
    return parser


def _usage_error(message) -> int:
    """Report a usage error on stderr; returns the exit status, 2."""
    print(f"fsbench-rocket: error: {message}", file=sys.stderr)
    return 2


def _testbed(args, default):
    """The ``--scaled-testbed`` machine, or ``default`` without the flag."""
    if args.scaled_testbed is not None:
        return scaled_testbed(args.scaled_testbed)
    return default


def _axes(args) -> dict:
    """``--axis`` flags as a grid, with the default fs and workload filled in."""
    axes = {}
    for name, values in args.axis:
        axes.setdefault(name, []).extend(values)
    axes.setdefault("fs", ["ext2"])
    axes.setdefault("workload", ["random-read-cached"])
    return axes


def _run_list(args) -> int:
    """The ``list`` subcommand: every name the experiment grid resolves."""
    from repro.experiments import EXPERIMENT_REGISTRY
    from repro.fs.stack import FS_REGISTRY
    from repro.storage.config import DEVICE_REGISTRY
    from repro.storage.device import SCHEDULER_REGISTRY
    from repro.workloads import WORKLOAD_REGISTRY

    testbed = paper_testbed()
    print("File systems (axis 'fs'):")
    for name in FS_REGISTRY:
        print(f"  {name}")
    print()
    print("Workloads (axis 'workload'):")
    for name, factory in WORKLOAD_REGISTRY.items():
        try:
            description = factory(testbed).description
        except Exception as error:  # registry entries are user-extensible
            description = f"(factory failed: {error})"
        print(f"  {name:<20} {description}")
    print()
    print("Devices (axis 'device'):")
    for name in DEVICE_REGISTRY:
        print(f"  {name}")
    print()
    print("I/O schedulers (axis 'scheduler'):")
    for name in SCHEDULER_REGISTRY:
        print(f"  {name}")
    print()
    print("Experiments (subcommands; shims over the Experiment API):")
    for name, (_, description) in EXPERIMENT_REGISTRY.items():
        print(f"  {name:<15} {description}")
    print()
    print(
        "Compose axes freely: fsbench-rocket run --axis fs=ext2,ext4 "
        "--axis workload=postmark --axis seed=0..4 --out results.jsonl"
    )
    return 0


def _run_lint(args) -> int:
    """The ``lint`` subcommand: machine-check the determinism contracts."""
    from pathlib import Path

    import repro
    from repro.lint import LintConfigError, run_lint

    root = Path(args.root or Path(repro.__file__).parent).resolve()
    if not root.is_dir():
        return _usage_error(f"lint --root {args.root} is not a directory")
    project_root = root
    for ancestor in (root, *root.parents):
        if (ancestor / "lint.toml").exists() or (ancestor / ".git").exists():
            project_root = ancestor
            break
    config_path = Path(args.config) if args.config else None
    if config_path is None:
        for candidate in (Path.cwd() / "lint.toml", Path(project_root) / "lint.toml"):
            if candidate.exists():
                config_path = candidate
                break
    try:
        report = run_lint(root, config_path=config_path, project_root=project_root)
    except LintConfigError as error:
        print(f"fsbench-rocket: lint config error: {error}", file=sys.stderr)
        return 2
    print(report.to_json() if args.format == "json" else report.to_table())
    return report.exit_code


def _run_experiment(args) -> int:
    """The ``run`` subcommand: declare a grid, stream progress, emit a frame."""
    cache_dir = None if args.no_cache else args.cache_dir
    if args.pack:
        # Open each pack once up front so an unreadable or corrupt
        # artifact is a clean usage error, not a mid-run traceback.
        from repro.store.format import StoreError
        from repro.store.reader import PackReader

        try:
            for pack_path in args.pack:
                PackReader(pack_path).close()
        except (StoreError, OSError) as error:
            return _usage_error(error)
    sink = None
    if args.telemetry:
        from repro.obs import TelemetrySink

        sink = TelemetrySink(args.telemetry)
    try:
        experiment = Experiment(
            grid=ParameterGrid(_axes(args)),
            name=args.name,
            testbed=_testbed(args, paper_testbed()),
            n_workers=args.workers,
            cache_dir=cache_dir,
            pack_paths=tuple(args.pack),
            telemetry=sink,
        )
        cells = experiment.cells()
    except (ValueError, TypeError, AttributeError, OSError) as error:
        # Bad axis names/values (including wrongly-typed config overrides,
        # which surface as AttributeError from validate()) and unreadable
        # snapshots are usage errors; fail before any measurement starts.
        if sink is not None:
            sink.close()
        return _usage_error(error)

    import os

    from repro.obs import ProgressReporter

    reporter = ProgressReporter(
        total_units=sum(len(cell.seeds) for cell in cells),
        total_cells=len(cells),
        n_workers=args.workers or (os.cpu_count() or 1),
        sink=sink,
        emit=lambda line: logger.info("%s", line),
    )

    logger.info("%s", experiment.describe())
    try:
        outcome = experiment.run(
            on_unit=reporter.unit_done, on_cell=reporter.cell_done
        )
    finally:
        if sink is not None:
            sink.close()
    print(outcome.render())
    if args.out:
        if args.out.endswith(".csv"):
            outcome.frame.to_csv(args.out)
        else:
            outcome.frame.to_jsonl(args.out)
        print(f"wrote {len(outcome.frame)} records -> {args.out}")
    if sink is not None:
        print(f"wrote {sink.total_events} telemetry events -> {args.telemetry}")
    return 0


def _single_cell(args, name: str):
    """Resolve ``--axis`` flags into the one experiment cell they name.

    Shared by ``trace`` and ``explain``, which attribute one measurement at
    a time.  An axis with several values is a usage error, not an implicit
    loop -- a ``seed`` axis included: its values pool into one cell's
    repetitions, of which only the first would be measured.
    """
    axes = _axes(args)
    multi_valued = [axis_name for axis_name, values in axes.items() if len(values) > 1]
    if multi_valued:
        raise ValueError(
            f"{name} measures one repetition, but --axis {', '.join(multi_valued)} "
            "names several values; pin every --axis to a single value"
        )
    testbed = _testbed(args, paper_testbed())
    (cell,) = Experiment(grid=ParameterGrid(axes), name=name, testbed=testbed).cells()
    return cell


def _print_attribution(label: str, attribution) -> None:
    """The per-layer latency attribution of one cell, then its per-client view."""
    from repro.obs import render_attribution, render_client_attribution

    print(render_attribution(attribution, title=f"{label}: latency attribution"))
    per_client = render_client_attribution(attribution)
    if per_client:
        print()
        print(per_client)


def _run_trace(args) -> int:
    """The ``trace`` subcommand: one traced run, exported events, attribution."""
    import json

    from repro.obs import chrome_trace, run_unit_traced, write_jsonl

    try:
        cell = _single_cell(args, "trace")
    except (ValueError, TypeError, AttributeError, OSError) as error:
        return _usage_error(error)
    unit = cell.work_units()[0]
    logger.info("tracing %s (effective seed %d)", cell.label, unit.seed)
    run = run_unit_traced(unit)
    events = run.trace_events or []
    if args.out:
        with open(args.out, "w") as handle:
            count = write_jsonl(events, handle)
        print(f"wrote {count} trace events -> {args.out}")
    if args.chrome:
        with open(args.chrome, "w") as handle:
            json.dump(chrome_trace(events), handle)
        print(f"wrote Chrome trace -> {args.chrome}")
    _print_attribution(cell.label, run.attribution)
    return 0


def _run_explain(args) -> int:
    """The ``explain`` subcommand: attribution for a cached cell, verified.

    The cached entry (measured first if absent) is the reference; the cell is
    re-run traced and the two payloads must match bit-for-bit -- the CLI face
    of the non-perturbation guarantee.
    """
    from repro.core.parallel import ResultCache, execute_unit
    from repro.obs import payloads_match, run_unit_traced

    try:
        cell = _single_cell(args, "explain")
    except (ValueError, TypeError, AttributeError, OSError) as error:
        return _usage_error(error)
    unit = cell.work_units()[0]
    key = unit.key()
    cache = None
    if args.cache_dir or args.pack:
        from repro.store.format import StoreError

        try:
            cache = ResultCache(args.cache_dir, pack_paths=tuple(args.pack))
        except (StoreError, OSError) as error:
            return _usage_error(error)
    try:
        reference = cache.get(key) if cache is not None else None
        if reference is None:
            logger.info("cell %s not cached; measuring the reference now", cell.label)
            reference = execute_unit(unit)
            if cache is not None:
                cache.put(key, reference)
        else:
            logger.info("explaining cached cell %s", cell.label)
    finally:
        if cache is not None:
            cache.close()
    traced = run_unit_traced(unit)
    if not payloads_match(reference, traced):
        print(
            "fsbench-rocket: error: the traced re-run diverged from the "
            "reference measurement (tracing perturbed the run?)",
            file=sys.stderr,
        )
        return 1
    print(
        f"{cell.label}: traced re-run is bit-identical to the reference "
        f"measurement (key {key[:12]}...)"
    )
    print()
    _print_attribution(cell.label, traced.attribution)
    return 0


def _run_report(args) -> int:
    """The ``report`` subcommand: campaign health from a telemetry JSONL."""
    from repro.obs import load_events, render_report

    try:
        events = load_events(args.telemetry)
    except (OSError, ValueError) as error:
        return _usage_error(error)
    if not events:
        return _usage_error(f"{args.telemetry}: no telemetry events")
    print(render_report(events, top=args.top))
    return 0


def _run_bench_diff(args) -> int:
    """The ``bench-diff`` subcommand: the benchmark-regression gate."""
    from repro.obs import diff_files
    from repro.obs.benchdiff import DEFAULT_THRESHOLD

    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    try:
        diff = diff_files(args.old, args.new, threshold=threshold)
    except (OSError, ValueError, KeyError, TypeError) as error:
        return _usage_error(error)
    print(diff.render())
    if diff.exit_code and args.warn_only:
        logger.warning("regressions beyond threshold, but --warn-only requested: exit 0")
        return 0
    return diff.exit_code


def _run_age(args) -> int:
    """The ``age`` subcommand: age, snapshot, optionally compare."""
    from repro.aging import (
        AgingConfig,
        ChurnAger,
        quick_aging_config,
        run_aged_vs_fresh,
        save_snapshot,
        snapshot_stack,
    )
    from repro.fs.stack import build_stack

    testbed = _testbed(args, paper_testbed())
    aging = quick_aging_config(seed=args.seed) if args.quick else AgingConfig(seed=args.seed)
    out = args.out if args.out else f"aged-{args.fs}.snapshot.json"

    if args.compare:
        import shutil
        import tempfile

        # The experiment names its snapshots itself; give it a private
        # directory so nothing alongside --out can be clobbered, then move
        # the produced snapshot to the requested destination.
        with tempfile.TemporaryDirectory(prefix="fsbench-age-") as scratch:
            result = run_aged_vs_fresh(
                fs_types=(args.fs,),
                testbed=testbed,
                aging=aging,
                quick=args.quick,
                snapshot_dir=scratch,
            )
            cell = result.cells[args.fs]
            shutil.move(cell.snapshot_path, out)
            cell.snapshot_path = out
        print(cell.aging.render())
        print()
        print(result.render())
        return 0

    stack = build_stack(args.fs, testbed=testbed, seed=aging.seed)
    result = ChurnAger(aging).age(stack)
    snapshot = snapshot_stack(stack)
    save_snapshot(snapshot, out)
    print(result.render())
    print(f"Saved {snapshot.describe()}")
    print(f"  -> {out}")
    print(
        "Replay any benchmark from this exact state with "
        f"'fsbench-rocket suite --fs {args.fs} --snapshot {out}'."
    )
    return 0


def _run_figure(args) -> int:
    """``figure1``-``figure4`` and ``zoom``: one of the paper's figures."""
    scale = paper_scale() if args.paper_scale else default_scale()
    harness = {
        "figure1": lambda: run_figure1(fs_type=args.fs, scale=scale),
        # Figure 2 reproduces the paper's curve, so its default grid stays
        # the paper's trio; ext4 joins on request via --fs.
        "figure2": lambda: run_figure2(
            fs_types=tuple(args.fs) if args.fs else ("ext2", "ext3", "xfs"), scale=scale
        ),
        "figure3": lambda: run_figure3(fs_type=args.fs, scale=scale),
        "figure4": lambda: run_figure4(fs_type=args.fs, scale=scale),
        "zoom": lambda: run_transition_zoom(fs_type=args.fs, scale=scale),
    }[args.command]
    print(harness().render())
    return 0


def _run_table1(args) -> int:
    """The ``table1`` subcommand: the literature survey, optionally measured."""
    if not args.measured and (
        args.fs
        or args.quick
        or args.scaled_testbed is not None
        or args.workers != 1
        or args.cache_dir is not None
    ):
        # These flags only configure the measured counterpart; silently
        # ignoring them would look like the measurement ran.
        return _usage_error(
            "--fs/--quick/--scaled-testbed/--workers/--cache-dir require --measured"
        )
    measured_fs_types = None
    if args.measured:
        measured_fs_types = tuple(args.fs) if args.fs else DEFAULT_FS_TYPES
    result = run_table1(
        measured_fs_types=measured_fs_types,
        testbed=_testbed(args, None),
        quick=args.quick,
        n_workers=args.workers,
        cache_dir=args.cache_dir,
    )
    print(result.render())
    return 0


def _run_device_sweep(args) -> int:
    """``ssd-steady`` and ``scalability``: one workload across device states."""
    common = dict(
        fs_type=args.fs,
        workload=args.workload,
        testbed=_testbed(args, paper_testbed()),
        quick=args.quick,
        n_workers=args.workers,
        cache_dir=args.cache_dir,
    )
    harness = {
        "ssd-steady": lambda: run_fresh_vs_steady(**common),
        "scalability": lambda: run_scalability(
            clients=args.clients, snapshot_dir=args.snapshot_dir, **common
        ),
    }[args.command]
    try:
        result = harness()
    except ValueError as error:
        # Unknown workload names are usage errors, not tracebacks.
        return _usage_error(error)
    print(result.render())
    return 0


def _run_suite(args) -> int:
    """``suite`` and ``survey``: the nano-benchmark suite across file systems."""
    fs_types = tuple(args.fs) if args.fs else DEFAULT_FS_TYPES
    testbed = _testbed(args, paper_testbed())
    if args.device is not None:
        testbed = replace(testbed, device_kind=args.device)
    if args.scheduler is not None:
        testbed = replace(testbed, io_scheduler=args.scheduler)
    testbed.validate()
    if args.snapshot is not None:
        # Validate the snapshot up front so a bad path or a file-system
        # mismatch is a clean usage error; failures later in the run
        # (cache I/O, worker errors) still propagate with tracebacks.
        from repro.aging.snapshot import load_snapshot_cached

        try:
            snapshot_fs = load_snapshot_cached(args.snapshot).fs_type
        except (OSError, ValueError) as error:
            return _usage_error(error)
        if any(fs != snapshot_fs for fs in fs_types):
            return _usage_error(
                f"snapshot {args.snapshot} holds {snapshot_fs!r} state; run with --fs {snapshot_fs}"
            )
    options = dict(
        testbed=testbed,
        quick=args.quick,
        n_workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        snapshot_path=args.snapshot,
    )
    render = {
        "suite": lambda: suite_report(NanoBenchmarkSuite(**options).run(fs_types)),
        "survey": lambda: MeasuredSurvey(**options).run(fs_types).render(),
    }[args.command]
    print(render())
    return 0


def _run_store(args) -> int:
    """``results`` and ``cache``: the packed result store's verbs."""
    from repro.store.commands import run_cache, run_results

    return {"results": run_results, "cache": run_cache}[args.command](args)


#: Subcommand -> handler.  A handler shared by several subcommands picks its
#: harness by ``args.command``; every handler looks the harnesses up as module
#: globals when it is called.
COMMANDS = {
    "run": _run_experiment,
    "list": _run_list,
    "report": _run_report,
    "bench-diff": _run_bench_diff,
    "lint": _run_lint,
    "trace": _run_trace,
    "explain": _run_explain,
    "figure1": _run_figure,
    "figure2": _run_figure,
    "figure3": _run_figure,
    "figure4": _run_figure,
    "zoom": _run_figure,
    "table1": _run_table1,
    "suite": _run_suite,
    "survey": _run_suite,
    "ssd-steady": _run_device_sweep,
    "scalability": _run_device_sweep,
    "results": _run_store,
    "cache": _run_store,
    "age": _run_age,
}

#: The commands whose harness takes an ``ExperimentScale``; ``--paper-scale``
#: with any other command is a usage error.
PAPER_SCALE_COMMANDS = tuple(name for name, run in COMMANDS.items() if run is _run_figure)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    _configure_logging(args)
    if args.paper_scale and args.command not in PAPER_SCALE_COMMANDS:
        # Only these harnesses take a scale; silently ignoring the flag
        # would look like the paper's protocol ran.
        return _usage_error(
            f"--paper-scale applies only to {', '.join(PAPER_SCALE_COMMANDS)}, "
            f"not {args.command}"
        )
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
