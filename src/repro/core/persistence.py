"""Saving and loading benchmark results.

"In the interest of full disclosure, let's report a range of values that span
multiple dimensions" -- which only works if results can leave the machine
they were measured on.  This module serialises one
:class:`~repro.core.results.RunResult` (one repetition) to plain JSON: the
loose entries of the result cache (:mod:`repro.core.parallel`) are such
documents, and the payloads of packed result artifacts (:mod:`repro.store`)
are the same documents in compact form.  Repetition sets and sweeps are not
archived on their own; they are rebuilt from runs, and a campaign is kept as
a result frame or a pack (``fsbench-rocket results merge`` unions shards).

The format is intentionally boring: a top-level ``format``/``version``/``kind``
header, then nested dictionaries mirroring the dataclass.  Histograms are
stored as their bucket counts, timelines as per-interval operation/byte/latency
arrays; everything needed by the analysis and reporting layers round-trips
exactly.
"""

from __future__ import annotations

import json
from typing import Dict, TextIO, Union

from repro.core.histogram import LatencyHistogram
from repro.core.results import RunResult
from repro.core.timeline import HistogramTimeline, IntervalSeries

FORMAT_NAME = "fsbench-rocket-results"
FORMAT_VERSION = 1


# --------------------------------------------------------------------------- encode
def _histogram_to_dict(histogram: LatencyHistogram) -> Dict:
    return {
        "counts": list(histogram.counts),
        "total": histogram.total,
        "sum_ns": histogram.sum_ns,
        "min_ns": histogram.min_ns if histogram.total else None,
        "max_ns": histogram.max_ns,
    }


def _timeline_to_dict(series: IntervalSeries) -> Dict:
    return {
        "interval_s": series.interval_s,
        "origin_ns": series.origin_ns,
        "ops": list(series._ops),
        "bytes": list(series._bytes),
        "latency_sums": list(series._latency_sums),
    }


def _histogram_timeline_to_dict(timeline: HistogramTimeline) -> Dict:
    return {
        "interval_s": timeline.interval_s,
        "origin_ns": timeline.origin_ns,
        "buckets": timeline.buckets,
        "histograms": [_histogram_to_dict(histogram) for histogram in timeline.histograms()],
    }


def run_result_to_dict(run: RunResult) -> Dict:
    """Serialise one :class:`RunResult` to a JSON-compatible dictionary.

    ``client_metrics`` is written only when present (multi-client runs), so
    every legacy single-client payload -- including each entry of the
    parallel executor's result cache -- stays byte-identical.

    ``attribution`` and ``trace_events`` (see :mod:`repro.obs`) are
    deliberately **never** serialised: they are derived evidence,
    reproducible on demand by re-running the same unit traced, and keeping
    them out of the payload is what makes traced and untraced runs
    byte-identical on disk (and lets them share one cache entry).  The keys
    below are enumerated explicitly -- not reflected from the dataclass --
    precisely so new in-memory fields stay out of the format by default.
    """
    payload = {
        "workload_name": run.workload_name,
        "fs_name": run.fs_name,
        "repetition": run.repetition,
        "seed": run.seed,
        "measured_duration_s": run.measured_duration_s,
        "warmup_duration_s": run.warmup_duration_s,
        "operations": run.operations,
        "throughput_ops_s": run.throughput_ops_s,
        "cache_hit_ratio": run.cache_hit_ratio,
        "device_reads": run.device_reads,
        "device_writes": run.device_writes,
        "bytes_read": run.bytes_read,
        "bytes_written": run.bytes_written,
        "environment": dict(run.environment),
        "histogram": _histogram_to_dict(run.histogram),
        "timeline": _timeline_to_dict(run.timeline),
        "histogram_timeline": (
            _histogram_timeline_to_dict(run.histogram_timeline)
            if run.histogram_timeline is not None
            else None
        ),
        "raw_latencies_ns": list(run.raw_latencies_ns) if run.raw_latencies_ns is not None else None,
    }
    if run.client_metrics is not None:
        payload["client_metrics"] = [dict(row) for row in run.client_metrics]
    return payload


# --------------------------------------------------------------------------- decode
def _histogram_from_dict(payload: Dict) -> LatencyHistogram:
    histogram = LatencyHistogram(buckets=len(payload["counts"]))
    histogram.counts = [int(count) for count in payload["counts"]]
    histogram.total = int(payload["total"])
    histogram.sum_ns = float(payload["sum_ns"])
    histogram.max_ns = float(payload["max_ns"])
    minimum = payload.get("min_ns")
    histogram.min_ns = float(minimum) if minimum is not None else float("inf")
    return histogram


def _timeline_from_dict(payload: Dict) -> IntervalSeries:
    series = IntervalSeries(interval_s=payload["interval_s"], origin_ns=payload["origin_ns"])
    series._ops = [int(value) for value in payload["ops"]]
    series._bytes = [int(value) for value in payload["bytes"]]
    series._latency_sums = [float(value) for value in payload["latency_sums"]]
    return series


def _histogram_timeline_from_dict(payload: Dict) -> HistogramTimeline:
    timeline = HistogramTimeline(
        interval_s=payload["interval_s"], buckets=payload["buckets"], origin_ns=payload["origin_ns"]
    )
    timeline._histograms = [_histogram_from_dict(entry) for entry in payload["histograms"]]
    return timeline


def run_result_from_dict(payload: Dict) -> RunResult:
    """Reconstruct a :class:`RunResult` from its dictionary form."""
    histogram_timeline = payload.get("histogram_timeline")
    raw = payload.get("raw_latencies_ns")
    clients = payload.get("client_metrics")
    return RunResult(
        workload_name=payload["workload_name"],
        fs_name=payload["fs_name"],
        repetition=int(payload["repetition"]),
        seed=int(payload["seed"]),
        measured_duration_s=float(payload["measured_duration_s"]),
        warmup_duration_s=float(payload["warmup_duration_s"]),
        operations=int(payload["operations"]),
        throughput_ops_s=float(payload["throughput_ops_s"]),
        histogram=_histogram_from_dict(payload["histogram"]),
        timeline=_timeline_from_dict(payload["timeline"]),
        histogram_timeline=(
            _histogram_timeline_from_dict(histogram_timeline) if histogram_timeline else None
        ),
        raw_latencies_ns=[float(value) for value in raw] if raw is not None else None,
        cache_hit_ratio=float(payload["cache_hit_ratio"]),
        device_reads=int(payload["device_reads"]),
        device_writes=int(payload["device_writes"]),
        bytes_read=int(payload["bytes_read"]),
        bytes_written=int(payload["bytes_written"]),
        environment={key: float(value) for key, value in payload["environment"].items()},
        client_metrics=(
            [{key: float(value) for key, value in row.items()} for row in clients]
            if clients is not None
            else None
        ),
    )


# --------------------------------------------------------------------------- files
def _wrap(kind: str, payload: Dict) -> Dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "data": payload,
    }


def _unwrap(document: Dict, expected_kind: str) -> Dict:
    if document.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document")
    if int(document.get("version", -1)) > FORMAT_VERSION:
        raise ValueError(
            f"result file version {document.get('version')} is newer than supported ({FORMAT_VERSION})"
        )
    if document.get("kind") != expected_kind:
        raise ValueError(f"expected a {expected_kind!r} document, found {document.get('kind')!r}")
    return document["data"]


def _write(document: Dict, destination: Union[str, TextIO]) -> None:
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
    else:
        json.dump(document, destination, indent=2, sort_keys=True)


def _read(source: Union[str, TextIO]) -> Dict:
    if isinstance(source, str):
        with open(source, "r") as handle:
            return json.load(handle)
    return json.load(source)


def canonical_run_payload(run: RunResult) -> bytes:
    """The canonical byte encoding of one run, as stored in a result pack.

    This is the same wrapped document :func:`save_run_result` writes, dumped
    compactly with sorted keys: a pure function of the run's serialised
    fields, so equal runs always produce equal bytes.  The packed store
    (:mod:`repro.store`) leans on that for its dedup/conflict rule -- a cache
    key may appear in two shards only with byte-identical payloads -- which
    is why every pack writer must funnel through here rather than invent its
    own encoder (enforced by lint rule KEY002).
    """
    document = _wrap("run_result", run_result_to_dict(run))
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def run_from_payload(payload: bytes) -> RunResult:
    """Reconstruct a run from its :func:`canonical_run_payload` bytes."""
    return run_result_from_dict(_unwrap(json.loads(payload.decode("utf-8")), "run_result"))


def save_run_result(run: RunResult, destination: Union[str, TextIO]) -> None:
    """Write a single run (one repetition) to a JSON file or file object.

    This is the storage format of the parallel executor's result cache
    (:mod:`repro.core.parallel`): one file per measured cell.
    """
    _write(_wrap("run_result", run_result_to_dict(run)), destination)


def load_run_result(source: Union[str, TextIO]) -> RunResult:
    """Read a single run written by :func:`save_run_result`."""
    return run_result_from_dict(_unwrap(_read(source), "run_result"))
