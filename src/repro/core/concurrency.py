"""Deterministic multi-client concurrency in virtual time.

The paper's hidden-state argument does not stop at aged file systems and
preconditioned SSDs: real machines run *contending* workloads, and the I/O
scheduler, the journal's commit batching, delayed allocation and FTL garbage
collection only show their true behaviour under queue pressure.  This module
puts N client sessions on one shared VFS -> file system -> block-device
stack without surrendering the repository's core guarantee -- bit-identical
reproducibility.

There are no threads and no wall clock anywhere.  Each client owns a
*cursor*: the virtual timestamp at which its next operation would issue
(i.e. when its previous operation completed).  The event loop repeatedly
picks the client with the earliest cursor (ties broken by client index),
rewinds the shared :class:`~repro.storage.clock.VirtualClock` to that
cursor, executes exactly one operation via
:meth:`~repro.workloads.spec.WorkloadEngine.step`, and reads the clock back
as the client's new cursor.  Interleaving is therefore a pure function of
simulated completion times: a client whose operation stalls behind the
device queue or a journal commit naturally falls behind, exactly as a
blocked process would on real hardware.

Invariants the loop maintains (see ``docs/architecture.md`` section 7):

* **Issue times are non-decreasing.**  The loop always dispatches the
  minimal cursor, so the clock only ever *rewinds* from the completion time
  of the previous operation back to the (later-or-equal than last issue)
  cursor of the next client.  Shared state that keys off "now" -- the
  device-queue horizon, journal commit deadlines -- observes a monotone
  sequence of issue times.
* **Contention is emergent, not modelled.**  Clients share the page cache,
  the allocator, the journal and the single device queue
  (``VFS._device_busy_until_ns``); queueing delay appears in a client's
  latency because its operation finds the device horizon already pushed out
  by other clients, not because any code special-cases concurrency.
* **Per-client randomness is hash-derived.**  Client ``i`` of a repetition
  with effective seed ``s`` seeds its engine with
  :func:`derive_client_seed`\\ ``(s, i)`` -- a stable BLAKE2b hash, not
  ``s + i``, so client streams neither overlap each other nor collide with
  the ``config.seed + repetition`` arithmetic of neighbouring repetitions.
* **One client keeps the engine's own loop.**  The runner drives every
  client count through one ``run_once``, but a single session runs
  :meth:`~repro.workloads.spec.WorkloadEngine.run`, not :func:`run_window`:
  ``run`` checks the deadline once per round of the spec's threads and this
  loop after every operation, so a multi-threaded workload would end its
  windows at different operations.  The runner builds that one session
  itself, seeded with the repetition's own seed rather than a derived one,
  so ``clients=1`` measurements remain bit-identical to every release
  before the axis existed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.workloads.spec import WorkloadEngine, WorkloadSpec

__all__ = [
    "derive_client_seed",
    "nearest_rank_percentile",
    "client_metrics",
    "client_summary_metrics",
    "ClientSession",
    "per_client_spec",
    "build_sessions",
    "run_window",
]


# ----------------------------------------------------------------- seeding
def derive_client_seed(base_seed: int, client_index: int) -> int:
    """A stable, collision-resistant per-client seed.

    Hashing ``(base_seed, client_index)`` instead of computing
    ``base_seed + client_index`` matters twice over: the runner already uses
    ``config.seed + repetition`` as the effective seed, so additive client
    seeds would make client 1 of repetition 0 replay client 0 of repetition
    1; and adjacent integer seeds feed the Mersenne Twister visibly
    correlated init vectors.  The BLAKE2b digest is part of the determinism
    contract -- changing it changes every multi-client measurement.
    """
    if client_index < 0:
        raise ValueError("client_index must be non-negative")
    message = f"fsbench-client:{int(base_seed)}:{int(client_index)}".encode("ascii")
    digest = hashlib.blake2b(message, digest_size=8).digest()
    # Keep the seed in the non-negative 63-bit range: comfortably inside the
    # exact-integer range of every serializer the results pass through.
    return int.from_bytes(digest, "big") >> 1


# ------------------------------------------------------------- percentiles
def nearest_rank_percentile(values: Sequence[float], pct: float) -> float:
    """Exact nearest-rank percentile of an already *sorted* sample.

    ``rank = ceil(pct / 100 * n)`` (1-based), the textbook nearest-rank
    definition: every returned value is an actual sample, a single-sample
    client reports that sample for every percentile, and ties collapse
    naturally.  This is deliberately *not* the bucket-approximated
    :meth:`~repro.core.histogram.LatencyHistogram.percentile` -- per-client
    samples are small enough to keep exactly.
    """
    if not 0.0 < pct <= 100.0:
        raise ValueError("pct must be in (0, 100]")
    if not values:
        return 0.0
    rank = math.ceil(pct / 100.0 * len(values))
    return float(values[max(0, rank - 1)])


def client_metrics(
    latencies_by_client: Sequence[Sequence[float]], duration_s: float
) -> List[Dict[str, float]]:
    """Per-client scalar metrics from raw measured-window latencies.

    One dictionary per client (index order), each holding the client's
    operation count, throughput over the shared measured window, and exact
    mean/p50/p95/p99 latency.  Pure math over plain sequences so the fixture
    tests can pin hand-computed values.
    """
    rows: List[Dict[str, float]] = []
    for index, latencies in enumerate(latencies_by_client):
        ordered = sorted(float(value) for value in latencies)
        count = len(ordered)
        rows.append(
            {
                "client": float(index),
                "operations": float(count),
                "throughput_ops_s": count / duration_s if duration_s > 0 else 0.0,
                "mean_latency_ns": sum(ordered) / count if count else 0.0,
                "p50_latency_ns": nearest_rank_percentile(ordered, 50.0) if count else 0.0,
                "p95_latency_ns": nearest_rank_percentile(ordered, 95.0) if count else 0.0,
                "p99_latency_ns": nearest_rank_percentile(ordered, 99.0) if count else 0.0,
            }
        )
    return rows


def client_summary_metrics(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Cross-client scalars for the tidy result frame.

    The frame wants one value per metric per repetition, so the per-client
    rows are folded into means (the typical client) and a worst-case p95
    (the unlucky client -- the number a latency SLO would care about).
    """
    if not rows:
        return {}
    count = len(rows)

    def mean(key: str) -> float:
        return sum(row[key] for row in rows) / count

    return {
        "clients": float(count),
        "client_throughput_min_ops_s": min(row["throughput_ops_s"] for row in rows),
        "client_p50_latency_ns": mean("p50_latency_ns"),
        "client_p95_latency_ns": mean("p95_latency_ns"),
        "client_p99_latency_ns": mean("p99_latency_ns"),
        "client_p95_latency_ns_worst": max(row["p95_latency_ns"] for row in rows),
    }


# ---------------------------------------------------------------- sessions
@dataclass
class ClientSession:
    """One client of a run: an engine plus its virtual cursor.

    Attributes
    ----------
    index:
        Zero-based client index (the tie-breaker in the event loop).
    seed:
        The engine's derived seed (see :func:`derive_client_seed`).
    engine:
        The client's :class:`~repro.workloads.spec.WorkloadEngine`, sharing
        the run's single stack with every other session.
    ready_ns:
        The cursor: virtual time at which this client's next operation
        issues (completion time of its previous one).
    operations, latencies_ns:
        Measured-window accounting, filled by the runner's per-session
        callback when there are several clients (not by the event loop,
        which is measurement-agnostic).
    """

    index: int
    seed: int
    engine: WorkloadEngine
    ready_ns: float = 0.0
    operations: int = 0
    latencies_ns: List[float] = field(default_factory=list)


def per_client_spec(spec: WorkloadSpec, client_index: int, clients: int) -> WorkloadSpec:
    """The spec a given client runs: same workload, private fileset namespace.

    Clients contend on the *stack* (cache, allocator, journal, device), not
    on path names: each client gets the fileset renamed into its own
    top-level directory (``<name>.c<i>``) so CREATE/DELETE churn from one
    client can never invalidate another client's file indices.  With one
    client the spec is returned untouched -- byte-identical filesets keep
    ``clients=1`` results identical to the legacy path.
    """
    if clients == 1:
        return spec
    fileset = replace(spec.fileset, name=f"{spec.fileset.name}.c{client_index}")
    return replace(spec, fileset=fileset)


def build_sessions(
    stack, spec: WorkloadSpec, base_seed: int, clients: int
) -> List[ClientSession]:
    """Construct the client sessions of one repetition, in client order.

    Engines are built against the shared ``stack`` with hash-derived seeds;
    filesets are not materialized here (the runner calls ``setup()`` so
    population stays outside any timed window, exactly like the serial
    path).
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    sessions: List[ClientSession] = []
    for index in range(clients):
        seed = derive_client_seed(base_seed, index)
        engine = WorkloadEngine(stack, per_client_spec(spec, index, clients), seed=seed)
        sessions.append(
            ClientSession(index=index, seed=seed, engine=engine, ready_ns=stack.clock.now_ns)
        )
    return sessions


# -------------------------------------------------------------- event loop
def run_window(
    sessions: Sequence[ClientSession],
    clock,
    duration_s: Optional[float] = None,
    max_ops: Optional[int] = None,
    tracer=None,
) -> int:
    """Interleave the sessions for one window of virtual time.

    Repeatedly dispatches the session with the earliest ``ready_ns`` (ties
    broken by client index), rewinding the shared clock to that cursor so
    the operation issues at the right simulated instant, until every cursor
    has crossed the deadline or ``max_ops`` operations have run.  A client
    issues an operation iff its cursor is strictly before the deadline --
    the serial engine's ``run`` loop applies the same rule, but only once
    per round of its threads.

    On return the clock stands at the latest cursor (the window's completion
    time, matching where the serial engine leaves it), and the number of
    executed operations is returned.  The loop itself records nothing:
    measurement hooks stay on the engines' ``on_op`` callbacks.
    """
    if duration_s is None and max_ops is None:
        raise ValueError("provide duration_s, max_ops, or both")
    if not sessions:
        raise ValueError("run_window needs at least one session")

    origin_ns = clock.now_ns
    for session in sessions:
        # A client can never issue before the window opens; cursors from a
        # previous window (warm-up) that lag the shared clock snap forward.
        session.ready_ns = max(session.ready_ns, origin_ns)
    deadline_ns = origin_ns + duration_s * 1e9 if duration_s is not None else None

    executed = 0
    while True:
        if max_ops is not None and executed >= max_ops:
            break
        session = min(sessions, key=lambda s: (s.ready_ns, s.index))
        if deadline_ns is not None and session.ready_ns >= deadline_ns:
            # The earliest cursor is past the deadline, so every cursor is.
            break
        if tracer is not None:
            # Attribute everything the dispatched op charges to this client.
            tracer.current_client = session.index
        clock.reset(session.ready_ns)
        session.engine.step()
        session.ready_ns = clock.now_ns
        executed += 1

    clock.reset(max(session.ready_ns for session in sessions))
    return executed
