#!/usr/bin/env python3
"""Record a workload as a shareable trace and replay it on other file systems.

The paper notes that trace-based evaluation is popular but irreproducible
because the traces are rarely published.  This example shows the workflow the
framework supports instead: run any workload once while recording a trace,
save the trace to a plain-text file anyone can redistribute, then replay it
bit-for-bit on different file systems and compare them on *identical* input.

::

    python examples/trace_replay_demo.py --quick
"""

from __future__ import annotations

import argparse
import tempfile

from repro.core.stats import summarize
from repro.fs.stack import build_stack
from repro.storage.config import paper_testbed, scaled_testbed
from repro.workloads import (
    OpType,
    TraceRecorder,
    TraceReplayer,
    WorkloadEngine,
    load_trace,
    postmark_workload,
    save_trace,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run on a 1/8-scale machine")
    args = parser.parse_args(argv)

    testbed = scaled_testbed(0.125) if args.quick else paper_testbed()
    operations = 200 if args.quick else 1000

    # 1. Run PostMark once on ext2, recording every operation.
    source = build_stack("ext2", testbed=testbed, seed=21)
    executed = []
    engine = WorkloadEngine(source, postmark_workload(file_count=50), on_op=executed.append)
    engine.run(max_ops=operations)
    print(
        f"Recorded source run on ext2: {engine.ops_executed} PostMark operations "
        f"in {source.clock.now_s:.2f} simulated s"
    )

    # The engine's op records carry no path, so the trace maps the recorded
    # reads and appends, in order, onto 20 published files it creates first.
    recorder = TraceRecorder()
    for index in range(20):
        recorder.record(0.0, "create", f"/traced/f{index:03d}")
    data_ops = [record for record in executed if record.op in (OpType.READ, OpType.APPEND)]
    for index, record in enumerate(data_ops):
        offset = 0 if record.op is OpType.READ else 4096
        path = f"/traced/f{index % 20:03d}"
        recorder.record(record.end_time_ns, record.op.value, path, offset, record.bytes_moved)

    with tempfile.NamedTemporaryFile("w", suffix=".trace", delete=False) as handle:
        trace_path = handle.name
        count = save_trace(recorder.records, handle)
    print(f"Saved a {count}-operation trace to {trace_path}\n")

    # 2. Replay the identical trace on each file system and compare honestly.
    records = load_trace(trace_path)
    for fs_type in ("ext2", "ext3", "xfs"):
        stack = build_stack(fs_type, testbed=testbed, seed=99)
        replayer = TraceReplayer(stack, honour_timing=False)
        latencies = replayer.replay(records)
        summary = summarize([latency for latency in latencies if latency > 0])
        print(
            f"{fs_type:>5}: replayed {len(latencies)} ops in {stack.clock.now_s:.2f} simulated s, "
            f"per-op latency {summary.mean / 1000:.1f} us "
            f"(95% CI [{summary.ci95_low / 1000:.1f}, {summary.ci95_high / 1000:.1f}])"
        )
    print(
        "\nBecause every file system replayed the same published trace, the comparison "
        "is reproducible by anyone -- which is what the paper asks trace users to enable."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
