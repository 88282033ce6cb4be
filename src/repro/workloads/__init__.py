"""Workload model and generators.

The paper's survey (Table 1) shows that most published evaluations either use
ad-hoc workload generators or macro-benchmarks whose dimension coverage is
unclear.  This subpackage provides:

* a small workload-description language (:mod:`repro.workloads.spec`) in the
  spirit of Filebench's flowops,
* fileset construction (:mod:`repro.workloads.fileset`) and random
  distributions (:mod:`repro.workloads.randomdist`),
* micro/nano workloads that isolate single dimensions
  (:mod:`repro.workloads.micro`),
* Filebench-like macro personalities (:mod:`repro.workloads.personalities`),
* trace capture/replay (:mod:`repro.workloads.trace`), and
* ``WORKLOAD_REGISTRY`` (:mod:`repro.workloads.registry`): the name->factory
  resolver behind the experiment grid's ``workload`` axis, mirroring
  ``FS_REGISTRY``, and home of the PostMark transaction mix
  (:func:`~repro.workloads.registry.postmark_workload`).
"""

from repro.workloads.fileset import FilesetSpec, MaterializedFileset
from repro.workloads.micro import (
    append_workload,
    create_delete_workload,
    metadata_mix_workload,
    random_read_workload,
    random_write_workload,
    sequential_read_workload,
    sequential_write_workload,
    stat_workload,
)
from repro.workloads.personalities import (
    fileserver_personality,
    oltp_personality,
    varmail_personality,
    webserver_personality,
)
from repro.workloads.randomdist import FixedValue, LogNormalSizes, UniformSizes
from repro.workloads.spec import (
    FileSelector,
    FlowOp,
    OffsetMode,
    OpRecord,
    OpType,
    WorkloadEngine,
    WorkloadSpec,
)
from repro.workloads.trace import TraceRecord, TraceRecorder, TraceReplayer, load_trace, save_trace
from repro.workloads.registry import WORKLOAD_REGISTRY, postmark_workload, register_workload

__all__ = [
    "WORKLOAD_REGISTRY",
    "postmark_workload",
    "register_workload",
    "FilesetSpec",
    "MaterializedFileset",
    "append_workload",
    "create_delete_workload",
    "metadata_mix_workload",
    "random_read_workload",
    "random_write_workload",
    "sequential_read_workload",
    "sequential_write_workload",
    "stat_workload",
    "fileserver_personality",
    "oltp_personality",
    "varmail_personality",
    "webserver_personality",
    "FixedValue",
    "LogNormalSizes",
    "UniformSizes",
    "FileSelector",
    "FlowOp",
    "OffsetMode",
    "OpRecord",
    "OpType",
    "WorkloadEngine",
    "WorkloadSpec",
    "TraceRecord",
    "TraceRecorder",
    "TraceReplayer",
    "load_trace",
    "save_trace",
]
