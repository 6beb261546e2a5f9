"""Verifiability tooling (Section 6): AMPERe, TAQO, and the q-error
yardstick for estimated-vs-actual cardinalities (the cardinality
estimation test framework, which also gates the feedback loop)."""

from repro.verify.ampere import AMPEReDump, capture_dump, replay_dump
from repro.verify.taqo import TaqoReport, run_taqo, sample_plans
from repro.verify.qerror import (
    QErrorReport,
    WorkloadQError,
    plan_qerror,
    qerror,
    workload_qerror,
)

__all__ = [
    "AMPEReDump",
    "capture_dump",
    "replay_dump",
    "TaqoReport",
    "run_taqo",
    "sample_plans",
    "QErrorReport",
    "WorkloadQError",
    "plan_qerror",
    "qerror",
    "workload_qerror",
]
