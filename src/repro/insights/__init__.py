"""``repro.insights`` -- I/O diagnosis and auto-tuning over IOTrace.

A Drishti-style rule engine for the simulated I/O stack: feed it a traced
run and it returns severity-ranked findings (small-request dominance,
serialized writers, file-per-grid layouts, metadata churn, misalignment,
read-modify-write amplification, ...), each carrying the evidence that
triggered it and machine-actionable recommendations.  The
:class:`AutoTuner` closes the loop: it maps those recommendations onto
MPI-IO hints and strategy selection, re-runs the workload, and reports
the bandwidth delta.

Typical use::

    from repro.insights import diagnose, format_report

    diagnosis = diagnose(trace, nprocs=8, stripe_size=1 << 20)
    print(format_report(diagnosis))
"""

from .autotune import AutoTuner, TuningReport, TuningStep
from .model import Diagnosis, Insight, Recommendation, Severity
from .reporter import format_report, report_to_json
from .rules import Thresholds, TraceContext, all_rules, diagnose

__all__ = [
    "AutoTuner",
    "Diagnosis",
    "Insight",
    "Recommendation",
    "Severity",
    "Thresholds",
    "TraceContext",
    "TuningReport",
    "TuningStep",
    "all_rules",
    "diagnose",
    "format_report",
    "report_to_json",
]
