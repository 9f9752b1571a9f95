"""Namespace-churn detectors (metadata ops vs. data ops).

These need a trace recorded with ``trace_filesystem(fs, include_meta=True)``;
without metadata events both rules stay silent rather than report a
misleading OK.
"""

from __future__ import annotations

from ..model import (
    ACTION_ADVISE,
    ACTION_SWITCH_STRATEGY,
    Insight,
    Recommendation,
    Severity,
)
from ..rules import THRESHOLDS, TraceContext, rule

__all__ = []


@rule("metadata-ratio")
def metadata_ratio(ctx: TraceContext) -> list:
    """Metadata operations per data request."""
    th = THRESHOLDS
    meta = ctx.trace.ops("meta")
    if not meta:
        return []
    ratio = ctx.trace.metadata_ratio()
    evidence = {
        "meta_ops": len(meta),
        "data_ops": len(ctx.trace.events) - len(meta),
        "ratio": round(ratio, 3),
    }
    if ratio > th.metadata_ratio_warn:
        severity = (
            Severity.HIGH if ratio > th.metadata_ratio_high else Severity.WARN
        )
        return [
            Insight(
                rule="metadata-ratio",
                severity=severity,
                title="metadata traffic rivals data traffic",
                detail=(
                    f"{len(meta)} namespace operations against "
                    f"{evidence['data_ops']} data requests "
                    f"(ratio {ratio:.2f}) -- open/create churn is "
                    f"stealing the request budget"
                ),
                evidence=evidence,
                recommendations=(
                    Recommendation(
                        ACTION_ADVISE,
                        "open each file once per phase and reuse the "
                        "handle; keep per-grid attributes in the "
                        "replicated hierarchy sidecar",
                    ),
                ),
            )
        ]
    return [
        Insight(
            rule="metadata-ratio",
            severity=Severity.OK,
            title="metadata traffic negligible",
            detail=f"{len(meta)} namespace ops, ratio {ratio:.2f}",
            evidence=evidence,
        )
    ]


@rule("open-churn")
def open_churn(ctx: TraceContext) -> list:
    """Repeated opens of the same files (dataset-open churn)."""
    th = THRESHOLDS
    opens = [
        e for e in ctx.trace.ops("meta") if e.kind in ("open", "create")
    ]
    if not opens:
        return []
    data_paths = set(ctx.trace.paths("write")) | set(ctx.trace.paths("read"))
    nfiles = max(len(data_paths), 1)
    per_file = len(opens) / nfiles
    evidence = {
        "opens": len(opens),
        "files": nfiles,
        "opens_per_file": round(per_file, 2),
    }
    if len(opens) >= th.min_opens and per_file > th.opens_per_file_warn:
        severity = (
            Severity.HIGH
            if per_file > th.opens_per_file_high
            else Severity.WARN
        )
        return [
            Insight(
                rule="open-churn",
                severity=severity,
                title="files are re-opened over and over",
                detail=(
                    f"{len(opens)} opens against {nfiles} file(s) "
                    f"({per_file:.1f} per file) -- each dataset access "
                    f"pays a fresh namespace round-trip"
                ),
                evidence=evidence,
                recommendations=(
                    Recommendation(
                        ACTION_SWITCH_STRATEGY,
                        "share one open handle for the whole checkpoint "
                        "(single-shared-file layout)",
                        {"to": "mpi-io"},
                    ),
                ),
            )
        ]
    return [
        Insight(
            rule="open-churn",
            severity=Severity.OK,
            title="open traffic proportional to files",
            detail=f"{len(opens)} opens against {nfiles} file(s)",
            evidence=evidence,
        )
    ]
