"""Resilience detectors: retry storms and degraded collective dumps.

These consume the ``op="recovery"`` events the fault-tolerance layer emits
(:meth:`FileSystem.notify_recovery`, surfaced by ``trace_filesystem``).
A trace with no recovery events keeps both rules silent -- a run without a
retry policy should not be reported as "resilient", just undiagnosed.
"""

from __future__ import annotations

from ..model import (
    ACTION_ADVISE,
    Insight,
    Recommendation,
    Severity,
)
from ..rules import THRESHOLDS, TraceContext, rule

__all__ = []


def _data_op_count(ctx: TraceContext) -> int:
    return len(ctx.trace.ops("write")) + len(ctx.trace.ops("read"))


@rule("retry-storm")
def retry_storm(ctx: TraceContext) -> list:
    """I/O retries per data request; give-ups are always HIGH."""
    th = THRESHOLDS
    recoveries = ctx.trace.ops("recovery")
    if not recoveries:
        return []
    retries = [e for e in recoveries if e.kind == "retry"]
    giveups = [e for e in recoveries if e.kind == "giveup"]
    data_ops = max(_data_op_count(ctx), 1)
    ratio = len(retries) / data_ops
    evidence = {
        "retries": len(retries),
        "giveups": len(giveups),
        "data_ops": data_ops,
        "retry_ratio": round(ratio, 3),
        "max_attempt": max((e.attempt for e in retries), default=0),
    }
    if giveups:
        return [
            Insight(
                rule="retry-storm",
                severity=Severity.HIGH,
                title="retries exhausted: operations gave up",
                detail=(
                    f"{len(giveups)} operation(s) failed even after "
                    f"{len(retries)} retries -- the dump did not complete "
                    f"and the checkpoint is not restartable"
                ),
                evidence=evidence,
                recommendations=(
                    Recommendation(
                        ACTION_ADVISE,
                        "raise RetryPolicy.max_retries or fix the failing "
                        "path; verify the target file system's health",
                    ),
                ),
            )
        ]
    if ratio > th.retry_ratio_warn or retries:
        severity = (
            Severity.HIGH if ratio > th.retry_ratio_high
            else Severity.WARN if ratio > th.retry_ratio_warn
            else Severity.INFO
        )
        return [
            Insight(
                rule="retry-storm",
                severity=severity,
                title=(
                    "retry storm during I/O"
                    if severity <= Severity.WARN  # WARN or more severe
                    else "transient I/O faults were recovered"
                ),
                detail=(
                    f"{len(retries)} retries across {data_ops} data "
                    f"requests (ratio {ratio:.2f}); all eventually "
                    f"succeeded"
                ),
                evidence=evidence,
                recommendations=(
                    Recommendation(
                        ACTION_ADVISE,
                        "a sustained retry rate signals a failing device "
                        "or path -- check the storage target before the "
                        "backoff cost dominates the dump",
                    ),
                ) if severity <= Severity.WARN else (),
            )
        ]
    return [
        Insight(
            rule="retry-storm",
            severity=Severity.OK,
            title="no retries needed",
            detail=f"{len(recoveries)} recovery event(s), none were retries",
            evidence=evidence,
        )
    ]


@rule("degraded-collective")
def degraded_collective(ctx: TraceContext) -> list:
    """Collective writes that fell back to independent I/O."""
    th = THRESHOLDS
    recoveries = ctx.trace.ops("recovery")
    if not recoveries:
        return []
    degraded = [e for e in recoveries if e.kind == "degraded"]
    evidence = {
        "degraded": len(degraded),
        "degraded_bytes": sum(e.nbytes for e in degraded),
    }
    if degraded:
        severity = (
            Severity.HIGH if len(degraded) >= th.degraded_high
            else Severity.WARN
        )
        return [
            Insight(
                rule="degraded-collective",
                severity=severity,
                title="collective writes degraded to independent I/O",
                detail=(
                    f"{len(degraded)} collective write(s) lost a "
                    f"participant and were re-issued independently -- the "
                    f"dump completed but without two-phase aggregation"
                ),
                evidence=evidence,
                recommendations=(
                    Recommendation(
                        ACTION_ADVISE,
                        "the data is intact (checksummed in the manifest) "
                        "but bandwidth suffered; investigate the failing "
                        "aggregator node",
                    ),
                ),
            )
        ]
    return [
        Insight(
            rule="degraded-collective",
            severity=Severity.OK,
            title="no degraded collectives",
            detail="all collective writes completed collectively",
            evidence=evidence,
        )
    ]
