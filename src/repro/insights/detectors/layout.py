"""File-layout detectors: file counts, stripe alignment, shared-file use.

Section 3.2.2 of the paper argues for one shared file (restart reads and
tape migration) and stripe-aligned collective file domains; these rules
flag the patterns that argument was aimed at.
"""

from __future__ import annotations

from ..model import (
    ACTION_ADVISE,
    ACTION_SET_HINT,
    ACTION_SWITCH_STRATEGY,
    Insight,
    Recommendation,
    Severity,
)
from ..rules import THRESHOLDS, TraceContext, rule

__all__ = []


@rule("file-per-grid")
def file_per_grid(ctx: TraceContext) -> list:
    """Too many output files (the original code's file-per-grid layout)."""
    th = THRESHOLDS
    paths = set()
    for op in ("write", "read"):
        paths.update(e.path for e in ctx.trace.ops(op))
    npaths = len(paths)
    if npaths == 0:
        return []
    high_at = max(8, ctx.nprocs or 0)
    evidence = {"files": npaths, "nprocs": ctx.nprocs}
    if npaths >= high_at or npaths > th.many_files_warn:
        severity = Severity.HIGH if npaths >= high_at else Severity.WARN
        return [
            Insight(
                rule="file-per-grid",
                severity=severity,
                title="checkpoint is scattered over many files",
                detail=(
                    f"{npaths} distinct files touched (P={ctx.nprocs}) -- "
                    f"per-grid files serialize each grid behind one writer, "
                    f"slow restart reads, and fragment tape migration"
                ),
                evidence=evidence,
                recommendations=(
                    Recommendation(
                        ACTION_SWITCH_STRATEGY,
                        "put all grids in one shared file at offsets every "
                        "rank derives from the replicated hierarchy metadata",
                        {"to": "mpi-io"},
                    ),
                ),
            )
        ]
    return [
        Insight(
            rule="file-per-grid",
            severity=Severity.OK,
            title="single-shared-file layout in use",
            detail=f"{npaths} distinct files touched",
            evidence=evidence,
        )
    ]


@rule("misaligned-access")
def misaligned_access(ctx: TraceContext) -> list:
    """Request offsets vs. the file-system stripe boundary.

    Misaligned collective file domains make every aggregator touch one
    stripe more than necessary and, on token-based file systems, fight
    over the boundary stripes.  When the hints already pin ``cb_align``
    to the stripe the rule reports OK regardless of the raw offsets
    (write-behind flushes legitimately start mid-stripe).
    """
    th = THRESHOLDS
    stripe = ctx.stripe_size
    if stripe <= 0:
        return []
    hints = ctx.hints
    if hints is not None and getattr(hints, "cb_align", 0) == stripe:
        return [
            Insight(
                rule="misaligned-access",
                severity=Severity.OK,
                title="collective file domains aligned to the stripe",
                detail=f"cb_align matches the {stripe} B stripe",
                evidence={"stripe_size": stripe, "cb_align": stripe},
            )
        ]
    out = []
    for op in ctx.data_ops():
        aligned = ctx.trace.alignment_fraction(op, stripe)
        evidence = {"stripe_size": stripe, "aligned_fraction": round(aligned, 3)}
        if aligned < th.aligned_fraction:
            recs = [
                Recommendation(
                    ACTION_SET_HINT,
                    "align collective file domains to the stripe",
                    {"name": "cb_align", "value": stripe},
                ),
                Recommendation(
                    ACTION_SET_HINT,
                    "request an application-specific stripe at "
                    "file-create time",
                    {"name": "striping_unit", "value": stripe},
                ),
            ]
            if ctx.stripe_widen_to > 0:
                recs.append(
                    Recommendation(
                        ACTION_SET_HINT,
                        "widen the checkpoint file's stripe count over "
                        "all the file system's servers (lfs setstripe -c)",
                        {"name": "striping_factor",
                         "value": ctx.stripe_widen_to},
                    )
                )
            out.append(
                Insight(
                    rule="misaligned-access",
                    severity=Severity.WARN,
                    title=f"{op} offsets ignore the stripe boundary",
                    detail=(
                        f"only {aligned:.0%} of {op} requests start on the "
                        f"{stripe} B stripe boundary"
                    ),
                    op=op,
                    evidence=evidence,
                    recommendations=tuple(recs),
                )
            )
        else:
            out.append(
                Insight(
                    rule="misaligned-access",
                    severity=Severity.OK,
                    title=f"{op} offsets respect the stripe boundary",
                    detail=f"{aligned:.0%} of {op} requests stripe-aligned",
                    op=op,
                    evidence=evidence,
                )
            )
    return out


@rule("independent-shared-file")
def independent_shared_file(ctx: TraceContext) -> list:
    """Many nodes writing a shared file in small independent pieces.

    A shared file is the right layout -- but only with aggregation.  When
    several nodes each push small requests into the same file the servers
    see an interleaved stream no buffer can help.
    """
    th = THRESHOLDS
    flagged = []
    shared = 0
    for path, events in ctx.events_by_path("write").items():
        nodes = {e.node for e in events}
        if len(nodes) < 2:
            continue
        shared += 1
        total = sum(e.nbytes for e in events)
        small = sum(
            e.nbytes for e in events if e.nbytes < th.small_request_bytes
        )
        if total and small / total > th.shared_small_byte_fraction:
            flagged.append((path, len(nodes), small / total))
    if flagged:
        path, nnodes, frac = max(flagged, key=lambda t: t[2])
        return [
            Insight(
                rule="independent-shared-file",
                severity=Severity.WARN,
                title="shared file written by independent small requests",
                detail=(
                    f"{nnodes} nodes write {path!r} independently and "
                    f"{frac:.0%} of its bytes arrive in small requests -- "
                    f"aggregate through collective buffering or write-behind"
                ),
                op="write",
                evidence={
                    "path": path,
                    "writer_nodes": nnodes,
                    "small_byte_fraction": round(frac, 3),
                    "flagged_files": len(flagged),
                },
                recommendations=(
                    Recommendation(
                        ACTION_SET_HINT,
                        "coalesce the independent small writes client-side",
                        {"name": "wb_buffer_size", "value": 4 * 1024 * 1024},
                    ),
                    Recommendation(
                        ACTION_ADVISE,
                        "use collective two-phase I/O for the regularly "
                        "decomposed arrays sharing the file",
                    ),
                ),
            )
        ]
    if shared:
        return [
            Insight(
                rule="independent-shared-file",
                severity=Severity.OK,
                title="shared-file writes arrive aggregated",
                detail=f"{shared} shared file(s), large-request traffic",
                op="write",
                evidence={"shared_files": shared},
            )
        ]
    return []
