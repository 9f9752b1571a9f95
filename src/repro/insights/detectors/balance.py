"""Rank/node byte-distribution detectors.

The original ENZO funnels the combined top grid through processor 0
(Section 2.2); these rules catch that serialization and milder ownership
imbalance.
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


@rule("single-writer")
def single_writer(ctx: TraceContext) -> list:
    """One node moves the majority of the bytes (serialized I/O)."""
    th = THRESHOLDS
    out = []
    for op in ctx.data_ops():
        per_node = ctx.trace.per_node_bytes(op)
        total = sum(per_node.values())
        if not total or (ctx.nnodes or len(per_node)) < 2:
            continue
        top_node, top_bytes = max(per_node.items(), key=lambda kv: kv[1])
        share = top_bytes / total
        evidence = {
            "node": top_node,
            "share": round(share, 3),
            "active_nodes": len(per_node),
            "nnodes": ctx.nnodes,
        }
        if share > th.single_writer_share:
            out.append(
                Insight(
                    rule="single-writer",
                    severity=Severity.HIGH,
                    title=f"{op}s serialized through one node",
                    detail=(
                        f"node {top_node} moves {share:.0%} of the {op} "
                        f"bytes while {ctx.nnodes or len(per_node)} nodes "
                        f"are available -- the gather-and-write-through-P0 "
                        f"pattern leaves the parallel file system idle"
                    ),
                    op=op,
                    evidence=evidence,
                    recommendations=(
                        Recommendation(
                            ACTION_SWITCH_STRATEGY,
                            "let every rank write its own piece in parallel "
                            "(collective I/O for regular partitions)",
                            {"to": "mpi-io"},
                        ),
                    ),
                )
            )
        else:
            out.append(
                Insight(
                    rule="single-writer",
                    severity=Severity.OK,
                    title=f"{op}s spread across nodes",
                    detail=(
                        f"busiest node moves {share:.0%} of the {op} bytes"
                    ),
                    op=op,
                    evidence=evidence,
                )
            )
    return out


@rule("node-imbalance")
def node_imbalance(ctx: TraceContext) -> list:
    """Per-node byte skew (uneven grid ownership), short of serialization."""
    th = THRESHOLDS
    out = []
    for op in ctx.data_ops():
        per_node = ctx.trace.per_node_bytes(op)
        if len(per_node) < 2:
            continue
        total = sum(per_node.values())
        if not total:
            continue
        top = max(per_node.values())
        mean = total / len(per_node)
        skew = top / mean
        if top / total > th.single_writer_share:
            continue  # the single-writer rule already owns this finding
        evidence = {"skew": round(skew, 3), "active_nodes": len(per_node)}
        if skew >= th.imbalance_skew:
            out.append(
                Insight(
                    rule="node-imbalance",
                    severity=Severity.WARN,
                    title=f"{op} bytes unevenly spread over nodes",
                    detail=(
                        f"busiest node moves {skew:.1f}x the mean -- grid "
                        f"ownership is lopsided, so the slowest node sets "
                        f"the {op} time"
                    ),
                    op=op,
                    evidence=evidence,
                    recommendations=(
                        Recommendation(
                            ACTION_ADVISE,
                            "rebalance grid ownership by bytes (owner map "
                            "weighted by grid size rather than round-robin)",
                        ),
                    ),
                )
            )
        else:
            out.append(
                Insight(
                    rule="node-imbalance",
                    severity=Severity.OK,
                    title=f"{op} bytes balanced across nodes",
                    detail=f"busiest node at {skew:.1f}x the mean",
                    op=op,
                    evidence=evidence,
                )
            )
    return out
