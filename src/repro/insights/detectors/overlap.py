"""Overlap detectors: synchronous checkpoint stalls the drain could hide.

The async compositions (``repro.aio``) drain checkpoint bytes on a
background timeline while the next cycle computes.  A synchronous
strategy instead blocks every rank for the full dump -- time an
async-capable registration would give back.  This rule flags that stall
and names the registered async composition to switch to.
"""

from __future__ import annotations

from ..model import (
    ACTION_SWITCH_STRATEGY,
    Insight,
    Recommendation,
    Severity,
)
from ..rules import THRESHOLDS, TraceContext, rule

__all__ = []


def _async_target(strategy: str) -> str | None:
    """The registered async composition ``strategy`` should move to.

    Prefers the first async step on the ``upgrades_to`` chain; falls back
    to a direct async variant (``hdf5-aligned`` -> ``hdf5-aligned-async``).
    """
    from ...iostack import registry

    for name in registry.upgrade_chain(strategy):
        if registry.get(name).options.get("async"):
            return name
    for comp in registry.compositions():
        if comp.variant_of == strategy and comp.options.get("async"):
            return comp.name
    return None


@rule("sync-checkpoint-stall")
def sync_checkpoint_stall(ctx: TraceContext) -> list:
    """Every rank blocked for the full dump a background flush could hide."""
    from ...iostack import registry

    th = THRESHOLDS
    if ctx.strategy is None:
        return []
    try:
        comp = registry.get(ctx.strategy)
    except ValueError:
        return []
    writes = ctx.trace.ops("write")
    if not writes:
        return []
    if comp.options.get("async"):
        return [
            Insight(
                rule="sync-checkpoint-stall",
                severity=Severity.OK,
                title="checkpoint drains in the background",
                detail=(
                    f"{ctx.strategy} posts writes to the per-rank flush "
                    "service; compute overlaps the drain"
                ),
                op="write",
                evidence={"strategy": ctx.strategy, "async": True},
            )
        ]
    target = _async_target(ctx.strategy)
    if target is None:
        return []
    span = max(e.end for e in writes) - min(e.start for e in writes)
    busy = sum(e.duration for e in writes)
    writers = len({e.node for e in writes})
    stall = busy / (span * max(writers, 1)) if span > 0 else 1.0
    evidence = {
        "strategy": ctx.strategy,
        "write_span_s": round(span, 6),
        "write_busy_s": round(busy, 6),
        "writer_nodes": writers,
        "stall_fraction": round(stall, 3),
    }
    if stall < th.sync_stall_fraction:
        return [
            Insight(
                rule="sync-checkpoint-stall",
                severity=Severity.OK,
                title="synchronous dump is not stall-bound",
                detail=(
                    f"writers busy {stall:.0%} of the dump span "
                    f"(threshold {th.sync_stall_fraction:.0%})"
                ),
                op="write",
                evidence=evidence,
            )
        ]
    return [
        Insight(
            rule="sync-checkpoint-stall",
            severity=Severity.WARN,
            title="synchronous checkpoint stalls compute",
            detail=(
                f"{writers} writer node(s) are busy {stall:.0%} of the "
                f"{span:.3f}s dump span while every rank waits -- a "
                f"write-behind strategy overlaps this drain with the next "
                f"cycle's compute"
            ),
            op="write",
            evidence=evidence,
            recommendations=(
                Recommendation(
                    ACTION_SWITCH_STRATEGY,
                    "post the dump to the background flush service and "
                    "commit the manifest behind the flush barrier",
                    {"to": target},
                ),
            ),
        )
    ]
