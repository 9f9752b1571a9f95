"""Request-size and access-order detectors.

These are the paper's Table-2 observations turned into rules: ENZO's dump
issues a flood of small requests (one per grid array), and the original
HDF libraries interleave metadata-sized header writes with the payload.
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


def _kib(n: float) -> str:
    return f"{n / 1024:.0f} KiB"


@rule("small-requests")
def small_requests(ctx: TraceContext) -> list:
    """Dominance of small requests (paper Table 2: median ~ a few KiB)."""
    th = THRESHOLDS
    out = []
    for op in ctx.data_ops():
        count_frac, byte_frac = ctx.small_fractions(op)
        n = len(ctx.trace.ops(op))
        evidence = {
            "requests": n,
            "small_count_fraction": round(count_frac, 3),
            "small_byte_fraction": round(byte_frac, 3),
            "small_threshold_bytes": th.small_request_bytes,
        }
        if count_frac > th.small_count_fraction:
            high = byte_frac > th.small_byte_fraction
            recs = [
                Recommendation(
                    ACTION_SET_HINT,
                    "coalesce consecutive small writes client-side "
                    "(write-behind buffering)",
                    {"name": "wb_buffer_size", "value": 4 * 1024 * 1024},
                )
                if op == "write"
                else Recommendation(
                    ACTION_SET_HINT,
                    "enlarge the data-sieving read buffer so neighbouring "
                    "small reads are served from one file-system request",
                    {"name": "ind_rd_buffer_size", "value": 4 * 1024 * 1024},
                ),
                Recommendation(
                    ACTION_ADVISE,
                    "aggregate small per-array accesses with collective "
                    "two-phase I/O where the decomposition is regular",
                ),
            ]
            out.append(
                Insight(
                    rule="small-requests",
                    severity=Severity.HIGH if high else Severity.WARN,
                    title=f"small {op} requests dominate",
                    detail=(
                        f"{count_frac:.0%} of {n} {op} requests are smaller "
                        f"than {_kib(th.small_request_bytes)}"
                        + (
                            f" and they carry {byte_frac:.0%} of the bytes"
                            if high
                            else f" (but only {byte_frac:.0%} of the bytes)"
                        )
                    ),
                    op=op,
                    evidence=evidence,
                    recommendations=tuple(recs),
                )
            )
        else:
            out.append(
                Insight(
                    rule="small-requests",
                    severity=Severity.OK,
                    title=f"{op} request sizes healthy",
                    detail=(
                        f"{count_frac:.0%} of {n} {op} requests are below "
                        f"{_kib(th.small_request_bytes)}"
                    ),
                    op=op,
                    evidence=evidence,
                )
            )
    return out


@rule("tiny-interleaved")
def tiny_interleaved(ctx: TraceContext) -> list:
    """Metadata-sized writes interleaved with payload (the HDF5 slowdown).

    The paper attributes HDF5's poor write performance to its internal
    metadata being written in-band with the data: the request stream
    alternates between sub-KiB header updates and array payloads, which
    defeats sequential buffering at every layer.
    """
    th = THRESHOLDS
    out = []
    for op in ctx.data_ops():
        sizes = ctx.trace.request_sizes(op)
        tiny_frac = float((sizes < th.tiny_request_bytes).sum()) / len(sizes)
        pairs = flips = 0
        for events in ctx.events_by_path(op).values():
            for a, b in zip(events, events[1:]):
                pairs += 1
                if (a.nbytes < th.tiny_request_bytes) != (
                    b.nbytes < th.tiny_request_bytes
                ):
                    flips += 1
        alternation = flips / pairs if pairs else 0.0
        _, byte_frac = ctx.small_fractions(op)
        evidence = {
            "tiny_fraction": round(tiny_frac, 3),
            "alternation_fraction": round(alternation, 3),
            "small_byte_fraction": round(byte_frac, 3),
            "tiny_threshold_bytes": th.tiny_request_bytes,
        }
        triggered = (
            tiny_frac > th.tiny_count_fraction
            and alternation > th.interleave_fraction
            and byte_frac > th.metadata_ratio_warn
        )
        if triggered:
            severity = (
                Severity.HIGH
                if byte_frac > th.small_byte_fraction
                else Severity.WARN
            )
            out.append(
                Insight(
                    rule="tiny-interleaved",
                    severity=severity,
                    title=f"metadata-sized {op}s interleaved with data",
                    detail=(
                        f"{tiny_frac:.0%} of {op} requests are under "
                        f"{th.tiny_request_bytes} B and {alternation:.0%} of "
                        f"consecutive same-file requests flip between tiny "
                        f"and payload sizes -- in-band format metadata is "
                        f"fragmenting the data stream"
                    ),
                    op=op,
                    evidence=evidence,
                    recommendations=(
                        Recommendation(
                            ACTION_SWITCH_STRATEGY,
                            "write payload through the MPI-IO layout (format "
                            "metadata kept in the replicated sidecar, out of "
                            "the data path)",
                            {"to": "mpi-io"},
                        ),
                    ),
                )
            )
        else:
            out.append(
                Insight(
                    rule="tiny-interleaved",
                    severity=Severity.OK,
                    title=f"no metadata/data interleaving on {op}s",
                    detail=(
                        f"tiny-request alternation is {alternation:.0%} "
                        f"({tiny_frac:.0%} tiny requests)"
                    ),
                    op=op,
                    evidence=evidence,
                )
            )
    return out


@rule("random-access")
def random_access(ctx: TraceContext) -> list:
    """Small non-sequential access per node (strided/random patterns)."""
    th = THRESHOLDS
    out = []
    for op in ctx.data_ops():
        fractions = ctx.per_node_sequential(op)
        if not fractions:
            continue
        mean_seq = sum(fractions) / len(fractions)
        _, byte_frac = ctx.small_fractions(op)
        evidence = {
            "mean_node_sequential_fraction": round(mean_seq, 3),
            "small_byte_fraction": round(byte_frac, 3),
        }
        if mean_seq < th.sequential_fraction and byte_frac > th.small_byte_fraction:
            out.append(
                Insight(
                    rule="random-access",
                    severity=Severity.WARN,
                    title=f"small {op}s land non-sequentially",
                    detail=(
                        f"per-node sequential fraction is {mean_seq:.0%} "
                        f"while small requests carry {byte_frac:.0%} of the "
                        f"bytes -- each request pays a full seek/stripe visit"
                    ),
                    op=op,
                    evidence=evidence,
                    recommendations=(
                        Recommendation(
                            ACTION_ADVISE,
                            "sort irregular data by its global key before "
                            "writing (block-wise access becomes contiguous "
                            "per rank), or batch the access list with "
                            "list I/O",
                        ),
                    ),
                )
            )
        else:
            out.append(
                Insight(
                    rule="random-access",
                    severity=Severity.OK,
                    title=f"{op} access order healthy",
                    detail=(
                        f"per-node sequential fraction {mean_seq:.0%}; "
                        f"small-request byte share {byte_frac:.0%}"
                    ),
                    op=op,
                    evidence=evidence,
                )
            )
    return out


@rule("rmw-amplification")
def rmw_amplification(ctx: TraceContext) -> list:
    """Read-modify-write amplification from data sieving.

    Data sieving turns a strided independent write into read-extent /
    modify / write-extent, so a read counts only when a later write to the
    same file follows it.  A restart that reads back a finished dump is a
    read after the last write, not read-modify-write.
    """
    th = THRESHOLDS
    writes = ctx.trace.ops("write")
    if not writes or not ctx.trace.ops("read"):
        return []
    rmw_bytes = 0
    written_later: set[str] = set()
    for e in reversed(ctx.trace.events):
        if e.op == "write":
            written_later.add(e.path)
        elif e.op == "read" and e.path in written_later:
            rmw_bytes += e.nbytes
    written_bytes = sum(e.nbytes for e in writes)
    ratio = rmw_bytes / written_bytes if written_bytes else 0.0
    evidence = {
        "rmw_read_bytes": rmw_bytes,
        "written_bytes": written_bytes,
        "ratio": round(ratio, 3),
    }
    if ratio > th.rmw_ratio_warn:
        return [
            Insight(
                rule="rmw-amplification",
                severity=(
                    Severity.HIGH if ratio > th.rmw_ratio_high else Severity.WARN
                ),
                title="write traffic is amplified by read-modify-write",
                detail=(
                    f"{rmw_bytes} B were read ahead of a write to the same "
                    f"file ({ratio:.0%} of the written volume) -- data "
                    f"sieving is filling holes by reading whole extents"
                ),
                op="write",
                evidence=evidence,
                recommendations=(
                    Recommendation(
                        ACTION_SET_HINT,
                        "disable data sieving for writes",
                        {"name": "ds_write", "value": False},
                    ),
                    Recommendation(
                        ACTION_SET_HINT,
                        "carry the non-contiguous access list in one "
                        "request (list I/O) instead of sieving",
                        {"name": "use_listio", "value": True},
                    ),
                ),
            )
        ]
    if rmw_bytes == 0:
        return [
            Insight(
                rule="rmw-amplification",
                severity=Severity.OK,
                title="no read-modify-write amplification",
                detail="no read precedes a write to the same file",
                op="write",
                evidence=evidence,
            )
        ]
    return [
        Insight(
            rule="rmw-amplification",
            severity=Severity.OK,
            title="read-modify-write amplification negligible",
            detail=f"read-back is {ratio:.0%} of the written volume",
            op="write",
            evidence=evidence,
        )
    ]
