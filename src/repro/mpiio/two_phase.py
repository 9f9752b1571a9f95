"""Two-phase collective I/O (Rosario/Bordawekar/Choudhary; Thakur et al.).

Collective read/write decomposes into an I/O phase and a communication
phase.  The aggregate byte range touched by all ranks is divided into *file
domains*, one per aggregator rank; aggregators perform large contiguous file
accesses over their domain while all ranks redistribute data so each piece
ends where the access pattern wants it.  The result: the file sees a few
large sequential requests instead of the many small interleaved requests a
(Block, Block, Block) decomposition would naively produce -- Figure 5 of the
paper.

The implementation processes domains in rounds of ``cb_buffer_size`` bytes
(ROMIO's collective buffer) and really moves the bytes through the
simulated interconnect, so both the timing *and* the data are faithful.
"""

from __future__ import annotations

import bisect
from operator import itemgetter

from ..mpi import collectives as coll
from ..mpi.comm import Comm
from .adio import ADIOFile, as_byte_view
from .hints import Hints

__all__ = ["collective_write", "collective_read", "aggregator_ranks", "file_domains"]


def aggregator_ranks(comm: Comm, hints: Hints) -> list[int]:
    """Choose the aggregator ranks (ROMIO: one per compute node by default).

    Cached on the communicator: the node scan is O(P) and every collective
    on every rank needs the same answer.
    """
    cached = getattr(comm, "_agg_ranks_cache", None)
    if cached is not None and cached[0] == hints.cb_nodes:
        return cached[1]
    if hints.cb_nodes is not None and (
        hints.cb_nodes == 0 or hints.cb_nodes >= comm.size
    ):
        aggs = list(range(comm.size))
    else:
        machine = comm.machine
        per_node: dict[int, list[int]] = {}
        for r in range(comm.size):
            per_node.setdefault(machine.node_of(r), []).append(r)
        k = hints.cb_nodes if hints.cb_nodes is not None else 1
        aggs = []
        for node in sorted(per_node):
            aggs.extend(per_node[node][:k])
        aggs.sort()
    comm._agg_ranks_cache = (hints.cb_nodes, aggs)
    return aggs


def file_domains(
    lo: int, hi: int, aggregators: list[int], align: int
) -> dict[int, tuple[int, int]]:
    """Partition ``[lo, hi)`` evenly among aggregators, aligned if asked.

    Returns ``{agg_rank: (start, end)}``; domains may be empty for trailing
    aggregators when the range is small.
    """
    n = len(aggregators)
    total = hi - lo
    if n == 0 or total <= 0:
        return {a: (lo, lo) for a in aggregators}
    base = -(-total // n)  # ceil
    if align > 1:
        base = -(-base // align) * align
    out: dict[int, tuple[int, int]] = {}
    start = lo
    for a in aggregators:
        end = min(hi, start + base)
        out[a] = (start, end)
        start = end
    return out


def _exchange_plan(comm: Comm, segments: list[tuple[int, int]], hints: Hints):
    """Common setup for both directions of the two-phase exchange.

    Returns ``(total, aggs, my_domain, rounds, plan)``: ``total`` is the
    byte count of my segments; ``plan`` maps a round number to
    ``[(agg_rank, pieces)]`` covering *my* segments -- precomputed in one
    O(segments) pass instead of intersecting every (aggregator, round)
    window against the segments (O(P * rounds) probes per rank, the
    scaling wall at P >= 512).  ``my_domain`` is this rank's file domain,
    or ``None`` when it is not an aggregator; the full domain table is
    never materialised (it is O(P) per rank per collective and derivable
    from the uniform stride).
    """
    total = sum(n for _, n in segments)
    my_lo = segments[0][0] if segments else None
    my_hi = segments[-1][0] + segments[-1][1] if segments else None
    extents = coll.allgather(comm, (my_lo, my_hi))
    los = [e[0] for e in extents if e[0] is not None]
    his = [e[1] for e in extents if e[1] is not None]
    if not los:
        return total, None, None, 0, {}
    lo, hi = min(los), max(his)
    aggs = aggregator_ranks(comm, hints)
    # The domain tiling is uniform: file_domains strides [lo, hi) by the
    # same (aligned) base, truncating only trailing domains -- so the first
    # domain is the largest and any domain is pure arithmetic.
    stride = -(-(hi - lo) // len(aggs))
    if hints.cb_align > 1:
        stride = -(-stride // hints.cb_align) * hints.cb_align
    rounds = max(1, -(-min(stride, hi - lo) // hints.cb_buffer_size))
    i = bisect.bisect_left(aggs, comm.rank)
    if i < len(aggs) and aggs[i] == comm.rank:
        dstart = min(lo + i * stride, hi)
        my_domain = (dstart, min(dstart + stride, hi))
    else:
        my_domain = None
    plan = _piece_plan(segments, lo, stride, aggs, hints.cb_buffer_size)
    return total, aggs, my_domain, rounds, plan


def _piece_plan(
    segments: list[tuple[int, int]], lo: int, stride: int, aggs: list[int], cb: int
) -> dict[int, list[tuple[int, list[tuple[int, int, int]]]]]:
    """Assign my segment pieces to their (round, aggregator) windows.

    ``file_domains`` tiles ``[lo, hi)`` with a uniform ``stride`` (the last
    domains may be truncated/empty), and each domain is processed in
    ``cb``-byte rounds -- so the window holding file offset ``o`` is domain
    ``d = (o - lo) // stride``, round ``r = (o - lo) % stride // cb``, and
    it ends at ``lo + d * stride + min((r + 1) * cb, stride)``, no searching
    required.  One walk over the sorted segments does that arithmetic once
    per window entered and cuts a segment only where a window ends, giving
    every window the ``(offset, length, data_position)`` pieces, in order,
    that probing it against the segments would: O(segments + windows).
    """
    plan: dict[int, list[tuple[int, list[tuple[int, int, int]]]]] = {}
    window_end = lo  # no window entered yet (every segment starts at >= lo)
    pos = 0  # data position of the next byte
    for a, n in segments:
        end = a + n
        while a < end:
            if a >= window_end:
                d, within = divmod(a - lo, stride)
                r = within // cb
                window_end = lo + d * stride + min((r + 1) * cb, stride)
                pieces: list[tuple[int, int, int]] = []
                plan.setdefault(r, []).append((aggs[d], pieces))
            cut = min(window_end, end)
            pieces.append((a, cut - a, pos))
            pos += cut - a
            a = cut
    return plan


def collective_write(
    comm: Comm,
    adio: ADIOFile,
    segments: list[tuple[int, int]],
    data,
    hints: Hints,
) -> None:
    """Two-phase collective write.

    ``segments`` are this rank's absolute file byte runs (sorted, disjoint);
    ``data`` is one contiguous buffer of exactly their total length.
    Collective over ``comm``: every rank must call, possibly with no data.
    """
    buf = as_byte_view(data)
    total, aggs, my_domain, rounds, plan = _exchange_plan(comm, segments, hints)
    if len(buf) != total:
        raise ValueError(f"data has {len(buf)} bytes, segments need {total}")
    if aggs is None:
        coll.barrier(comm)
        return
    for r in range(rounds):
        # Communication phase: ship my pieces of each aggregator's window.
        outbound = [None] * comm.size
        for a, pieces in plan.get(r, ()):
            outbound[a] = [
                (off, bytes(buf[p : p + ln])) for off, ln, p in pieces
            ]
        inbound = coll.alltoall(comm, outbound)
        # I/O phase: aggregators coalesce and write their window.
        if my_domain is not None:
            _write_window(comm, adio, inbound)
    coll.barrier(comm)


def _write_window(comm: Comm, adio: ADIOFile, inbound: list) -> None:
    """Coalesce received (offset, bytes) pieces and write contiguous runs."""
    pieces: list[tuple[int, bytes]] = []
    for msg in inbound:
        if msg:
            pieces.extend(msg)
    if not pieces:
        return
    pieces.sort(key=itemgetter(0))
    run_off = pieces[0][0]
    run = bytearray(pieces[0][1])
    nbytes_assembled = len(run)
    for off, chunk in pieces[1:]:
        if off == run_off + len(run):
            run.extend(chunk)
        elif off < run_off + len(run):
            # Overlap between ranks' pieces: later piece wins (non-atomic
            # mode; ENZO never writes overlapping ranges).
            rel = off - run_off
            end = rel + len(chunk)
            if end <= len(run):
                run[rel:end] = chunk
            else:
                run[rel:] = chunk[: len(run) - rel]
                run.extend(chunk[len(run) - rel :])
        else:
            adio.write_contig(run_off, run)
            run_off, run = off, bytearray(chunk)
        nbytes_assembled += len(chunk)
    adio.write_contig(run_off, run)
    # Assembly memcpy cost for staging data through the collective buffer.
    comm.compute(comm.machine.memcpy_time(nbytes_assembled))


def collective_read(
    comm: Comm,
    adio: ADIOFile,
    segments: list[tuple[int, int]],
    hints: Hints,
) -> bytes:
    """Two-phase collective read; returns this rank's bytes, packed.

    Collective over ``comm``; ranks with no segments still participate.
    """
    total, aggs, my_domain, rounds, plan = _exchange_plan(comm, segments, hints)
    out = bytearray(total)
    if aggs is None:
        coll.barrier(comm)
        return bytes(out)
    for r in range(rounds):
        # Phase 1: every rank tells each aggregator which pieces it needs.
        requests = [None] * comm.size
        for a, pieces in plan.get(r, ()):
            requests[a] = [(off, ln) for off, ln, _ in pieces]
        wanted = coll.alltoall(comm, requests)
        # Phase 2 (I/O): aggregators read the union of requested pieces in
        # one pass over their window (coalesced runs), then serve replies.
        replies = [None] * comm.size
        if my_domain is not None:
            window_data = _read_window(comm, adio, wanted)
            for src, req in enumerate(wanted):
                if req:
                    replies[src] = [window_data[(off, ln)] for off, ln in req]
        answers = coll.alltoall(comm, replies)
        # Unpack what came back into my output buffer.
        for a, pieces in plan.get(r, ()):
            for (off, ln, pos), chunk in zip(pieces, answers[a]):
                out[pos : pos + ln] = chunk
    coll.barrier(comm)
    return bytes(out)


def _read_window(
    comm: Comm, adio: ADIOFile, wanted: list
) -> dict[tuple[int, int], bytes]:
    """Read the coalesced union of requested pieces; return piece lookup."""
    all_pieces: list[tuple[int, int]] = []
    for req in wanted:
        if req:
            all_pieces.extend(req)
    if not all_pieces:
        return {}
    all_pieces.sort()
    # Coalesce into runs.
    runs: list[tuple[int, int]] = []
    for off, ln in all_pieces:
        if runs and off <= runs[-1][0] + runs[-1][1]:
            prev_off, prev_len = runs[-1]
            runs[-1] = (prev_off, max(prev_off + prev_len, off + ln) - prev_off)
        else:
            runs.append((off, ln))
    run_data = {off: adio.read_contig(off, ln) for off, ln in runs}
    comm.compute(comm.machine.memcpy_time(sum(ln for _, ln in runs)))
    # Slice each requested piece out of its run.
    out: dict[tuple[int, int], bytes] = {}
    run_offs = [off for off, _ in runs]
    for off, ln in all_pieces:
        i = bisect.bisect_right(run_offs, off) - 1
        base = run_offs[i]
        out[(off, ln)] = run_data[base][off - base : off - base + ln]
    return out
