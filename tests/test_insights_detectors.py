"""Unit tests for the insights detector rules.

Each rule gets a synthetic trace that triggers it and one that avoids it,
exercised in isolation: ``run_rule`` keeps only the findings whose
``rule`` is the rule under test.
"""

import json
import os

import pytest

from repro.core.trace import IOTrace
from repro.insights import Severity, all_rules, diagnose

KB = 1024
MB = 1024 * 1024
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_trace(events):
    """Build an IOTrace from dicts; defaults make one sequential writer."""
    trace = IOTrace()
    offsets = {}
    for i, e in enumerate(events):
        op = e.get("op", "write")
        path = e.get("path", "f")
        nbytes = e.get("nbytes", 0)
        if "offset" in e:
            offset = e["offset"]
        else:  # default: append sequentially per file
            offset = offsets.get(path, 0)
        offsets[path] = offset + nbytes
        trace.record(
            op=op, path=path, offset=offset, nbytes=nbytes,
            start=float(i), end=float(i) + 0.5,
            node=e.get("node", 0), kind=e.get("kind", ""),
        )
    return trace


def writes(sizes, path="f", node=0):
    return [{"op": "write", "path": path, "nbytes": n, "node": node}
            for n in sizes]


def run_rule(rule_id, trace, **kw):
    diag = diagnose(trace, **kw)
    diag.insights = [i for i in diag if i.rule == rule_id]
    return diag


def severities(diag):
    return [i.severity for i in diag]


def test_rule_registry_is_complete():
    assert set(all_rules()) == {
        "small-requests", "tiny-interleaved", "random-access",
        "rmw-amplification", "file-per-grid", "misaligned-access",
        "independent-shared-file", "single-writer", "node-imbalance",
        "metadata-ratio", "open-churn", "sync-checkpoint-stall",
        "retry-storm", "degraded-collective",
    }


# -- request-size rules ------------------------------------------------------


def test_small_requests_high_when_bytes_dominated_by_small():
    trace = make_trace(writes([4 * KB] * 20))
    diag = run_rule("small-requests", trace)
    assert severities(diag) == [Severity.HIGH]
    recs = {r.action for r in diag.insights[0].recommendations}
    assert "set_hint" in recs


def test_small_requests_warn_when_bytes_live_in_large_requests():
    trace = make_trace(writes([4 * KB] * 8 + [4 * MB] * 2))
    diag = run_rule("small-requests", trace)
    assert severities(diag) == [Severity.WARN]


def test_small_requests_ok_for_large_stream():
    trace = make_trace(writes([1 * MB] * 10))
    diag = run_rule("small-requests", trace)
    assert severities(diag) == [Severity.OK]


def test_tiny_interleaved_high_on_alternating_stream():
    # the HDF5 shape: header-sized writes in-band with (small) payloads
    trace = make_trace(writes([512, 100 * KB] * 10))
    diag = run_rule("tiny-interleaved", trace)
    assert severities(diag) == [Severity.HIGH]
    assert diag.insights[0].recommendations[0].params == {"to": "mpi-io"}


def test_tiny_interleaved_warn_when_small_byte_share_is_modest():
    trace = make_trace(writes([512, 64 * KB] * 3 + [512, 1 * MB]))
    diag = run_rule("tiny-interleaved", trace)
    assert severities(diag) == [Severity.WARN]


def test_tiny_interleaved_ok_without_tiny_requests():
    trace = make_trace(writes([1 * MB] * 10))
    diag = run_rule("tiny-interleaved", trace)
    assert severities(diag) == [Severity.OK]


def test_random_access_warn_on_scattered_small_writes():
    events = [
        {"nbytes": 4 * KB, "offset": off}
        for off in (5 * MB, 1 * MB, 9 * MB, 3 * MB, 7 * MB, 0)
    ]
    diag = run_rule("random-access", make_trace(events))
    assert severities(diag) == [Severity.WARN]


def test_random_access_ok_for_sequential_stream():
    trace = make_trace(writes([4 * KB] * 10))
    diag = run_rule("random-access", trace)
    assert severities(diag) == [Severity.OK]


def test_rmw_amplification_high_when_readback_dominates():
    # a sieving write: read the extent, then write it back
    events = [{"op": "read", "path": "a", "nbytes": 60 * KB, "offset": 0}]
    events += writes([100 * KB], path="a")
    diag = run_rule("rmw-amplification", make_trace(events))
    assert severities(diag) == [Severity.HIGH]
    names = {r.params.get("name") for r in diag.insights[0].recommendations}
    assert "ds_write" in names


def test_rmw_amplification_warn_at_moderate_ratio():
    events = [{"op": "read", "path": "a", "nbytes": 20 * KB, "offset": 0}]
    events += writes([100 * KB], path="a")
    diag = run_rule("rmw-amplification", make_trace(events))
    assert severities(diag) == [Severity.WARN]


def test_rmw_amplification_silent_on_a_restart_read():
    """Reading a finished dump back is a restart, not read-modify-write."""
    events = writes([100 * KB], path="a")
    events += [{"op": "read", "path": "a", "nbytes": 60 * KB, "offset": 0}]
    diag = run_rule("rmw-amplification", make_trace(events))
    assert severities(diag) == [Severity.OK]


def test_rmw_amplification_ok_when_reads_hit_other_files():
    events = writes([100 * KB], path="a")
    events += [{"op": "read", "path": "b", "nbytes": 60 * KB, "offset": 0}]
    diag = run_rule("rmw-amplification", make_trace(events))
    assert severities(diag) == [Severity.OK]


def test_rmw_amplification_silent_without_reads():
    diag = run_rule("rmw-amplification", make_trace(writes([100 * KB])))
    assert len(diag) == 0


# -- layout rules ------------------------------------------------------------


def test_file_per_grid_high_at_file_explosion():
    events = []
    for g in range(8):
        events += writes([1 * MB], path=f"grid{g}")
    diag = run_rule("file-per-grid", make_trace(events), nprocs=4)
    assert severities(diag) == [Severity.HIGH]
    assert diag.insights[0].recommendations[0].params == {"to": "mpi-io"}


def test_file_per_grid_warn_between_thresholds():
    events = []
    for g in range(5):
        events += writes([1 * MB], path=f"grid{g}")
    diag = run_rule("file-per-grid", make_trace(events), nprocs=16)
    assert severities(diag) == [Severity.WARN]


def test_file_per_grid_ok_for_shared_file():
    diag = run_rule("file-per-grid", make_trace(writes([1 * MB] * 4)),
                    nprocs=8)
    assert severities(diag) == [Severity.OK]


def test_misaligned_access_warn_on_unaligned_offsets():
    events = [{"nbytes": 4 * KB, "offset": off} for off in (1, 100, 3000)]
    diag = run_rule("misaligned-access", make_trace(events),
                    stripe_size=64 * KB)
    assert severities(diag) == [Severity.WARN]
    names = {r.params["name"] for r in diag.insights[0].recommendations}
    assert names == {"cb_align", "striping_unit"}


def test_misaligned_access_ok_on_stripe_boundaries():
    events = [{"nbytes": 4 * KB, "offset": i * 64 * KB} for i in range(4)]
    diag = run_rule("misaligned-access", make_trace(events),
                    stripe_size=64 * KB)
    assert severities(diag) == [Severity.OK]


def test_misaligned_access_trusts_cb_align_hint():
    from repro.mpiio.hints import Hints

    events = [{"nbytes": 4 * KB, "offset": off} for off in (1, 100, 3000)]
    diag = run_rule("misaligned-access", make_trace(events),
                    stripe_size=64 * KB,
                    hints=Hints().replace(cb_align=64 * KB))
    assert severities(diag) == [Severity.OK]


def test_misaligned_access_silent_without_stripe():
    events = [{"nbytes": 4 * KB, "offset": 1}]
    diag = run_rule("misaligned-access", make_trace(events), stripe_size=0)
    assert len(diag) == 0


def test_independent_shared_file_warn_on_multiwriter_small_requests():
    events = writes([4 * KB] * 5, node=0) + writes([4 * KB] * 5, node=1)
    diag = run_rule("independent-shared-file", make_trace(events))
    assert severities(diag) == [Severity.WARN]


def test_independent_shared_file_ok_with_large_requests():
    events = writes([1 * MB] * 3, node=0) + writes([1 * MB] * 3, node=1)
    diag = run_rule("independent-shared-file", make_trace(events))
    assert severities(diag) == [Severity.OK]


def test_independent_shared_file_silent_for_single_writer():
    diag = run_rule("independent-shared-file",
                    make_trace(writes([4 * KB] * 5)))
    assert len(diag) == 0


# -- balance rules -----------------------------------------------------------


def test_single_writer_high_when_one_node_dominates():
    events = writes([900 * KB], node=0) + writes([100 * KB], node=1)
    diag = run_rule("single-writer", make_trace(events), nnodes=2)
    assert severities(diag) == [Severity.HIGH]
    assert diag.insights[0].evidence["node"] == 0


def test_single_writer_ok_when_spread():
    events = writes([500 * KB], node=0) + writes([500 * KB], node=1)
    diag = run_rule("single-writer", make_trace(events), nnodes=2)
    assert severities(diag) == [Severity.OK]


def test_node_imbalance_warn_on_skew_below_serialization():
    shares = [48, 12, 10, 10, 10, 10]  # top share 0.48, skew 2.88
    events = []
    for node, kb in enumerate(shares):
        events += writes([kb * KB], node=node)
    diag = run_rule("node-imbalance", make_trace(events), nnodes=6)
    assert severities(diag) == [Severity.WARN]


def test_node_imbalance_defers_to_single_writer():
    events = writes([900 * KB], node=0) + writes([100 * KB], node=1)
    diag = run_rule("node-imbalance", make_trace(events), nnodes=2)
    assert len(diag) == 0


def test_node_imbalance_ok_when_balanced():
    events = writes([1 * MB], node=0) + writes([1 * MB], node=1)
    diag = run_rule("node-imbalance", make_trace(events), nnodes=2)
    assert severities(diag) == [Severity.OK]


# -- metadata rules ----------------------------------------------------------


def meta(n, path="f", kind="open"):
    return [{"op": "meta", "path": path, "nbytes": 0, "offset": 0,
             "kind": kind} for _ in range(n)]


def test_metadata_ratio_high_when_namespace_rivals_data():
    trace = make_trace(writes([1 * MB] * 10) + meta(10))
    diag = run_rule("metadata-ratio", trace)
    assert severities(diag) == [Severity.HIGH]


def test_metadata_ratio_warn_at_moderate_ratio():
    trace = make_trace(writes([1 * MB] * 10) + meta(3))
    diag = run_rule("metadata-ratio", trace)
    assert severities(diag) == [Severity.WARN]


def test_metadata_ratio_ok_when_negligible():
    trace = make_trace(writes([1 * MB] * 100) + meta(1))
    diag = run_rule("metadata-ratio", trace)
    assert severities(diag) == [Severity.OK]


def test_metadata_ratio_silent_without_meta_events():
    diag = run_rule("metadata-ratio", make_trace(writes([1 * MB] * 10)))
    assert len(diag) == 0


def test_open_churn_high_on_reopen_storm():
    trace = make_trace(writes([1 * MB]) + meta(17))
    diag = run_rule("open-churn", trace)
    assert severities(diag) == [Severity.HIGH]


def test_open_churn_warn_at_moderate_churn():
    events = []
    for g in range(4):
        events += writes([1 * MB], path=f"g{g}") + meta(5, path=f"g{g}")
    diag = run_rule("open-churn", make_trace(events))
    assert severities(diag) == [Severity.WARN]


def test_open_churn_ok_with_one_open_per_file():
    events = []
    for g in range(4):
        events += writes([1 * MB], path=f"g{g}") + meta(1, path=f"g{g}")
    diag = run_rule("open-churn", make_trace(events))
    assert severities(diag) == [Severity.OK]


# -- diagnose integration ----------------------------------------------------


def test_diagnose_sorts_most_severe_first_and_counts():
    # small scattered multi-file writes: several rules fire at once
    events = []
    for g in range(8):
        events += writes([4 * KB] * 4, path=f"grid{g}", node=g % 2)
    diag = diagnose(make_trace(events), nprocs=8, strategy="hdf4")
    assert diag.count(Severity.HIGH) >= 1
    sevs = severities(diag)
    assert sevs == sorted(sevs)
    assert diag.summary["strategy"] == "hdf4"
    assert diag.summary["files"] == 8


# -- satellite trace helpers -------------------------------------------------


def test_alignment_fraction():
    trace = make_trace(
        [{"nbytes": KB, "offset": off} for off in (0, 64 * KB, 5, 7)]
    )
    assert trace.alignment_fraction("write", 64 * KB) == 0.5
    assert trace.alignment_fraction("read", 64 * KB) == 1.0  # empty
    with pytest.raises(ValueError):
        trace.alignment_fraction("write", 0)


def test_metadata_ratio_helper():
    trace = make_trace(writes([1 * MB] * 4) + meta(2))
    assert trace.metadata_ratio() == pytest.approx(0.5)
    all_meta = make_trace(meta(3))
    assert all_meta.metadata_ratio() == 3.0


def test_paths_first_seen_order():
    events = (writes([KB], path="b") + writes([KB], path="a")
              + writes([KB], path="b"))
    trace = make_trace(events)
    assert trace.paths() == ["b", "a"]
    assert trace.paths("read") == []


# -- the rule x cell table of the regress baseline ----------------------------

#: Rules no gated cell fires, each for a named reason (docs/architecture.md
#: section 9): the resilience rules need an injected fault, and no regress
#: cell issues a sieving write, so nothing reads an extent before writing it.
NEVER_FIRES = {"retry-storm", "degraded-collective", "rmw-amplification"}
#: Rules every gated cell fires: ENZO's dumps are made of small requests
#: (paper Table 2) on every strategy the matrix runs.
NEVER_SILENT = {"small-requests"}


def test_every_rule_fires_and_stays_silent_on_gated_cells():
    """Every registered rule fires on some regress cell and is silent on
    another, read from the ``findings`` pinned in ``BENCH_figures.json``;
    the exceptions are exactly the named sets above."""
    with open(os.path.join(REPO_ROOT, "BENCH_figures.json")) as f:
        cells = json.load(f)["cells"]
    fired = {
        cell_id: {finding.rsplit(":", 1)[0] for finding in rec["findings"]}
        for cell_id, rec in cells.items()
    }
    rules = set(all_rules())
    assert set().union(*fired.values()) <= rules
    never_fires = {r for r in rules
                   if not any(r in hit for hit in fired.values())}
    never_silent = {r for r in rules
                    if all(r in hit for hit in fired.values())}
    assert never_fires == NEVER_FIRES
    assert never_silent == NEVER_SILENT
