"""Unit and property tests for striping arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs import StripeLayout
from repro.pfs.striped import coalesce_runs


class TestStripeLayout:
    def test_server_round_robin(self):
        lay = StripeLayout(stripe_size=10, nservers=3)
        assert [lay.server_of(o) for o in (0, 9, 10, 20, 30, 35)] == [0, 0, 1, 2, 0, 0]

    def test_local_offset_packs_densely(self):
        lay = StripeLayout(stripe_size=10, nservers=2)
        # Server 0 holds stripes 0, 2, 4... at local offsets 0, 10, 20...
        assert lay.local_offset(0) == 0
        assert lay.local_offset(5) == 5
        assert lay.local_offset(20) == 10
        assert lay.local_offset(25) == 15
        # Server 1 holds stripes 1, 3... at local 0, 10...
        assert lay.local_offset(10) == 0
        assert lay.local_offset(30) == 10

    def test_decompose_single_stripe(self):
        lay = StripeLayout(stripe_size=100, nservers=4)
        [c] = lay.decompose(10, 50)
        assert (c.server, c.file_offset, c.local_offset, c.size) == (0, 10, 10, 50)

    def test_decompose_spans_stripes(self):
        lay = StripeLayout(stripe_size=10, nservers=2)
        chunks = lay.decompose(5, 20)
        assert [(c.server, c.size) for c in chunks] == [(0, 5), (1, 10), (0, 5)]
        assert sum(c.size for c in chunks) == 20

    def test_decompose_empty(self):
        lay = StripeLayout(stripe_size=10, nservers=2)
        assert lay.decompose(5, 0) == []

    def test_servers_touched_small_and_wrapping(self):
        lay = StripeLayout(stripe_size=10, nservers=4)
        assert lay.servers_touched(0, 10) == {0}
        assert lay.servers_touched(5, 10) == {0, 1}
        assert lay.servers_touched(0, 1000) == {0, 1, 2, 3}
        assert lay.servers_touched(0, 0) == set()

    def test_validation(self):
        with pytest.raises(ValueError):
            StripeLayout(stripe_size=0, nservers=1)
        with pytest.raises(ValueError):
            StripeLayout(stripe_size=1, nservers=0)
        lay = StripeLayout(stripe_size=10, nservers=2)
        with pytest.raises(ValueError):
            lay.server_of(-1)
        with pytest.raises(ValueError):
            lay.decompose(0, -1)


class TestCoalesceRuns:
    def test_large_request_becomes_one_run_per_server(self):
        lay = StripeLayout(stripe_size=10, nservers=3)
        runs = coalesce_runs(lay.decompose(0, 90))
        assert len(runs) == 3
        assert sorted((r.server, r.local_offset, r.size) for r in runs) == [
            (0, 0, 30),
            (1, 0, 30),
            (2, 0, 30),
        ]

    def test_disjoint_pieces_stay_separate(self):
        lay = StripeLayout(stripe_size=10, nservers=2)
        chunks = lay.decompose(0, 10) + lay.decompose(40, 10)
        runs = coalesce_runs(chunks)
        # Both pieces are on server 0 (stripes 0 and 4) but local offsets
        # 0..10 and 20..30 are not adjacent.
        assert len(runs) == 2

    def test_empty(self):
        assert coalesce_runs([]) == []


@settings(max_examples=80, deadline=None)
@given(
    stripe=st.integers(1, 64),
    nservers=st.integers(1, 8),
    offset=st.integers(0, 2048),
    nbytes=st.integers(0, 2048),
)
def test_property_decompose_partitions_request(stripe, nservers, offset, nbytes):
    """Chunks exactly tile [offset, offset+nbytes) in order, no overlap."""
    lay = StripeLayout(stripe_size=stripe, nservers=nservers)
    chunks = lay.decompose(offset, nbytes)
    assert sum(c.size for c in chunks) == nbytes
    pos = offset
    for c in chunks:
        assert c.file_offset == pos
        assert c.server == lay.server_of(c.file_offset)
        assert c.local_offset == lay.local_offset(c.file_offset)
        # A chunk never crosses a stripe boundary.
        assert c.file_offset // stripe == (c.file_end - 1) // stripe
        pos = c.file_end
    assert pos == offset + nbytes


@settings(max_examples=80, deadline=None)
@given(
    stripe=st.integers(1, 32),
    nservers=st.integers(1, 6),
    offsets=st.lists(st.integers(0, 500), min_size=0, max_size=10),
)
def test_property_local_offsets_injective_per_server(stripe, nservers, offsets):
    """Two distinct file bytes on one server never share a local offset."""
    lay = StripeLayout(stripe_size=stripe, nservers=nservers)
    seen: dict[tuple[int, int], int] = {}
    for off in offsets:
        key = (lay.server_of(off), lay.local_offset(off))
        if key in seen:
            assert seen[key] == off
        seen[key] = off


@settings(max_examples=60, deadline=None)
@given(
    stripe=st.integers(1, 32),
    nservers=st.integers(1, 6),
    offset=st.integers(0, 512),
    nbytes=st.integers(1, 512),
)
def test_property_coalesced_runs_conserve_bytes(stripe, nservers, offset, nbytes):
    lay = StripeLayout(stripe_size=stripe, nservers=nservers)
    runs = coalesce_runs(lay.decompose(offset, nbytes))
    assert sum(r.size for r in runs) == nbytes
    # Coalescing never produces more runs than chunks, and for a contiguous
    # request at most one run per touched server.
    assert len(runs) <= len(lay.decompose(offset, nbytes))
    assert len(runs) <= max(1, len(lay.servers_touched(offset, nbytes)))


@settings(max_examples=150, deadline=None)
@given(
    stripe=st.integers(1, 48),
    nservers=st.integers(1, 8),
    offset=st.integers(0, 2048),
    nbytes=st.integers(1, 1024),
)
def test_property_server_runs_match_per_byte_map(stripe, nservers, offset, nbytes):
    """The vectorized segment table reconstructs the naive per-byte mapping.

    Ground truth: every byte of the request individually mapped through
    ``server_of``/``local_offset``.  Expanding each ``server_runs`` run to
    its (server, local_offset) byte addresses must reproduce that map
    exactly -- same multiset of addresses, and within each server the same
    contiguous span.
    """
    lay = StripeLayout(stripe_size=stripe, nservers=nservers)
    naive: dict[int, set[int]] = {}
    for o in range(offset, offset + nbytes):
        naive.setdefault(lay.server_of(o), set()).add(lay.local_offset(o))
    runs = lay.server_runs(offset, nbytes)
    expanded: dict[int, set[int]] = {}
    for server, local, size in runs:
        span = set(range(local, local + size))
        # One run per server for a contiguous request; no overlap possible.
        assert server not in expanded
        expanded[server] = span
    assert expanded == naive


@settings(max_examples=150, deadline=None)
@given(
    stripe=st.integers(1, 48),
    nservers=st.integers(1, 8),
    offset=st.integers(0, 2048),
    nbytes=st.integers(0, 1024),
)
def test_property_server_runs_equal_coalesced_decompose(
    stripe, nservers, offset, nbytes
):
    """Closed form == the stripe-walking reference, including run order."""
    lay = StripeLayout(stripe_size=stripe, nservers=nservers)
    closed = lay.server_runs(offset, nbytes)
    walked = [
        (r.server, r.local_offset, r.size)
        for r in coalesce_runs(lay.decompose(offset, nbytes))
    ]
    assert closed == walked
    assert sum(size for _, _, size in closed) == nbytes


# -- a file on stripe_count of the servers, from server ``start`` -------------


class TestStripeCountAndStart:
    """The Lustre per-file layout against an explicit per-byte reference."""

    @settings(max_examples=100, deadline=None)
    @given(
        stripe=st.integers(1, 64),
        count=st.integers(1, 8),
        nservers=st.integers(1, 8),
        start=st.integers(0, 7),
        offset=st.integers(0, 2048),
        nbytes=st.integers(0, 768),
    )
    def test_matches_per_byte_reference(
        self, stripe, count, nservers, start, offset, nbytes
    ):
        count = min(count, nservers)
        start = start % nservers
        lay = StripeLayout(
            stripe_size=stripe, nservers=nservers,
            stripe_count=count, start=start,
        )

        def ref(b):
            """Byte b -> (server, local offset): round-robin over the file's
            stripe_count virtual slots, remapped onto real servers from
            start, packed densely in each server's local store."""
            virtual = (b // stripe) % count
            server = (start + virtual) % nservers
            local = (b // (stripe * count)) * stripe + b % stripe
            return server, local

        span = range(offset, offset + nbytes)
        for b in span:
            assert lay.server_of(b) == ref(b)[0]
            assert lay.local_offset(b) == ref(b)[1]
        assert lay.servers_touched(offset, nbytes) == {ref(b)[0] for b in span}
        if nbytes:
            assert lay.stripe_span(offset, nbytes) == (
                offset // stripe, (offset + nbytes - 1) // stripe)

        runs = lay.server_runs(offset, nbytes)
        assert sorted(
            (server, local + i) for server, local, size in runs
            for i in range(size)
        ) == sorted(ref(b) for b in span)
        # ... in the order the stripe walk first touches each server.
        assert runs == [
            (r.server, r.local_offset, r.size)
            for r in coalesce_runs(lay.decompose(offset, nbytes))
        ]

        covered = []
        for c in lay.decompose(offset, nbytes):
            assert (c.server, c.local_offset) == ref(c.file_offset)
            assert c.file_offset // stripe == (c.file_end - 1) // stripe
            covered.extend(range(c.file_offset, c.file_end))
        assert covered == list(span)

    def test_all_servers_from_zero_is_the_plain_layout(self):
        plain = StripeLayout(stripe_size=16, nservers=4)
        assert (plain.stripe_count, plain.start) == (4, 0)
        assert StripeLayout(16, 4, stripe_count=4, start=0) == plain

    def test_geometry_is_validated(self):
        for bad in (
            dict(stripe_count=0), dict(stripe_count=5),
            dict(stripe_count=2, start=4), dict(start=-1),
        ):
            with pytest.raises(ValueError):
                StripeLayout(stripe_size=64, nservers=4, **bad)
