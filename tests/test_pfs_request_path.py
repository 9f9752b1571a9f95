"""The one striped request path: independent oracles and namespace fixes.

* a closed-form oracle per preset: an uncontended single-stripe request
  costs exactly the sum of the stage terms the preset configures;
* a differential oracle: a ``LustreFS`` with nothing Lustre-specific
  switched on is a ``StripedServerFS`` of equal geometry, request for
  request;
* ``meta`` faults fire on every namespace op, and a create-on-open is
  a create the model sees.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace import trace_filesystem
from repro.pfs import (
    FileNotFound,
    InjectedIOError,
    LocalDiskFS,
    LustreFS,
    StripedServerFS,
)
from repro.topology import Network
from repro.topology.presets import PRESETS

# -- closed form -------------------------------------------------------------

SERVER_PRESETS = ["origin2000", "ibm_sp2", "chiba_city", "lustre"]


def _cold(fs, caches, path):
    """Forget queue state and cached blocks, keep the bytes."""
    fs.reset_timing()
    for cache in caches:
        cache.invalidate(path)


@pytest.mark.parametrize("preset", SERVER_PRESETS)
def test_single_stripe_request_is_the_sum_of_its_stages(preset):
    fs = PRESETS[preset](8).fs
    n = fs.layout.stripe_size
    offset = 3 * n  # stripe 3: one run, on one server, not server 0's first
    srv = fs.servers[fs.layout.server_of(offset)]
    client = fs.smp_io_queue_time + n / fs.client_channel_bandwidth
    wire = n / fs.client_network.bandwidth
    disk = srv.seek_time + n / srv.disk_bandwidth

    done = fs.write("f", offset, bytes(n), node=0, ready_time=0.0)
    assert done == pytest.approx(
        client + wire + fs.net_latency
        + srv.queue_time + n / srv.net_bandwidth + srv.request_cpu_time + disk
        + fs.net_latency,
        rel=1e-12,
    )

    _cold(fs, [s.cache for s in fs.servers], "f")
    _, done = fs.read("f", offset, n, node=0, ready_time=0.0)
    assert done == pytest.approx(
        client + fs.net_latency
        + srv.queue_time + srv.request_cpu_time + disk + n / srv.net_bandwidth
        + fs.net_latency + wire,
        rel=1e-12,
    )
    # Every device the request crossed was busy for exactly its own term.
    assert srv.disk.busy_time == pytest.approx(disk, rel=1e-12)
    assert srv.queue.busy_time == srv.queue_time


def test_local_disk_request_is_cpu_latency_plus_disk():
    fs = PRESETS["chiba_city_local"](8).fs
    n = 65536
    expected = fs.request_cpu_time + fs.seek_time + n / fs.disk_bandwidth
    assert fs.write("f", 0, bytes(n), node=2) == pytest.approx(expected, rel=1e-12)
    _cold(fs, fs.caches, "f")
    _, done = fs.read("f", 0, n, node=2)
    assert done == pytest.approx(expected, rel=1e-12)


# -- differential: degenerate Lustre == striped ------------------------------

NODES, NOSTS, STRIPE, FILE_BYTES = 3, 4, 512, 16 * 512

GEOMETRY = dict(
    stripe_size=STRIPE,
    disk_bandwidth=1e6,
    seek_time=3e-3,
    request_cpu_time=2e-4,
    server_net_bandwidth=5e6,
    net_latency=1e-4,
    client_channel_bandwidth=2e6,
)


def _pair():
    def net():
        return Network(NODES, latency=1e-4, bandwidth=3e6)

    striped = StripedServerFS(
        "s", nservers=NOSTS, cache_bytes_per_server=4 * STRIPE,
        client_network=net(), **GEOMETRY,
    )
    lustre = LustreFS(
        "l", nosts=NOSTS, stripe_count=NOSTS, cache_bytes_per_ost=4 * STRIPE,
        client_network=net(), **GEOMETRY,
    )
    for fs in (striped, lustre):
        fs.store.create("f")  # reads may come first; untimed on both sides
    return striped, lustre


extent = st.tuples(st.integers(0, FILE_BYTES - 1), st.integers(0, 3 * STRIPE))
request = st.tuples(
    st.sampled_from(["write", "read", "write_list", "read_list"]),
    st.integers(0, NODES - 1),
    st.lists(extent, min_size=1, max_size=4),
    st.floats(0.0, 5e-3),  # think time before the request is ready
    st.booleans(),  # issued from the async progress thread?
)


def _issue(fs, op, node, extents, ready, flush):
    def call():
        if op == "write":
            off, n = extents[0]
            return fs.write("f", off, bytes(n), node=node, ready_time=ready)
        if op == "read":
            off, n = extents[0]
            return fs.read("f", off, n, node=node, ready_time=ready)[1]
        if op == "write_list":
            data = bytes(sum(n for _, n in extents))
            return fs.write_list("f", extents, data, node=node, ready_time=ready)
        return fs.read_list("f", extents, node=node, ready_time=ready)[1]

    if flush:
        with fs.background_flush():
            return call()
    return call()


@settings(max_examples=150, deadline=None)
@given(st.lists(request, min_size=1, max_size=12))
def test_degenerate_lustre_times_every_request_like_striped(requests):
    striped, lustre = _pair()
    clock = 0.0
    for op, node, extents, think, flush in requests:
        clock += think
        a = _issue(striped, op, node, extents, clock, flush)
        b = _issue(lustre, op, node, extents, clock, flush)
        assert a == b, (op, node, extents, flush)
    assert [d.busy_time for d in striped.devices()] == [
        d.busy_time for d in lustre.devices() if d is not lustre.mds
    ]


# -- namespace ops: faults and create-on-open --------------------------------


_DISK = dict(disk_bandwidth=1e8, seek_time=1e-3)
FILESYSTEMS = {
    "striped": lambda: StripedServerFS(
        "s", nservers=2, stripe_size=4096, metadata_time=1e-3, **_DISK
    ),
    "lustre": lambda: LustreFS(
        "l", nosts=2, stripe_size=4096, mds_open_time=1e-3, mds_per_file_time=1e-4,
        **_DISK,
    ),
    "localdisk": lambda: LocalDiskFS(nnodes=2, metadata_time=1e-3, **_DISK),
}


@pytest.fixture(params=sorted(FILESYSTEMS))
def fs(request):
    return FILESYSTEMS[request.param]()


class TestMetaFaults:
    def test_open_checks_the_fault_before_the_store(self, fs):
        fs.create("ckpt")
        spec = fs.inject_fault("meta", "ckpt", mode="persistent")
        with trace_filesystem(fs, include_meta=True) as trace:
            with pytest.raises(InjectedIOError):
                fs.open("ckpt")
            with pytest.raises(InjectedIOError):
                fs.create("ckpt-restart")
        assert spec.fired == 2
        assert fs.store.listdir() == ["ckpt"]
        assert trace.ops("meta") == []

    def test_delete_checks_the_fault_before_the_store(self, fs):
        fs.create("ckpt")
        fs.write("ckpt", 0, b"payload")
        spec = fs.inject_fault("meta", "ckpt")
        with pytest.raises(InjectedIOError):
            fs.delete("ckpt")
        assert spec.fired == 1
        assert fs.read("ckpt", 0, 7)[0] == b"payload"
        fs.delete("ckpt")  # the oneshot is spent
        assert not fs.exists("ckpt")

    def test_open_of_a_missing_file_still_fails_without_create(self, fs):
        with pytest.raises(FileNotFound):
            fs.open("nope")
        assert fs.store.listdir() == []


# -- per-file layouts are validated where they are requested ------------------


@pytest.mark.parametrize("preset", ["lustre", "origin2000"])
@pytest.mark.parametrize("stripe_size", [0, -5])
def test_set_file_striping_rejects_a_bad_stripe_size_at_the_call(
        preset, stripe_size):
    """Not at the file's first I/O, inside a rank thread."""
    fs = PRESETS[preset](nprocs=2).fs
    with pytest.raises(ValueError, match="stripe_size must be >= 1"):
        fs.set_file_striping("ckpt", stripe_size=stripe_size)
    assert fs.layout_for("ckpt") is fs.layout
