"""Tests for the file-system timing models (null, striped, local-disk)."""

import pytest

from repro.mpi import run_spmd
from repro.mpiio import File, Hints
from repro.pfs import (
    BlockStore,
    FileSystem,
    LocalDiskFS,
    LRUCache,
    StripedServerFS,
)
from repro.topology import Network

from .conftest import make_machine


def make_striped(**kw):
    defaults = dict(
        nservers=4,
        stripe_size=100,
        disk_bandwidth=1000.0,
        seek_time=0.0,
        request_cpu_time=0.0,
        net_latency=0.0,
    )
    defaults.update(kw)
    return StripedServerFS("testfs", **defaults)


class TestNullFileSystem:
    def test_data_roundtrip_zero_cost(self):
        fs = FileSystem()
        fs.create("f")
        t = fs.write("f", 0, b"abc", ready_time=5.0)
        assert t == 5.0
        data, t = fs.read("f", 0, 3, ready_time=7.0)
        assert data == b"abc"
        assert t == 7.0

    def test_counters(self):
        fs = FileSystem()
        fs.create("f")
        fs.write("f", 0, b"abcd")
        fs.read("f", 0, 2)
        assert fs.counters.writes == 1
        assert fs.counters.reads == 1
        assert fs.counters.bytes_written == 4
        assert fs.counters.bytes_read == 2
        fs.counters.reset()
        assert fs.counters.writes == 0

    def test_open_missing_fails_open_create_succeeds(self):
        fs = FileSystem()
        with pytest.raises(OSError):
            fs.open("nope")
        fs.create("nope")
        fs.open("nope")
        assert fs.exists("nope")

    def test_file_size(self):
        fs = FileSystem()
        fs.create("f")
        fs.write("f", 10, b"xy")
        assert fs.file_size("f") == 12


class TestStripedServerFS:
    def test_data_roundtrip(self):
        fs = make_striped()
        fs.create("f")
        payload = bytes(range(256)) * 4
        fs.write("f", 37, payload)
        data, _ = fs.read("f", 37, len(payload))
        assert data == payload

    def test_large_write_parallelises_over_servers(self):
        # 400 bytes over 4 servers at 1000 B/s disks: 100 B each -> 0.1 s,
        # vs 0.4 s if a single disk had to absorb it.
        fs = make_striped()
        fs.create("f")
        t = fs.write("f", 0, b"x" * 400, ready_time=0.0)
        assert t == pytest.approx(0.1)

    def test_single_stripe_write_hits_one_disk(self):
        fs = make_striped()
        fs.create("f")
        t = fs.write("f", 0, b"x" * 100, ready_time=0.0)
        assert t == pytest.approx(0.1)

    def test_seek_penalty_for_noncontiguous_access(self):
        fs = make_striped(seek_time=0.5, nservers=1)
        fs.create("f")
        t1 = fs.write("f", 0, b"x" * 100, ready_time=0.0)  # seek + 0.1
        t2 = fs.write("f", 100, b"x" * 100, ready_time=t1)  # sequential
        t3 = fs.write("f", 500, b"x" * 100, ready_time=t2)  # seek again
        assert t1 == pytest.approx(0.6)
        assert t2 == pytest.approx(0.7)
        assert t3 == pytest.approx(1.3)

    def test_read_cache_hit_skips_disk(self):
        fs = make_striped(nservers=1, cache_bytes_per_server=10_000)
        fs.create("f")
        t = fs.write("f", 0, b"x" * 100)
        _, t1 = fs.read("f", 0, 100, ready_time=t)
        # Write-through populated the cache: read costs no disk time.
        assert t1 == pytest.approx(t)

    def test_cold_read_pays_disk(self):
        fs = make_striped(nservers=1)
        fs.create("f")
        t = fs.write("f", 0, b"x" * 100)
        _, t1 = fs.read("f", 0, 100, ready_time=t)
        assert t1 == pytest.approx(t + 0.1)

    def test_request_cpu_charged_per_run(self):
        fs = make_striped(nservers=1, request_cpu_time=1.0)
        fs.create("f")
        # 300 bytes on one server is one coalesced run -> one CPU charge.
        t = fs.write("f", 0, b"x" * 300)
        assert t == pytest.approx(1.0 + 0.3)

    def test_write_token_thrash_between_nodes(self):
        fs = make_striped(nservers=1, write_token_time=1.0)
        fs.create("f")
        t0 = fs.write("f", 0, b"x" * 50, node=0, ready_time=0.0)
        base = t0
        # Same node, same stripe: no revocation.
        t1 = fs.write("f", 50, b"x" * 50, node=0, ready_time=base)
        # Different node touching the same stripe: one revocation.
        t2 = fs.write("f", 0, b"x" * 50, node=1, ready_time=t1)
        assert t1 - t0 < 1.0
        assert t2 - t1 > 1.0
        assert fs.token_revocations == 1

    def test_first_writer_pays_no_token(self):
        fs = make_striped(nservers=4, write_token_time=1.0)
        fs.create("f")
        t = fs.write("f", 0, b"x" * 400, node=0)
        assert t < 1.0
        assert fs.token_revocations == 0

    def test_smp_io_queue_serialises_node_requests(self):
        fs = make_striped(nservers=4, smp_io_queue_time=1.0)
        fs.create("f")
        # Two ranks on the same SMP node: both requests carry node 0.
        t1 = fs.write("f", 0, b"x" * 100, node=0, ready_time=0.0)
        t2 = fs.write("f", 100, b"x" * 100, node=0, ready_time=0.0)
        assert t1 == pytest.approx(1.1)
        assert t2 == pytest.approx(2.1)  # queued behind rank 0's request

    def test_client_network_coupling(self):
        net = Network(2, latency=0.0, bandwidth=100.0)
        fs = make_striped(client_network=net)
        fs.create("f")
        fs.write("f", 0, b"x" * 100, node=0)
        # The payload crossed node 0's egress link.
        assert net.egress[0].busy_time == pytest.approx(1.0)

    def test_metadata_cost(self):
        fs = make_striped(metadata_time=0.25, net_latency=0.1)
        t = fs.create("f", ready_time=0.0)
        assert t == pytest.approx(0.1 + 0.25 + 0.1)

    def test_zero_byte_ops_are_free(self):
        fs = make_striped()
        fs.create("f")
        assert fs.write("f", 0, b"", ready_time=3.0) == 3.0
        _, t = fs.read("f", 0, 0, ready_time=4.0)
        assert t == 4.0

    def test_shared_store_between_filesystems(self):
        store = BlockStore()
        fs1 = make_striped(store=store)
        fs2 = make_striped(store=store)
        fs1.create("f")
        fs1.write("f", 0, b"shared")
        data, _ = fs2.read("f", 0, 6)
        assert data == b"shared"


class TestLocalDiskFS:
    def make(self, **kw):
        defaults = dict(nnodes=4, disk_bandwidth=1000.0, seek_time=0.0)
        defaults.update(kw)
        return LocalDiskFS(**defaults)

    def test_data_roundtrip(self):
        fs = self.make()
        fs.create("f", node=2)
        fs.write("f", 0, b"abc", node=2)
        data, _ = fs.read("f", 0, 3, node=2)
        assert data == b"abc"

    def test_every_node_serves_its_own_accesses(self):
        fs = self.make()
        fs.create("f", node=1)
        fs.write("f", 0, b"x" * 100, node=1)
        # Another node writing the same file keeps its piece on its own disk.
        fs.write("f", 100, b"x" * 100, node=3)
        assert fs.disks[1].busy_time == pytest.approx(0.1)
        assert fs.disks[3].busy_time == pytest.approx(0.1)
        fs.read("f", 100, 100, node=2, ready_time=1.0)
        assert fs.disks[2].busy_time == pytest.approx(0.1)  # cold: own disk

    def test_independent_disks_do_not_contend(self):
        fs = self.make()
        for n in range(4):
            fs.create(f"f{n}", node=n)
        times = [fs.write(f"f{n}", 0, b"x" * 1000, node=n) for n in range(4)]
        assert all(t == pytest.approx(1.0) for t in times)

    def test_seek_model(self):
        fs = self.make(seek_time=0.5, nnodes=1)
        fs.create("f", node=0)
        t1 = fs.write("f", 0, b"x" * 100, node=0)
        t2 = fs.write("f", 100, b"x" * 100, node=0, ready_time=t1)
        assert t1 == pytest.approx(0.6)
        assert t2 == pytest.approx(t1 + 0.1)

    def test_cache(self):
        fs = self.make(cache_bytes_per_node=1 << 20)
        fs.create("f", node=0)
        t = fs.write("f", 0, b"x" * 500, node=0)
        _, t2 = fs.read("f", 0, 500, node=0, ready_time=t)
        assert t2 == pytest.approx(t)

    def test_integration_report(self):
        fs = self.make()
        fs.create("a", node=0)
        fs.create("b", node=1)
        fs.create("c", node=1)
        assert fs.files_needing_integration() == {0: ["a"], 1: ["b", "c"]}

    def test_integration_report_lists_a_shared_file_under_every_writer(self):
        fs = self.make()
        fs.create("f", node=0)
        fs.write("f", 0, b"x" * 10, node=0)
        fs.write("f", 10, b"x" * 10, node=1)
        fs.open("f", node=2)  # an open puts no bytes on node 2's disk
        assert fs.files_needing_integration() == {0: ["f"], 1: ["f"]}

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalDiskFS(nnodes=0, disk_bandwidth=1.0, seek_time=0.0)


class TestLRUCache:
    def test_zero_capacity_always_misses(self):
        c = LRUCache(capacity_bytes=0)
        assert c.lookup("f", 0, 100) == 100
        assert c.hits == 0

    def test_hit_after_populate(self):
        c = LRUCache(capacity_bytes=1 << 20, block_size=100)
        c.populate("f", 0, 100)
        assert c.lookup("f", 0, 100) == 0
        assert c.hits == 1

    def test_partial_hit(self):
        c = LRUCache(capacity_bytes=1 << 20, block_size=100)
        c.populate("f", 0, 100)
        missing = c.lookup("f", 0, 200)
        assert missing == 100

    def test_eviction_is_lru(self):
        c = LRUCache(capacity_bytes=200, block_size=100)  # 2 blocks
        c.populate("f", 0, 100)  # block 0
        c.populate("f", 100, 100)  # block 1
        c.lookup("f", 0, 100)  # touch block 0
        c.populate("f", 200, 100)  # evicts block 1 (LRU)
        assert c.lookup("f", 0, 100) == 0
        assert c.lookup("f", 100, 100) == 100

    def test_invalidate(self):
        c = LRUCache(capacity_bytes=1 << 20, block_size=100)
        c.populate("f", 0, 300)
        c.populate("g", 0, 100)
        c.invalidate("f")
        assert c.lookup("f", 0, 100) == 100
        assert c.lookup("g", 0, 100) == 0


class TestPerFileStriping:
    def make_fs(self, **kw):
        defaults = dict(
            nservers=4, stripe_size=100, disk_bandwidth=1000.0, seek_time=0.0
        )
        defaults.update(kw)
        return StripedServerFS("fs", **defaults)

    def test_layout_override(self):
        fs = self.make_fs()
        fs.set_file_striping("special", 400)
        assert fs.layout_for("special").stripe_size == 400
        assert fs.layout_for("other").stripe_size == 100

    def test_data_unaffected_by_layout(self):
        fs = self.make_fs()
        fs.set_file_striping("f", 7)
        fs.create("f")
        payload = bytes(range(200))
        fs.write("f", 13, payload)
        data, _ = fs.read("f", 13, 200)
        assert data == payload

    def test_large_stripe_uses_one_server(self):
        fs = self.make_fs()
        fs.set_file_striping("big", 10_000)
        fs.create("big")
        fs.write("big", 0, b"x" * 400)
        # All on server 0 -> serial: 0.4 s, vs 0.1 s with default striping.
        assert fs.servers[0].disk.busy_time == pytest.approx(0.4)

    def test_striping_unit_hint_applied_on_create(self):
        fs = self.make_fs()
        m = make_machine(2, fs=fs)

        def program(comm):
            fh = File.open(comm, "hinted", "w",
                           hints=Hints(striping_unit=12345))
            fh.write_at_all(0, b"hello")
            fh.close()
            return None

        run_spmd(m, program)
        assert fs.layout_for("hinted").stripe_size == 12345
