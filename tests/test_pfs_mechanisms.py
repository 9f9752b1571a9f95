"""Direct unit tests for the contention mechanisms behind Figures 7-9:
per-file tokens, read-token flushes, read amplification, client channels."""

from repro.pfs import StripedServerFS


def make_fs(**kw):
    defaults = dict(
        nservers=4,
        stripe_size=100,
        disk_bandwidth=1e6,
        seek_time=0.0,
        request_cpu_time=0.0,
    )
    defaults.update(kw)
    return StripedServerFS("mech", **defaults)


class TestFileGranularityTokens:
    def test_alternating_writers_thrash(self):
        fs = make_fs(write_token_time=1.0)
        fs.create("f")
        t = 0.0
        for i in range(6):
            t = fs.write("f", i * 10, b"x" * 10, node=i % 2, ready_time=t)
        # First write free, every node alternation thereafter revokes.
        assert fs.token_revocations == 5

    def test_single_writer_is_free(self):
        fs = make_fs(write_token_time=1.0)
        fs.create("f")
        t = 0.0
        for i in range(6):
            t = fs.write("f", i * 10, b"x" * 10, node=0, ready_time=t)
        assert fs.token_revocations == 0

    def test_separate_files_do_not_conflict(self):
        fs = make_fs(write_token_time=1.0)
        fs.create("a")
        fs.create("b")
        fs.write("a", 0, b"x", node=0)
        fs.write("b", 0, b"x", node=1)
        fs.write("a", 10, b"x", node=0)
        fs.write("b", 10, b"x", node=1)
        assert fs.token_revocations == 0

    def test_revocations_serialise_at_token_manager(self):
        fs = make_fs(write_token_time=1.0)
        fs.create("f")
        fs.write("f", 0, b"x", node=0, ready_time=0.0)
        # Two conflicting writes issued at the same instant queue at the
        # token manager: the second finishes a full revocation later.
        t1 = fs.write("f", 10, b"x", node=1, ready_time=0.0)
        t2 = fs.write("f", 20, b"x", node=2, ready_time=0.0)
        assert t2 - t1 >= 0.99


class TestReadTokenFlush:
    def test_first_reader_pays_flush_then_shared(self):
        fs = make_fs(write_token_time=1.0)
        fs.create("f")
        fs.write("f", 0, b"x" * 50, node=0)
        fs.reset_timing()
        _, t1 = fs.read("f", 0, 50, node=1, ready_time=0.0)
        assert t1 >= 1.0  # flush of node 0's dirty data
        assert fs.token_revocations == 1
        _, t2 = fs.read("f", 0, 50, node=2, ready_time=t1)
        assert t2 - t1 < 1.0  # now shared: no more revocations
        assert fs.token_revocations == 1


class TestReadAmplification:
    def test_small_read_costs_whole_stripe(self):
        fs = make_fs(
            stripe_size=1000,
            disk_bandwidth=1000.0,
            cache_bytes_per_server=10_000,
            stripe_aligned_io=True,
        )
        fs.create("f")
        fs.write("f", 0, b"x" * 1000)
        # Evict the write-through cache entry to force a cold read.
        for srv in fs.servers:
            srv.cache._blocks.clear()
        fs.reset_timing()
        _, t = fs.read("f", 0, 10, ready_time=0.0)
        # 10 bytes requested, but a whole 1000-byte block came off the disk.
        assert t >= 1.0

    def test_unamplified_read_is_cheap(self):
        fs = make_fs(
            stripe_size=1000,
            disk_bandwidth=1000.0,
            cache_bytes_per_server=10_000,
            stripe_aligned_io=False,
        )
        fs.create("f")
        fs.write("f", 0, b"x" * 1000)
        for srv in fs.servers:
            srv.cache._blocks.clear()
        fs.reset_timing()
        _, t = fs.read("f", 0, 10, ready_time=0.0)
        assert t < 0.1


class TestClientChannel:
    def test_single_stream_capped_by_channel(self):
        fs = make_fs(
            nservers=8, disk_bandwidth=1e9, client_channel_bandwidth=100.0
        )
        fs.create("f")
        t = fs.write("f", 0, b"x" * 1000, node=0, ready_time=0.0)
        assert t >= 10.0  # 1000 B / 100 B/s, regardless of 8 fast disks

    def test_distinct_clients_have_distinct_channels(self):
        fs = make_fs(
            nservers=8, disk_bandwidth=1e9, client_channel_bandwidth=100.0
        )
        fs.create("f")
        t0 = fs.write("f", 0, b"x" * 1000, node=0, ready_time=0.0)
        t1 = fs.write("f", 5000, b"x" * 1000, node=1, ready_time=0.0)
        # Parallel clients do not queue on each other's channels.
        assert abs(t0 - t1) < 1.0
        assert max(t0, t1) < 15.0


class TestSmpQueue:
    def test_same_node_requests_serialise(self):
        fs = make_fs(smp_io_queue_time=1.0)
        fs.create("f")
        # Two ranks of one SMP node: both requests carry that node.
        t1 = fs.write("f", 0, b"x", node=0, ready_time=0.0)
        t2 = fs.write("f", 100, b"x", node=0, ready_time=0.0)
        assert t2 >= t1 + 0.99

    def test_different_nodes_do_not(self):
        fs = make_fs(smp_io_queue_time=1.0)
        fs.create("f")
        t1 = fs.write("f", 0, b"x", node=0, ready_time=0.0)
        t2 = fs.write("f", 100, b"x", node=1, ready_time=0.0)
        assert abs(t1 - t2) < 0.5
