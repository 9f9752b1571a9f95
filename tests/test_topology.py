"""Unit tests for interconnect and machine models."""

from math import inf

import pytest

from repro.topology import PRESETS, Machine, Network


def _named(prefix, n):
    return [f"{prefix}[{i}]" for i in range(n)]


#: Each preset's network constants and link / device timeline names at
#: P = 4 and P = 16, captured before the network subclasses were folded
#: into ``Network``: (net name, nodes, latency, bandwidth, local_bandwidth,
#: fabric_bandwidth, fs.devices() names).
PRESET_NETWORKS = {
    ("origin2000", 4): ("ccnuma", 4, 1e-06, 629145600, 1258291200.0, inf,
                        _named("xfs.disk", 16)),
    ("origin2000", 16): ("ccnuma", 16, 1e-06, 629145600, 1258291200.0, inf,
                         _named("xfs.disk", 16)),
    ("ibm_sp2", 4): ("sp-switch", 1, 2e-05, 136314880, 545259520.0, inf,
                     _named("gpfs.disk", 12) + ["gpfs.token-mgr"]),
    ("ibm_sp2", 16): ("sp-switch", 2, 2e-05, 136314880, 545259520.0, inf,
                      _named("gpfs.disk", 12) + ["gpfs.token-mgr"]),
    ("chiba_city", 4): ("fast-ethernet", 4, 0.00012, 12058624.0, 48234496.0,
                        20971520, _named("pvfs.disk", 8)),
    ("chiba_city", 16): ("fast-ethernet", 16, 0.00012, 12058624.0, 48234496.0,
                         20971520, _named("pvfs.disk", 8)),
    ("chiba_city_local", 4): ("fast-ethernet", 4, 0.00012, 12058624.0,
                              48234496.0, 31457280,
                              _named("pvfs-local.disk", 4)),
    ("chiba_city_local", 16): ("fast-ethernet", 16, 0.00012, 12058624.0,
                               48234496.0, 31457280,
                               _named("pvfs-local.disk", 16)),
    ("lustre", 4): ("gig-ethernet", 4, 6e-05, 115343360, 461373440.0,
                    838860800, _named("lustre.disk", 16)
                    + _named("lustre.ostq", 16) + ["lustre.mds"]),
    ("lustre", 16): ("gig-ethernet", 16, 6e-05, 115343360, 461373440.0,
                     838860800, _named("lustre.disk", 16)
                     + _named("lustre.ostq", 16) + ["lustre.mds"]),
}


class TestNetwork:
    def test_uncontended_transfer_time(self):
        net = Network(4, latency=0.001, bandwidth=1000.0)
        # 500 bytes: egress 0.5s, cut-through, ingress drains 0.5s after
        # the first byte arrives at t=0.001.
        t = net.transfer(0.0, 0, 1, 500)
        assert t == pytest.approx(0.501)

    def test_local_transfer_uses_memory_copy(self):
        net = Network(2, latency=0.5, bandwidth=100.0, local_bandwidth=1000.0)
        assert net.transfer(0.0, 1, 1, 500) == pytest.approx(0.5)
        # No latency charged for an intra-node copy.

    def test_many_to_one_serialises_on_ingress(self):
        net = Network(4, latency=0.0, bandwidth=100.0)
        arrivals = [net.transfer(0.0, src, 0, 100) for src in (1, 2, 3)]
        # Each message takes 1s of ingress occupancy at node 0.
        assert sorted(arrivals) == [pytest.approx(i) for i in (1.0, 2.0, 3.0)]

    def test_disjoint_pairs_do_not_contend(self):
        net = Network(4, latency=0.0, bandwidth=100.0)
        a = net.transfer(0.0, 0, 1, 100)
        b = net.transfer(0.0, 2, 3, 100)
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(1.0)

    def test_repeat_sender_serialises_on_egress(self):
        net = Network(4, latency=0.0, bandwidth=100.0)
        a = net.transfer(0.0, 0, 1, 100)
        b = net.transfer(0.0, 0, 2, 100)
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(2.0)

    def test_byte_and_message_accounting(self):
        net = Network(2, latency=0.0, bandwidth=100.0)
        net.transfer(0.0, 0, 1, 30)
        net.transfer(0.0, 1, 0, 70)
        assert net.bytes_moved == 100
        assert net.messages == 2

    def test_node_range_validation(self):
        net = Network(2, latency=0.0, bandwidth=1.0)
        with pytest.raises(ValueError):
            net.transfer(0.0, 0, 5, 1)
        with pytest.raises(ValueError):
            net.transfer(0.0, -1, 0, 1)

    def test_parameter_validation(self):
        # Transfers and rank clocks use these unchecked, so each bad value
        # (NaN included) is refused here, naming the network.
        for kwargs, what in [
            (dict(nnodes=0), "at least one node"),
            (dict(bandwidth=0.0), "bandwidth"),
            (dict(latency=-1e-6), "latency"),
            (dict(latency=float("nan")), "latency"),
            (dict(local_bandwidth=0.0), "local_bandwidth"),
            (dict(local_bandwidth=-5.0), "local_bandwidth"),
            (dict(fabric_bandwidth=0.0), "fabric_bandwidth"),
            (dict(fabric_bandwidth=-1.0), "fabric_bandwidth"),
            (dict(fabric_bandwidth=float("nan")), "fabric_bandwidth"),
        ]:
            args = dict(nnodes=2, latency=0.0, bandwidth=1.0, name="eth") | kwargs
            with pytest.raises(ValueError, match=f"^eth: .*{what}"):
                Network(**args)

    def test_presets_construct(self):
        assert {name for name, _ in PRESET_NETWORKS} == set(PRESETS)
        for (preset, nprocs), expected in PRESET_NETWORKS.items():
            name, nodes, latency, bw, local_bw, fabric_bw, devices = expected
            machine = PRESETS[preset](nprocs=nprocs)
            net = machine.network
            assert (net.latency, net.bandwidth, net.local_bandwidth,
                    net.fabric_bandwidth) == (latency, bw, local_bw,
                                              fabric_bw), preset
            assert [t.name for t in machine.fs.devices()] == devices, preset
            links = [net.fabric] + net.egress + net.ingress
            assert [t.name for t in links] == (
                [f"{name}.fabric"] + _named(f"{name}.egress", nodes)
                + _named(f"{name}.ingress", nodes)
            ), preset


class TestMachine:
    def _machine(self, nprocs=8, ppn=2):
        nodes = (nprocs + ppn - 1) // ppn
        return Machine(
            name="test",
            nprocs=nprocs,
            procs_per_node=ppn,
            network=Network(nodes, latency=1e-5, bandwidth=1e8),
        )

    def test_node_placement(self):
        m = self._machine(nprocs=8, ppn=2)
        assert [m.node_of(r) for r in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]
        assert m.nnodes == 4

    def test_rank_range_validation(self):
        m = self._machine()
        with pytest.raises(ValueError):
            m.node_of(100)

    def test_compute_and_memcpy_time(self):
        m = self._machine()
        m.cpu_flops = 1e9
        m.memcpy_bandwidth = 1e8
        assert m.compute_time(2e9) == pytest.approx(2.0)
        assert m.memcpy_time(5e7) == pytest.approx(0.5)

    def test_network_too_small_rejected(self):
        with pytest.raises(ValueError):
            Machine(
                name="bad",
                nprocs=16,
                procs_per_node=1,
                network=Network(2, latency=0.0, bandwidth=1.0),
            )

    def test_attach_fs_chains(self):
        from repro.pfs import FileSystem

        m = self._machine()
        fs = FileSystem()
        assert m.attach_fs(fs) is m
        assert m.fs is fs
