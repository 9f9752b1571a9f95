"""Unit tests for FCFS timelines and links."""

import pytest

from repro.sim import BandwidthLink, Timeline


class TestTimeline:
    def test_idle_device_starts_immediately(self):
        t = Timeline()
        start, end = t.serve(ready_time=1.0, duration=2.0)
        assert (start, end) == (1.0, 3.0)

    def test_busy_device_queues(self):
        t = Timeline()
        t.serve(0.0, 5.0)
        start, end = t.serve(1.0, 2.0)
        assert (start, end) == (5.0, 7.0)

    def test_gap_leaves_device_idle(self):
        t = Timeline()
        t.serve(0.0, 1.0)
        start, end = t.serve(10.0, 1.0)
        assert (start, end) == (10.0, 11.0)

    def test_utilisation_accounting(self):
        t = Timeline()
        t.serve(0.0, 1.0)
        t.serve(0.0, 2.5)
        assert t.busy_time == pytest.approx(3.5)
        assert t.requests == 2

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timeline().serve(0.0, -1.0)


class TestBandwidthLink:
    def test_latency_only(self):
        link = BandwidthLink(latency=0.001)
        assert link.transfer(0.0, 10**9) == pytest.approx(0.001)

    def test_bandwidth_occupancy(self):
        link = BandwidthLink(latency=0.0, bandwidth=100.0)
        assert link.transfer(0.0, 200) == pytest.approx(2.0)

    def test_messages_queue_on_bandwidth(self):
        link = BandwidthLink(latency=0.5, bandwidth=100.0)
        a1 = link.transfer(0.0, 100)  # occupies [0, 1), arrives 1.5
        a2 = link.transfer(0.0, 100)  # occupies [1, 2), arrives 2.5
        assert a1 == pytest.approx(1.5)
        assert a2 == pytest.approx(2.5)

    def test_transfer_time_formula(self):
        link = BandwidthLink(latency=0.25, bandwidth=8.0)
        assert link.transfer_time(16) == pytest.approx(0.25 + 2.0)

    def test_infinite_bandwidth(self):
        link = BandwidthLink(latency=0.1)
        assert link.transfer_time(10**12) == pytest.approx(0.1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BandwidthLink().transfer(0.0, -1)

    def test_bytes_accounting(self):
        link = BandwidthLink(latency=0.0, bandwidth=10.0)
        link.transfer(0.0, 30)
        link.transfer(0.0, 70)
        assert link.bytes_moved == 100
