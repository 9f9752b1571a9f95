"""Unit tests for FCFS timelines."""

import pytest

from repro.sim import Timeline


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

