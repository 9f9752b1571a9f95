"""Unit tests for the discrete-event SPMD engine."""

import threading

import pytest

from repro.sim import (
    DeadlockError,
    Engine,
    ProcState,
    RankFailedError,
)

from .conftest import sim_rank_threads


def test_single_rank_returns_value():
    eng = Engine(1)

    def main(proc):
        proc.advance(1.5)
        return proc.rank * 10

    assert eng.run(main) == [0]
    assert eng.procs[0].clock == pytest.approx(1.5)


def test_all_ranks_run_and_return():
    eng = Engine(8)
    results = eng.run(lambda p: p.rank * p.rank)
    assert results == [r * r for r in range(8)]


def test_advance_accumulates_time():
    eng = Engine(4)

    def main(proc):
        for _ in range(10):
            proc.advance(0.25)
        return proc.clock

    assert eng.run(main) == [pytest.approx(2.5)] * 4


def test_advance_rejects_negative():
    eng = Engine(1)

    def main(proc):
        proc.advance(-1.0)

    with pytest.raises(RankFailedError) as ei:
        eng.run(main)
    assert isinstance(ei.value.__cause__, ValueError)


@pytest.mark.parametrize(
    "poison",
    [
        lambda proc: proc.advance(float("nan")),
        lambda proc: proc.advance_to(float("nan")),
        lambda proc: proc.wake(at_time=float("nan")),
    ],
    ids=["advance", "advance_to", "wake"],
)
def test_nan_never_reaches_the_clock(poison):
    """``nan < 0`` is false: a nan must be rejected, not compared away."""
    eng = Engine(1)
    with pytest.raises(RankFailedError) as ei:
        eng.run(poison)
    assert isinstance(ei.value.__cause__, ValueError)
    assert eng.procs[0].clock == 0.0


def test_advance_to_is_monotone():
    eng = Engine(1)

    def main(proc):
        proc.advance_to(5.0)
        proc.advance_to(3.0)  # no-op: cannot move backwards
        return proc.clock

    assert eng.run(main) == [5.0]


def test_schedule_point_orders_shared_access_by_time():
    """Ranks touching shared state do so in virtual-time order."""
    eng = Engine(4)
    order = []

    def main(proc):
        # Rank r computes for (3 - r) seconds, so the rank with the largest
        # rank id reaches the shared list *first* in wall-clock terms but
        # *last* ranks by virtual time must win.
        proc.advance(3 - proc.rank)
        proc.schedule_point()
        order.append((proc.clock, proc.rank))

    eng.run(main)
    assert order == sorted(order)
    assert [r for _, r in order] == [3, 2, 1, 0]


def test_schedule_point_tie_breaks_by_rank():
    eng = Engine(5)
    order = []

    def main(proc):
        proc.schedule_point()
        order.append(proc.rank)
        proc.advance(1.0)
        proc.schedule_point()
        order.append(proc.rank)

    eng.run(main)
    assert order[:5] == [0, 1, 2, 3, 4]
    assert order[5:] == [0, 1, 2, 3, 4]


def test_block_and_wake_transfers_time():
    eng = Engine(2)

    def main(proc):
        other = eng.procs[1 - proc.rank]
        if proc.rank == 1:
            # Block until rank 0 wakes us at its (later) time.
            proc.block()
            return proc.clock
        proc.advance(10.0)
        proc.schedule_point()
        other.wake(at_time=proc.clock + 0.5)
        return proc.clock

    results = eng.run(main)
    assert results[0] == pytest.approx(10.0)
    assert results[1] == pytest.approx(10.5)


def test_wake_never_moves_clock_backwards():
    eng = Engine(2)

    def main(proc):
        other = eng.procs[1 - proc.rank]
        if proc.rank == 1:
            proc.advance(100.0)
            proc.schedule_point()
            proc.block()
            return proc.clock
        proc.advance(200.0)
        proc.schedule_point()
        other.wake(at_time=5.0)  # arrival in rank 1's past
        return None

    results = eng.run(main)
    assert results[1] == pytest.approx(100.0)


def test_deadlock_detected_when_all_block():
    eng = Engine(2)

    def main(proc):
        proc.block()

    with pytest.raises(RankFailedError) as ei:
        eng.run(main)
    assert isinstance(ei.value.__cause__, DeadlockError)


def test_deadlock_detected_when_peer_exits_without_waking():
    eng = Engine(2)

    def main(proc):
        if proc.rank == 0:
            return "done"
        proc.block()

    with pytest.raises(RankFailedError) as ei:
        eng.run(main)
    assert isinstance(ei.value.__cause__, DeadlockError)


def test_rank_exception_propagates_with_rank_id():
    eng = Engine(4)

    def main(proc):
        if proc.rank == 2:
            raise ValueError("boom on rank 2")
        proc.advance(1.0)
        proc.schedule_point()
        proc.block()  # would deadlock, but rank 2's failure aborts first

    with pytest.raises(RankFailedError) as ei:
        eng.run(main)
    assert ei.value.rank == 2
    assert isinstance(ei.value.__cause__, ValueError)


def test_failed_thread_start_releases_the_started_ranks(monkeypatch):
    """``can't start new thread`` (the P=1024 hazard) must not wedge the engine."""
    eng = Engine(4)
    real_start = threading.Thread.start

    def start(thread):
        if thread.name == "sim-rank-2":
            raise RuntimeError("can't start new thread")
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        eng.run(lambda proc: proc.rank)
    monkeypatch.undo()
    assert sim_rank_threads() == []
    assert eng.run(lambda proc: proc.rank) == [0, 1, 2, 3]


def test_engine_is_deterministic():
    """Two identical runs produce identical event orders and clocks."""

    def build():
        eng = Engine(6)
        trace = []

        def main(proc):
            for step in range(5):
                proc.advance(((proc.rank * 7 + step * 3) % 5) * 0.1)
                proc.schedule_point()
                trace.append((round(proc.clock, 9), proc.rank, step))
            return proc.clock

        clocks = eng.run(main)
        return trace, clocks

    t1, c1 = build()
    t2, c2 = build()
    assert t1 == t2
    assert c1 == c2


def test_max_clock_reports_makespan():
    eng = Engine(3)
    eng.run(lambda p: p.advance(float(p.rank)))
    assert eng.max_clock == pytest.approx(2.0)


def test_nprocs_validation():
    with pytest.raises(ValueError):
        Engine(0)


def test_proc_state_after_run():
    eng = Engine(3)
    eng.run(lambda p: None)
    assert all(p.state is ProcState.DONE for p in eng.procs)


def test_run_passes_args_and_kwargs():
    eng = Engine(2)

    def main(proc, a, b=0):
        return proc.rank + a + b

    assert eng.run(main, args=(10,), kwargs={"b": 100}) == [110, 111]


def test_many_ranks():
    eng = Engine(64)
    results = eng.run(lambda p: p.rank)
    assert results == list(range(64))
