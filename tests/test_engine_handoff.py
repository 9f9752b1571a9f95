"""The rank hand-off is invisible to simulated time -- and stays cheap.

PR 18 took the schedule point out of blocking named-source receives, made a
post wake only a receiver it matches, and turned the baton into a raw lock;
since every receive names its source and tag, none takes a schedule point.
None of that may move a virtual clock, so this file pins:

1. *golden clocks* -- fixed programs on a contended machine; every literal
   in ``GOLDEN`` was captured on the parent commit (4f41f43, the ``Event``
   engine that yielded before every receive) and is compared with ``==``;
2. a hypothesis property against a single-threaded reference simulator;
3. the *crossing budget* -- exact ``Engine.context_switches`` per program,
   so a re-introduced yield fails tier-1 -- and, since the collectives became
   schedules that their last-arriving rank replays thread-free, a collective
   that stops being replayed fails it too;
4. *thread hygiene* and engine reuse after success, failure and deadlock;
5. what a ``DeadlockError`` says.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import (
    SUM,
    Comm,
    MpiWorld,
    allgather,
    alltoall,
    barrier,
    bcast,
    irecv,
    reduce,
    run_spmd,
)
from repro.sim import DeadlockError, Engine, RankFailedError
from repro.topology import Machine, SwitchedNetwork

from .conftest import sim_rank_threads

LATENCY = 120e-6


def contended_machine(nprocs, ppn=2):
    """Chiba-City-style switched Ethernet with ``ppn`` ranks behind each NIC."""
    net = SwitchedNetwork(
        nnodes=(nprocs + ppn - 1) // ppn,
        latency=LATENCY,
        bandwidth=11.5e6,
        fabric_bandwidth=20e6,
        name="fast-ethernet",
    )
    return Machine(name="contended", nprocs=nprocs, procs_per_node=ppn, network=net)


# -- the fixed programs ------------------------------------------------------


def ring_allgather(comm):
    comm.compute(comm.rank * 3e-4)
    out = allgather(comm, np.arange(500 * (comm.rank + 1), dtype=np.int64))
    return [int(a.sum()) for a in out]


def dissemination_barrier(comm):
    comm.compute((comm.size - comm.rank) * 2.5e-4)
    barrier(comm)
    comm.compute(comm.rank * 1e-4)
    barrier(comm)
    return None


def pairwise_alltoall(comm):
    comm.compute(((comm.rank * 7) % 4) * 4e-4)
    out = alltoall(
        comm, [bytes([comm.rank * 16 + d]) * (300 * (d + 1)) for d in range(comm.size)]
    )
    return [(b[0], len(b)) for b in out]


def bcast_reduce(comm):
    comm.compute(comm.rank * 2e-4)
    data = bcast(comm, list(range(400)) if comm.rank == 2 else None, root=2)
    return reduce(comm, comm.rank + len(data), SUM, root=1)


def irecv_overlap(comm):
    left, right = (comm.rank - 1) % comm.size, (comm.rank + 1) % comm.size
    req = irecv(comm, left, tag=3)
    comm.compute((comm.rank + 1) * 5e-4)
    comm.send(np.full(2000, comm.rank, dtype=np.int32), right, tag=3)
    comm.compute(1e-4)
    return int(req.wait().sum())


def collectives_beside_p2p(comm):
    """Odd ranks, one behind each NIC, exchange point-to-point messages
    before entering a reduce and after leaving it, beside the collectives'
    replays: the reduce's leaves return before rank 0 enters last, so its
    replay stops at their exit clocks and hands the rest back to the
    threads, and the direct hand-over interleaves with outside posts."""
    odd = comm.rank % 2
    right, left = (comm.rank + 2) % comm.size, (comm.rank - 2) % comm.size
    got = []

    def exchange(k):
        comm.send(np.full(150 * (k + 1), comm.rank, dtype=np.int16), right, tag=6)
        got.append(int(comm.recv(left, tag=6).sum()))
        comm.compute(1.5e-4)

    comm.compute(((comm.rank * 5) % 3) * 2e-4)
    barrier(comm)
    if odd:
        exchange(0)
    if comm.rank == 0:
        comm.compute(1e-3)
    total = reduce(comm, np.full(1000, comm.rank, dtype=np.int32), SUM, root=0)
    if odd:
        exchange(1)
    out = alltoall(
        comm, [bytes([comm.rank * 8 + d]) * (250 * (d + 1)) for d in range(comm.size)]
    )
    barrier(comm)
    if odd:
        exchange(2)
    return [(b[0], len(b)) for b in out], got, None if total is None else int(total.sum())


PROGRAMS = {
    "ring_allgather": (ring_allgather, 5),
    "dissemination_barrier": (dissemination_barrier, 6),
    "pairwise_alltoall": (pairwise_alltoall, 4),
    "bcast_reduce": (bcast_reduce, 6),
    "irecv_overlap": (irecv_overlap, 4),
    "collectives_beside_p2p": (collectives_beside_p2p, 6),
}


def observe(name):
    """Everything simulated time can show for one program, as plain data."""
    program, nprocs = PROGRAMS[name]
    machine = contended_machine(nprocs)
    res = run_spmd(machine, program)
    net = machine.network
    links = {
        t.name.partition(".")[2]: (t.busy_until, t.busy_time, t.requests)
        for t in [*net.egress, *net.ingress, net.fabric]
    }
    return {"clocks": res.rank_times, "results": res.results, "links": links}, res


# Captured on the parent commit by printing ``observe(name)[0]``
# (``collectives_beside_p2p`` on 28e1005, the engine that still had
# sub-communicators, wildcard receives and polls).
GOLDEN = {
    "bcast_reduce": {
        "clocks": [0.0009634782608695652, 0.0016426086956521744, 0.00088,
                   0.0014013043478260873, 0.0011600000000000002, 0.0013600000000000003],
        "results": [None, 2415, None, None, None, None],
        "links": {
            "egress[0]": (0.0008447826086956522, 1.3043478260869566e-06, 1),
            "egress[1]": (0.001282608695652174, 0.00016956521739130436, 4),
            "egress[2]": (0.001241304347826087, 2.6086956521739132e-06, 2),
            "ingress[0]": (0.0014026086956521742, 8.739130434782609e-05, 4),
            "ingress[1]": (0.001161304347826087, 1.3043478260869566e-06, 1),
            "ingress[2]": (0.0009647826086956522, 8.478260869565218e-05, 2),
            "fabric": (0.0012820543478260873, 9.975000000000003e-05, 7),
        },
    },
    "collectives_beside_p2p": {
        "clocks": [0.005002347826086958, 0.0054820000000000025, 0.005002347826086958,
                   0.00547026086956522, 0.005002747826086958, 0.005527000000000002],
        "results": [
            ([(0, 250), (8, 250), (16, 250), (24, 250), (32, 250), (40, 250)], [], 15000),
            ([(1, 500), (9, 500), (17, 500), (25, 500), (33, 500), (41, 500)],
             [750, 1500, 2250], None),
            ([(2, 750), (10, 750), (18, 750), (26, 750), (34, 750), (42, 750)], [], None),
            ([(3, 1000), (11, 1000), (19, 1000), (27, 1000), (35, 1000), (43, 1000)],
             [150, 300, 450], None),
            ([(4, 1250), (12, 1250), (20, 1250), (28, 1250), (36, 1250), (44, 1250)],
             [], None),
            ([(5, 1500), (13, 1500), (21, 1500), (29, 1500), (37, 1500), (45, 1500)],
             [450, 900, 1350], None),
        ],
        "links": {
            "egress[0]": (0.00508026086956522, 0.0009426086956521737, 21),
            "egress[1]": (0.005080956521739132, 0.0011165217391304356, 22),
            "egress[2]": (0.00508026086956522, 0.0009426086956521736, 22),
            "ingress[0]": (0.00520026086956522, 0.0011165217391304356, 23),
            "ingress[1]": (0.00520026086956522, 0.0007686956521739128, 21),
            "ingress[2]": (0.0052009565217391324, 0.0011165217391304351, 21),
            "fabric": (0.005137000000000002, 0.0017259999999999977, 65),
        },
    },
    "dissemination_barrier": {
        "clocks": [0.003340695652173913, 0.0033207826086956516, 0.003340695652173913,
                   0.0033207826086956516, 0.0033410434782608694, 0.003321130434782608],
        "results": [None, None, None, None, None, None],
        "links": {
            "egress[0]": (0.0031010434782608697, 3.478260869565217e-06, 10),
            "egress[1]": (0.003081478260869565, 3.478260869565217e-06, 10),
            "egress[2]": (0.003100695652173913, 3.478260869565217e-06, 10),
            "ingress[0]": (0.003201478260869565, 3.478260869565217e-06, 10),
            "ingress[1]": (0.003220695652173913, 3.478260869565217e-06, 10),
            "ingress[2]": (0.0032210434782608695, 3.478260869565217e-06, 10),
            "fabric": (0.003100895652173913, 5.999999999999996e-06, 30),
        },
    },
    "irecv_overlap": {
        "clocks": [0.0029356521739130432, 0.0013400000000000003, 0.0019356521739130439,
                   0.0023399999999999996],
        "results": [6000, 0, 2000, 4000],
        "links": {
            "egress[0]": (0.0016956521739130434, 0.0006956521739130435, 1),
            "egress[1]": (0.0026956521739130435, 0.0006956521739130435, 1),
            "ingress[0]": (0.0028156521739130433, 0.0006956521739130435, 1),
            "ingress[1]": (0.0018156521739130438, 0.0006956521739130435, 1),
            "fabric": (0.0024000000000000002, 0.0008, 2),
        },
    },
    "pairwise_alltoall": {
        "clocks": [0.002024347826086957, 0.0020504347826086964, 0.001998260869565218,
                   0.0021286956521739137],
        "results": [[(0, 300), (16, 300), (32, 300), (48, 300)],
                    [(1, 600), (17, 600), (33, 600), (49, 600)],
                    [(2, 900), (18, 900), (34, 900), (50, 900)],
                    [(3, 1200), (19, 1200), (35, 1200), (51, 1200)]],
        "links": {
            "egress[0]": (0.0018886956521739137, 0.00036521739130434785, 4),
            "egress[1]": (0.0018104347826086963, 0.0001565217391304348, 4),
            "ingress[0]": (0.0019304347826086964, 0.0001565217391304348, 4),
            "ingress[1]": (0.002008695652173914, 0.00036521739130434785, 4),
            "fabric": (0.001848260869565218, 0.00030000000000000003, 8),
        },
    },
    "ring_allgather": {
        "clocks": [0.006588982608695653, 0.006566121739130436, 0.008402182608695652,
                   0.008153234782608697, 0.0048025826086956535],
        "results": [[124750, 499500, 1124250, 1999000, 3123750],
                    [124750, 499500, 1124250, 1999000, 3123750],
                    [124750, 499500, 1124250, 1999000, 3123750],
                    [124750, 499500, 1124250, 1999000, 3123750],
                    [124750, 499500, 1124250, 1999000, 3123750]],
        "links": {
            "egress[0]": (0.007867026086956523, 0.004219826086956522, 4),
            "egress[1]": (0.0044241739130434785, 0.0035241739130434783, 4),
            "egress[2]": (0.006115478260869565, 0.004915478260869566, 4),
            "ingress[0]": (0.0062354782608695656, 0.004915478260869566, 4),
            "ingress[1]": (0.007987026086956523, 0.004219826086956522, 4),
            "ingress[2]": (0.004544173913043479, 0.0035241739130434783, 4),
            "fabric": (0.008162182608695652, 0.0072791999999999996, 12),
        },
    },
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_golden_clocks(name):
    seen, _ = observe(name)
    assert seen == GOLDEN[name]


# -- property: threads vs a single-threaded replay -------------------------------


def _per_rank_programs(nprocs, events):
    """Project a global event list onto per-rank op lists (deadlock-free:
    the global order is one valid serialisation, and sends never block)."""
    progs = [[] for _ in range(nprocs)]
    for i, ev in enumerate(events):
        if ev[0] == "compute":
            _, rank, dt = ev
            progs[rank % nprocs].append(("compute", dt))
        else:
            _, src, hop, nbytes = ev
            src %= nprocs
            dst = (src + 1 + hop % (nprocs - 1)) % nprocs
            progs[src].append(("send", dst, bytes([i % 256]) * nbytes))
            progs[dst].append(("recv", src))
    return progs


def _run_threads(nprocs, progs):
    def program(comm):
        got = []
        for op in progs[comm.rank]:
            if op[0] == "compute":
                comm.compute(op[1])
            elif op[0] == "send":
                comm.send(op[2], op[1])
            else:
                got.append(comm.recv(op[1]))
        return got

    machine = contended_machine(nprocs)
    res = run_spmd(machine, program)
    return res.rank_times, res.results, _links(machine.network)


def _links(net):
    return [
        (t.busy_until, t.busy_time, t.requests)
        for t in [*net.egress, *net.ingress, net.fabric]
    ]


def _run_reference(nprocs, progs):
    """No threads, no engine: run every rank up to its next post (computes and
    named-source receives are local), then let the rank with the smallest
    ``(clock, rank)`` post against a fresh Network; repeat."""
    machine = contended_machine(nprocs)
    net = machine.network
    clock, pc = [0.0] * nprocs, [0] * nprocs
    wire = {(s, d): [] for s in range(nprocs) for d in range(nprocs)}
    got = [[] for _ in range(nprocs)]
    while True:
        posting = []
        for r in range(nprocs):
            while pc[r] < len(progs[r]):
                op = progs[r][pc[r]]
                if op[0] == "compute":
                    clock[r] += op[1]
                elif op[0] == "recv" and wire[op[1], r]:
                    arrival, payload = wire[op[1], r].pop(0)
                    clock[r] = max(clock[r], arrival)
                    clock[r] += net.latency
                    got[r].append(payload)
                else:
                    if op[0] == "send":
                        posting.append((clock[r], r))
                    break
                pc[r] += 1
        if not posting:
            break
        _, r = min(posting)
        _, dst, payload = progs[r][pc[r]]
        arrival = net.transfer(
            clock[r], machine.node_of(r), machine.node_of(dst), len(payload)
        )
        wire[r, dst].append((arrival, payload))
        clock[r] += net.latency
        pc[r] += 1
    assert pc == [len(p) for p in progs], "reference deadlocked"
    return clock, got, _links(net)


_events = st.lists(
    st.one_of(
        st.tuples(
            st.just("compute"),
            st.integers(0, 4),
            st.floats(0.0, 2e-3, allow_nan=False),
        ),
        st.tuples(
            st.just("msg"), st.integers(0, 4), st.integers(0, 3), st.integers(1, 6000)
        ),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(nprocs=st.integers(2, 5), events=_events)
def test_property_threads_equal_single_threaded_replay(nprocs, events):
    progs = _per_rank_programs(nprocs, events)
    first = _run_threads(nprocs, progs)
    assert _run_threads(nprocs, progs) == first
    assert _run_reference(nprocs, progs) == first


# -- crossing budget ----------------------------------------------------------------

# Exact and deterministic.  The engine that yielded before every receive and
# woke on every post made 35 / 86 / 25 / 23 / 6 on the first five programs;
# with one thread per collective message (before the replay) it was
# 21 / 54 / 16 / 17 / 5.  ``irecv_overlap`` kept 5 when the poll at post (a
# schedule point) went: each poll found its rank first in line, so none of
# them switched.
SWITCHES = {
    "ring_allgather": 8,
    "dissemination_barrier": 10,
    "pairwise_alltoall": 3,
    "bcast_reduce": 10,
    "irecv_overlap": 5,
    "collectives_beside_p2p": 35,
}


@pytest.mark.parametrize("name", sorted(SWITCHES))
def test_crossing_budget(name):
    _, res = observe(name)
    assert res.engine.context_switches == SWITCHES[name]


# -- thread hygiene and engine reuse ------------------------------------------------


def _ring(comm):
    comm.send(comm.rank, (comm.rank + 1) % comm.size, tag=1)
    return comm.recv((comm.rank - 1) % comm.size, tag=1)


def _one_rank_raises(comm):
    if comm.rank == 2:
        raise ValueError("boom")
    barrier(comm)


def _recv_never_sent(comm):
    if comm.rank == 0:
        comm.recv(1, tag=5)


@pytest.mark.parametrize(
    "first, cause",
    [(_ring, None), (_one_rank_raises, ValueError), (_recv_never_sent, DeadlockError)],
)
def test_no_rank_thread_outlives_a_run_and_the_engine_runs_again(first, cause):
    machine = contended_machine(4)
    engine = Engine(4)

    def run(program):
        world = MpiWorld(engine=engine, machine=machine)
        return engine.run(lambda proc: program(Comm(world, proc)))

    if cause is None:
        assert run(first) == [3, 0, 1, 2]
    else:
        with pytest.raises(RankFailedError) as ei:
            run(first)
        assert isinstance(ei.value.__cause__, cause)
    assert sim_rank_threads() == []
    assert run(_ring) == [3, 0, 1, 2]
    assert sim_rank_threads() == []


# -- what a deadlock says -------------------------------------------------------------


def _deadlock_of(run):
    with pytest.raises(RankFailedError) as ei:
        run()
    dead = ei.value.__cause__
    assert isinstance(dead, DeadlockError)
    return ei.value.rank, str(dead)


def test_deadlock_lists_every_rank_that_blocked_bare():
    rank, msg = _deadlock_of(lambda: Engine(2).run(lambda proc: proc.block()))
    assert rank == 1
    assert "rank 0 at t=0.000000 in block()" in msg
    assert "rank 1 at t=0.000000 in block()" in msg


def test_deadlock_after_the_peer_exits_names_the_blocked_rank():
    def main(proc):
        if proc.rank == 1:
            proc.advance(2.5)
            proc.block()

    rank, msg = _deadlock_of(lambda: Engine(2).run(main))
    assert rank == 1
    assert "rank 1 at t=2.500000 in block()" in msg
    assert "rank 0" not in msg.splitlines()[1]


def test_deadlocked_receive_names_its_source_and_tag():
    rank, msg = _deadlock_of(lambda: run_spmd(contended_machine(4), _recv_never_sent))
    assert rank == 0
    assert "1 rank(s) blocked" in msg
    assert "rank 0 at t=0.000000 in recv(source=1, tag=5)" in msg


def test_a_rank_parked_in_a_collective_names_the_collective():
    def skips_the_barrier(comm):
        if comm.rank != 3:
            barrier(comm)

    rank, msg = _deadlock_of(lambda: run_spmd(contended_machine(4), skips_the_barrier))
    assert "3 rank(s) blocked" in msg
    assert "rank 0 at t=0.000120 in barrier: recv(source=3, tag=" in msg


def test_deadlocked_ring_names_every_rank_and_the_source_it_awaits():
    def recv_before_send(comm):
        left = (comm.rank - 1) % comm.size
        comm.compute(comm.rank * 1e-3)
        got = comm.recv(left, tag=2)
        comm.send(got, (comm.rank + 1) % comm.size, tag=2)

    rank, msg = _deadlock_of(lambda: run_spmd(contended_machine(4), recv_before_send))
    assert rank == 3
    assert "4 rank(s) blocked" in msg
    for r, left in enumerate([3, 0, 1, 2]):
        assert f"rank {r} at t={r * 1e-3:.6f} in recv(source={left}, tag=2)" in msg
