"""Collective-operation tests across communicator sizes (incl. non-powers of 2)."""

import threading
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import collectives as coll
from repro.mpi import run_spmd
from repro.sim import RankFailedError

from .conftest import make_machine
from .test_engine_handoff import _links, contended_machine

SIZES = [1, 2, 3, 4, 5, 8]


@pytest.mark.parametrize("size", SIZES)
def test_barrier_completes(size):
    m = make_machine(size)

    def program(comm):
        coll.barrier(comm)
        return True

    assert run_spmd(m, program).results == [True] * size


def test_barrier_synchronises_clocks():
    m = make_machine(4, latency=1e-3)

    def program(comm):
        comm.compute(float(comm.rank))  # rank 3 is 3s behind rank 0
        coll.barrier(comm)
        return comm.clock

    res = run_spmd(m, program)
    assert all(t >= 3.0 for t in res.results)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast(size, root):
    root = size - 1 if root == "last" else 0
    m = make_machine(size)

    def program(comm):
        obj = {"payload": 42} if comm.rank == root else None
        return coll.bcast(comm, obj, root=root)

    res = run_spmd(m, program)
    assert res.results == [{"payload": 42}] * size


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("root", [0, "mid"])
def test_gather(size, root):
    root = size // 2 if root == "mid" else 0
    m = make_machine(size)

    def program(comm):
        return coll.gather(comm, comm.rank * 2, root=root)

    res = run_spmd(m, program)
    for r, out in enumerate(res.results):
        if r == root:
            assert out == [i * 2 for i in range(size)]
        else:
            assert out is None


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("root", [0, "last"])
def test_scatter(size, root):
    root = size - 1 if root == "last" else 0
    m = make_machine(size)

    def program(comm):
        objs = [f"item{r}" for r in range(comm.size)] if comm.rank == root else None
        return coll.scatter(comm, objs, root=root)

    res = run_spmd(m, program)
    assert res.results == [f"item{r}" for r in range(size)]


def test_scatter_gather_roundtrip():
    m = make_machine(5)

    def program(comm):
        objs = None
        if comm.rank == 0:
            objs = [np.full(3, r) for r in range(comm.size)]
        mine = coll.scatter(comm, objs, root=0)
        back = coll.gather(comm, mine, root=0)
        if comm.rank == 0:
            return [a.tolist() for a in back]
        return None

    res = run_spmd(m, program)
    assert res.results[0] == [[r] * 3 for r in range(5)]


@pytest.mark.parametrize("size", SIZES)
def test_allgather(size):
    m = make_machine(size)

    def program(comm):
        return coll.allgather(comm, comm.rank**2)

    res = run_spmd(m, program)
    expected = [r * r for r in range(size)]
    assert res.results == [expected] * size


@pytest.mark.parametrize("size", SIZES)
def test_alltoall(size):
    m = make_machine(size)

    def program(comm):
        objs = [(comm.rank, d) for d in range(comm.size)]
        return coll.alltoall(comm, objs)

    res = run_spmd(m, program)
    for r, out in enumerate(res.results):
        assert out == [(s, r) for s in range(size)]


def test_alltoall_numpy_payloads():
    m = make_machine(4)

    def program(comm):
        objs = [np.full(2, comm.rank * 10 + d) for d in range(comm.size)]
        got = coll.alltoall(comm, objs)
        return [a.tolist() for a in got]

    res = run_spmd(m, program)
    for r, out in enumerate(res.results):
        assert out == [[s * 10 + r] * 2 for s in range(4)]


@pytest.mark.parametrize("size", SIZES)
def test_reduce_sum(size):
    m = make_machine(size)

    def program(comm):
        return coll.reduce(comm, comm.rank + 1, op=coll.SUM, root=0)

    res = run_spmd(m, program)
    assert res.results[0] == size * (size + 1) // 2


@pytest.mark.parametrize(
    "op,expected", [(max, 7), (min, 0), (coll.SUM, 28)], ids=["MAX-7", "MIN-0", "SUM-28"]
)
def test_allreduce_ops(op, expected):
    m = make_machine(8)

    def program(comm):
        return coll.allreduce(comm, comm.rank, op=op)

    res = run_spmd(m, program)
    assert res.results == [expected] * 8


def test_allreduce_numpy_arrays():
    m = make_machine(4)

    def program(comm):
        return coll.allreduce(comm, np.array([comm.rank, 1.0]))

    res = run_spmd(m, program)
    for out in res.results:
        np.testing.assert_allclose(out, [6.0, 4.0])


@pytest.mark.parametrize("size", SIZES)
def test_exscan_sum(size):
    m = make_machine(size)

    def program(comm):
        return coll.exscan(comm, comm.rank + 1)

    res = run_spmd(m, program)
    assert res.results == [sum(range(1, r + 1)) for r in range(size)]


def test_exscan_custom_op():
    m = make_machine(4)

    def program(comm):
        return coll.exscan(comm, comm.rank + 1, op=lambda a, b: max(a, b))

    res = run_spmd(m, program)
    assert res.results == [None, 1, 2, 3]


def test_gather_scatter_large_numpy_volume():
    m = make_machine(4)

    def program(comm):
        arr = np.full(10_000, comm.rank, dtype=np.float64)
        parts = coll.gather(comm, arr, root=0)
        if comm.rank == 0:
            total = np.concatenate(parts)
            assert total.shape == (40_000,)
            return float(total.sum())
        return None

    res = run_spmd(m, program)
    assert res.results[0] == pytest.approx(10_000 * (0 + 1 + 2 + 3))


# -- the batched rendezvous (repro.mpi.batch) --------------------------------


def _batched(program, nprocs=3, **kw):
    return run_spmd(make_machine(nprocs, **kw), program, batch_collectives=True)


@pytest.mark.parametrize("send", [True, False])
def test_a_send_to_a_rank_parked_in_a_batched_barrier_does_not_release_it(send):
    """Rank 0 is already inside the rendezvous when rank 1's message lands:
    the post wakes it (it is parked in no receive), there is nothing to take
    yet, and it has to park again.  Everyone leaves at the modelled
    completion time -- the one the same program has without the send, which
    rank 2's late arrival sets -- and the message is still in the mailbox."""

    def program(comm):
        if comm.rank == 1:
            comm.compute(1e-3)
            if send:
                comm.send("late", 0, tag=5)
        if comm.rank == 2:
            comm.compute(5e-3)
        coll.barrier(comm)
        left_at = comm.clock
        got = comm.recv(1, tag=5) if send and comm.rank == 0 else None
        return left_at, got

    res = _batched(program, latency=1e-5)
    left = [r[0] for r in res.results]
    assert left[0] == left[1] == left[2] > 5e-3
    assert res.results[0][1] == ("late" if send else None)
    if send:
        quiet = _batched(lambda comm: (comm.compute([0, 1e-3, 5e-3][comm.rank]),
                                       coll.barrier(comm), comm.clock)[2],
                         latency=1e-5)
        assert left == quiet.results


@pytest.mark.parametrize("size", [1, 2, 5])
def test_batched_collectives_deliver_what_the_messages_do(size):
    """Sizes travel with the contributions; the data delivered is unchanged."""

    def program(comm):
        mine = {"r": comm.rank, "a": np.full(3, comm.rank)}
        out = {
            "bcast": coll.bcast(comm, [1, np.ones(2)] if comm.rank == 0 else None,
                                root=0),
            "gather": coll.gather(comm, mine, root=size - 1),
            "scatter": coll.scatter(
                comm, [[r, np.arange(r)] for r in range(size)]
                if comm.rank == 0 else None, root=0),
            "allgather": coll.allgather(comm, (comm.rank, "x")),
            "alltoall": coll.alltoall(
                comm, [None if d == comm.rank else [comm.rank, d]
                       for d in range(size)]),
            "reduce": coll.reduce(comm, comm.rank + 1, op=lambda a, b: a + b, root=0),
        }
        return out, comm.clock

    batched = run_spmd(make_machine(size), program, batch_collectives=True)
    legacy = run_spmd(make_machine(size), program)
    for (b, _), (l, _) in zip(batched.results, legacy.results):
        assert repr(b) == repr(l)
    clocks = [clock for _, clock in batched.results]
    assert len(set(clocks)) == 1  # every batched collective synchronises


class TestCollectiveRoots:
    @pytest.mark.parametrize("root", [1, 3])
    def test_reduce_nonzero_root(self, root):
        m = make_machine(5)

        def program(comm):
            return coll.reduce(comm, comm.rank, op=coll.SUM, root=root)

        res = run_spmd(m, program)
        assert res.results[root] == 10
        assert all(r is None for i, r in enumerate(res.results) if i != root)

    def test_gatherv_scatterv_aliases(self):
        m = make_machine(3)

        def program(comm):
            objs = None
            if comm.rank == 1:
                objs = [f"p{r}" * (r + 1) for r in range(comm.size)]
            mine = coll.scatterv(comm, objs, root=1)
            back = coll.gatherv(comm, mine, root=1)
            return back

        res = run_spmd(m, program)
        assert res.results[1] == ["p0", "p1p1", "p2p2p2"]

    def test_allreduce_min_on_arrays(self):
        m = make_machine(4)

        def program(comm):
            arr = np.array([comm.rank, -comm.rank], dtype=np.float64)
            return coll.allreduce(comm, arr, op=np.minimum)

        res = run_spmd(m, program)
        for out in res.results:
            np.testing.assert_array_equal(out, [0.0, -3.0])


# -- the schedules against the per-message functions they replaced ---------------
#
# The reference below is the pre-schedule collectives verbatim (batched
# dispatch dropped): every rank runs its own send/recv loop in its own
# thread.  The schedules' last arriver steps the members thread-free instead,
# and must book the same messages at the same clocks on the same links.


def _ref_barrier(comm):
    tag = comm._next_internal_tag()
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    step = 1
    while step < size:
        dest = (rank + step) % size
        src = (rank - step) % size
        comm._post(None, dest, tag)
        comm.recv(src, tag)
        step <<= 1


def _ref_bcast(comm, obj, root=0):
    tag = comm._next_internal_tag()
    size, rank = comm.size, comm.rank
    if size == 1:
        return obj
    v = coll._vrank(rank, root, size)
    mask = 1
    while mask < size:
        if v & mask:
            obj = comm.recv(coll._rrank(v - mask, root, size), tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if v + mask < size:
            comm._post(obj, coll._rrank(v + mask, root, size), tag)
        mask >>= 1
    return obj


def _ref_gather(comm, obj, root=0):
    tag = comm._next_internal_tag()
    size, rank = comm.size, comm.rank
    v = coll._vrank(rank, root, size)
    acc = [(rank, obj)]
    mask = 1
    while mask < size:
        if v & mask:
            comm._post(acc, coll._rrank(v & ~mask, root, size), tag)
            acc = None
            break
        src_v = v | mask
        if src_v < size:
            acc.extend(comm.recv(coll._rrank(src_v, root, size), tag))
        mask <<= 1
    if rank == root:
        out = [None] * size
        for r, o in acc:
            out[r] = o
        return out
    return None


def _ref_scatter(comm, objs, root=0):
    tag = comm._next_internal_tag()
    size, rank = comm.size, comm.rank
    if rank == root:
        if objs is None or len(objs) != size:
            raise ValueError("root must supply one object per rank")
        bundle = {r: objs[r] for r in range(size)}
    else:
        bundle = None
    v = coll._vrank(rank, root, size)
    mask = 1
    while mask < size:
        if v & mask:
            bundle = comm.recv(coll._rrank(v - mask, root, size), tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if v + mask < size:
            lo, hi = v + mask, min(v + (mask << 1), size)
            sub = {}
            for x in range(lo, hi):
                r = coll._rrank(x, root, size)
                if r in bundle:
                    sub[r] = bundle.pop(r)
            comm._post(sub, coll._rrank(lo, root, size), tag)
        mask >>= 1
    return bundle[rank]


def _ref_allgather(comm, obj):
    tag = comm._next_internal_tag()
    size, rank = comm.size, comm.rank
    out = [None] * size
    out[rank] = obj
    right = (rank + 1) % size
    left = (rank - 1) % size
    carry = (rank, obj)
    for _ in range(size - 1):
        comm._post(carry, right, tag)
        carry = comm.recv(left, tag)
        out[carry[0]] = carry[1]
    return out


def _ref_alltoall(comm, objs):
    size, rank = comm.size, comm.rank
    if len(objs) != size:
        raise ValueError("alltoall needs one object per rank")
    tag = comm._next_internal_tag()
    out = [None] * size
    out[rank] = objs[rank]
    for step in range(1, size):
        dest = (rank + step) % size
        src = (rank - step) % size
        comm._post(objs[dest], dest, tag)
        out[src] = comm.recv(src, tag)
    return out


def _ref_reduce(comm, obj, op=coll.SUM, root=0):
    tag = comm._next_internal_tag()
    size, rank = comm.size, comm.rank
    v = coll._vrank(rank, root, size)
    acc = obj
    mask = 1
    while mask < size:
        if v & mask:
            comm._post(acc, coll._rrank(v & ~mask, root, size), tag)
            return None
        src_v = v | mask
        if src_v < size:
            acc = op(acc, comm.recv(coll._rrank(src_v, root, size), tag))
        mask <<= 1
    return acc


_REFERENCE = {
    "barrier": _ref_barrier,
    "bcast": _ref_bcast,
    "gather": _ref_gather,
    "scatter": _ref_scatter,
    "allgather": _ref_allgather,
    "alltoall": _ref_alltoall,
    "reduce": _ref_reduce,
}
_KINDS = sorted(_REFERENCE)


def _call(impl, kind, comm, root, nbytes):
    """One collective of ``kind`` with payloads that load the links unevenly."""
    root %= comm.size
    rank = comm.rank
    mine = bytes([rank]) * (nbytes * (rank + 1) % 5000 + 1)
    if kind == "barrier":
        return impl(comm)
    if kind == "bcast":
        return impl(comm, mine if rank == root else None, root=root)
    if kind in ("gather", "reduce"):
        return impl(comm, np.full(nbytes // 8 + 1, rank), root=root)
    if kind == "scatter":
        objs = [bytes([d]) * (nbytes + 97 * d) for d in range(comm.size)]
        return impl(comm, objs if rank == root else None, root=root)
    if kind == "allgather":
        return impl(comm, mine)
    return impl(comm, [bytes([d]) * (nbytes // (d + 1) + 1) for d in range(comm.size)])


def _plain(x):
    """A result as ``==``-comparable data (arrays become lists)."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (list, tuple)):
        return [_plain(i) for i in x]
    return x


def _mix_program(ops, reference):
    def program(comm):
        out = []
        for op in ops:
            if op[0] == "compute":
                comm.compute(op[1][comm.rank % len(op[1])])
            elif op[0] == "p2p":
                _, src, hop, nbytes = op
                src %= comm.size
                dst = (src + 1 + hop % (comm.size - 1)) % comm.size
                if comm.rank == src:
                    comm.send(bytes([src]) * nbytes, dst, tag=7)
                elif comm.rank == dst:
                    out.append(len(comm.recv(src, tag=7)))
            else:
                kind, root, nbytes = op
                impl = _REFERENCE[kind] if reference else getattr(coll, kind)
                out.append(_plain(_call(impl, kind, comm, root, nbytes)))
        return out

    return program


def _observe(nprocs, program):
    """Clocks, results and every link's timeline of one run."""
    machine = contended_machine(nprocs, ppn=2)
    res = run_spmd(machine, program)
    return res.rank_times, res.results, _links(machine.network)


_mix = st.lists(
    st.one_of(
        st.tuples(
            st.just("compute"),
            st.lists(st.floats(0.0, 2e-3, allow_nan=False), min_size=1, max_size=6),
        ),
        st.tuples(st.just("p2p"), st.integers(0, 5), st.integers(0, 4),
                  st.integers(1, 6000)),
        st.tuples(st.sampled_from(_KINDS), st.integers(0, 5), st.integers(1, 4000)),
    ),
    max_size=10,
)


@settings(max_examples=50, deadline=None)
@given(nprocs=st.integers(2, 6), ops=_mix)
def test_property_schedules_book_what_the_per_message_functions_did(nprocs, ops):
    got = _observe(nprocs, _mix_program(ops, reference=False))
    assert got == _observe(nprocs, _mix_program(ops, reference=True))


def _handed_back(monkeypatch):
    """Record, per replay, whether it left any member's schedule unfinished."""
    seen = []
    replay = coll._Collective.replay

    def spy(op, me):
        replay(op, me)
        seen.append(any(step is not None for step in op.steps))

    monkeypatch.setattr(coll._Collective, "replay", spy)
    return seen


def test_hand_back_when_the_bcast_root_finishes_inside_the_replay(monkeypatch):
    """Rank 3 enters 5 ms late, so the replay books the root's posts and the
    root's schedule ends inside it.  The root's next send (to rank 2, on
    links the bcast uses) comes before the replay's later bcast posts, so
    the replay must stop at the root's exit clock."""

    def program(impl):
        def run(comm):
            comm.compute([0.0, 4e-4, 6e-4, 5e-3][comm.rank])
            data = impl(comm, bytes(3000) if comm.rank == 0 else None, root=0)
            if comm.rank == 0:
                comm.compute(1e-3)
                comm.send(bytes(5000), 2, tag=1)
            if comm.rank == 2:
                comm.recv(0, tag=1)
            return len(data)
        return run

    seen = _handed_back(monkeypatch)
    got = _observe(4, program(coll.bcast))
    assert seen == [True]
    assert got == _observe(4, program(_ref_bcast))


def test_hand_back_when_a_returned_member_is_ready_at_a_lower_clock(monkeypatch):
    """Leaf rank 0 posts its contribution and leaves the reduce before the
    last member enters; it is READY at its next send (to rank 2, across the
    fabric) below the replay's remaining posts, so the replay must stop
    there, keyed at where the returned member stands."""

    def program(impl):
        def run(comm):
            out = impl(comm, np.full(2000, comm.rank), root=1)
            if comm.rank == 0:
                comm.compute(1e-4)
                comm.send(bytes(20000), 2, tag=1)
            if comm.rank == 2:
                comm.recv(0, tag=1)
            return _plain(out)
        return run

    returned = []
    replay = coll._Collective.replay

    def spy(op, me):
        returned.append(op.comms[0] is None)
        replay(op, me)

    monkeypatch.setattr(coll._Collective, "replay", spy)
    got = _observe(4, program(coll.reduce))
    assert returned == [True]
    assert got == _observe(4, program(_ref_reduce))


def test_an_error_in_a_replayed_fold_fails_the_job_as_the_folding_rank():
    """After a barrier rank 2 enters the reduce last; its post reaches rank 3
    inside the replay, so rank 3's fold runs on rank 2's thread -- and still
    fails the job as rank 3, chaining the error, as a fold in rank 3's own
    thread does."""
    threads = []

    def op(a, b):
        if a == 1 << 3:  # rank 3's own contribution, not folded yet
            threads.append(threading.current_thread().name)
            raise ZeroDivisionError("fold on rank 3")
        return a + b

    def program(comm):
        coll.barrier(comm)
        return coll.reduce(comm, 1 << comm.rank, op=op, root=1)

    with pytest.raises(RankFailedError) as ei:
        run_spmd(make_machine(4), program)
    assert ei.value.rank == 3
    assert isinstance(ei.value.__cause__, ZeroDivisionError)
    assert threads == ["sim-rank-2"]
