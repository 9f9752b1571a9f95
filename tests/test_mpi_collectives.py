"""Collective-operation tests across communicator sizes (incl. non-powers of 2)."""

import numpy as np
import pytest

from repro.mpi import collectives as coll
from repro.mpi import run_spmd

from .conftest import make_machine

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


@pytest.mark.parametrize("op,expected", [(coll.MAX, 7), (coll.MIN, 0), (coll.SUM, 28)])
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
        return coll.exscan(comm, comm.rank + 1, op=coll.MAX)

    res = run_spmd(m, program)
    assert res.results == [None, 1, 2, 3]


def test_split_into_two_groups():
    m = make_machine(6)

    def program(comm):
        color = comm.rank % 2
        sub = comm.split(color)
        local = coll.allgather(sub, comm.rank)
        return (sub.rank, sub.size, local)

    res = run_spmd(m, program)
    for world_rank, (sub_rank, sub_size, members) in enumerate(res.results):
        assert sub_size == 3
        assert members == [r for r in range(6) if r % 2 == world_rank % 2]
        assert members[sub_rank] == world_rank


def test_split_with_none_color():
    m = make_machine(4)

    def program(comm):
        sub = comm.split(0 if comm.rank < 2 else None)
        if sub is None:
            return None
        return coll.allgather(sub, comm.rank)

    res = run_spmd(m, program)
    assert res.results == [[0, 1], [0, 1], None, None]


def test_split_key_reorders_ranks():
    m = make_machine(4)

    def program(comm):
        sub = comm.split(0, key=-comm.rank)  # reverse order
        return sub.rank

    res = run_spmd(m, program)
    assert res.results == [3, 2, 1, 0]


def test_collectives_on_subcommunicator_do_not_crosstalk():
    m = make_machine(4)

    def program(comm):
        sub = comm.split(comm.rank // 2)
        a = coll.allreduce(sub, comm.rank)
        b = coll.allreduce(comm, comm.rank)
        return (a, b)

    res = run_spmd(m, program)
    assert res.results == [(1, 6), (1, 6), (5, 6), (5, 6)]


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
            return coll.allreduce(comm, arr, op=coll.MIN)

        res = run_spmd(m, program)
        for out in res.results:
            np.testing.assert_array_equal(out, [0.0, -3.0])
