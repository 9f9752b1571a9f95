"""Tests for nonblocking point-to-point operations."""

import numpy as np
import pytest

from repro.mpi import irecv, isend, run_spmd, waitall

from .conftest import make_machine


def test_isend_completes_immediately(machine4):
    def program(comm):
        if comm.rank == 0:
            req = isend(comm, "hello", 1)
            clock = comm.clock
            assert req.wait() is None
            assert comm.clock == clock  # nothing left to wait for
        elif comm.rank == 1:
            return comm.recv(0)
        return None

    res = run_spmd(machine4, program)
    assert res.results[1] == "hello"


def test_irecv_wait(machine4):
    def program(comm):
        if comm.rank == 0:
            isend(comm, np.arange(5), 1, tag=3)
            return None
        if comm.rank == 1:
            req = irecv(comm, 0, tag=3)
            return req.wait().tolist()
        return None

    res = run_spmd(machine4, program)
    assert res.results[1] == [0, 1, 2, 3, 4]


def test_irecv_completes_if_message_already_queued(machine4):
    def program(comm):
        if comm.rank == 0:
            comm.send("early", 1)
        from repro.mpi import collectives as coll

        coll.barrier(comm)
        if comm.rank == 1:
            # The message arrived before the irecv was posted.
            req = irecv(comm, 0)
            clock = comm.clock
            return req.wait(), req.wait(), comm.clock - clock
        return None

    res = run_spmd(machine4, program)
    value, again, waited = res.results[1]
    assert value == again == "early"  # a second wait receives nothing more
    assert waited == pytest.approx(machine4.network.latency)  # overhead only


def test_waitall_gathers_in_order(machine4):
    def program(comm):
        if comm.rank == 0:
            reqs = [irecv(comm, src, tag=src) for src in (1, 2, 3)]
            return waitall(reqs)
        comm.send(comm.rank * 11, 0, tag=comm.rank)
        return None

    res = run_spmd(machine4, program)
    assert res.results[0] == [11, 22, 33]


def test_overlap_pattern_post_work_wait():
    """The classic ROMIO overlap: post receives, compute, then wait."""
    m = make_machine(3, latency=1e-3, bandwidth=1e6)

    def program(comm):
        if comm.rank == 0:
            reqs = [irecv(comm, src) for src in (1, 2)]
            comm.compute(0.5)
            values = waitall(reqs)
            return values, comm.clock
        comm.send(comm.rank, 0)
        return None

    res = run_spmd(m, program)
    values, clock = res.results[0]
    assert values == [1, 2]
    # The compute time dominated; messages overlapped with it.
    assert clock == pytest.approx(0.5, abs=0.05)
