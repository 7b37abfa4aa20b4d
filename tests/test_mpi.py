"""The MPI-like substrate: point-to-point, collectives, SPMD launch."""

import pytest

from repro.errors import ConfigurationError, DeadlockError
from repro.fabric import Grid1D, Grid2D
from repro.machine import FAST_TEST_MACHINE
from repro.mpi import Comm, run_spmd


class TestCommBasics:
    def test_rank_and_size(self):
        comm = Comm(Grid2D(2, 3), (1, 2))
        assert comm.rank == 5
        assert comm.size == 6
        assert comm.coord == (1, 2)

    def test_ring_exchange(self):
        """Each rank sends right, receives from left."""

        def program(comm):
            p = comm.size
            j = comm.coord[0]
            right = ((j + 1) % p,)
            left = ((j - 1) % p,)
            req = yield comm.irecv(src=left, tag="ring")
            yield comm.send(right, "ring", payload=j)
            msg = yield comm.wait(req)
            comm.vars["from_left"] = msg.payload

        result = run_spmd(Grid1D(4), program, machine=FAST_TEST_MACHINE)
        for j in range(4):
            assert result.places[(j,)]["from_left"] == (j - 1) % 4

    def test_deadlock_detection(self):
        """Everyone receives and nobody sends: caught by the fabric."""

        def program(comm):
            yield comm.recv(tag="never")

        with pytest.raises(DeadlockError):
            run_spmd(Grid1D(2), program, machine=FAST_TEST_MACHINE)


class TestCollectives:
    def test_bcast_row(self):
        def program(comm):
            i, j = comm.coord
            row = [(i, jj) for jj in range(3)]
            payload = f"row{i}" if j == 0 else None
            value = yield from comm.bcast(row, (i, 0), ("b", i), payload)
            comm.vars["got"] = value

        result = run_spmd(Grid2D(2, 3), program, machine=FAST_TEST_MACHINE)
        for i in range(2):
            for j in range(3):
                assert result.places[(i, j)]["got"] == f"row{i}"

    def test_bcast_root_must_be_member(self):
        def program(comm):
            yield from comm.bcast([(0,)], (1,), "t", None)

        with pytest.raises(Exception, match="root"):
            run_spmd(Grid1D(2), program, machine=FAST_TEST_MACHINE)

    def test_vars_bound_to_place(self):
        def setup(fabric):
            for j in range(2):
                fabric.load((j,), local=j * 100)

        def program(comm):
            comm.vars["double"] = comm.vars["local"] * 2
            if False:
                yield  # make it a generator

        result = run_spmd(Grid1D(2), program, machine=FAST_TEST_MACHINE,
                          setup=setup)
        assert result.places[(0,)]["double"] == 0
        assert result.places[(1,)]["double"] == 200


class TestTiming:
    def test_messages_cost_time(self):
        def program(comm):
            j = comm.coord[0]
            if j == 0:
                yield comm.send((1,), "big", payload=None, nbytes=10**6)
            else:
                yield comm.recv(src=(0,), tag="big")

        result = run_spmd(Grid1D(2), program, machine=FAST_TEST_MACHINE)
        expected = FAST_TEST_MACHINE.network.message_time(10**6)
        assert result.time == pytest.approx(expected, rel=0.05)
