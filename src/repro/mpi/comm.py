"""An MPI-like communication layer over the fabric effect system.

The paper's baseline (Section 4) is Gentleman's algorithm implemented
on LAM/MPI with non-blocking receives (``MPI_Irecv``) paired with
blocking sends, and ``MPI_Wait`` for synchronization. This module
provides exactly that surface:

* a :class:`Comm` bound to one rank of a topology, whose methods build
  the corresponding fabric effects (``yield comm.send(...)``), plus
  the generator-based broadcast SUMMA uses (``yield from``);
* :class:`RankProgram`, the messenger adapter that pins an SPMD rank
  function to its PE;
* :func:`run_spmd`, which launches one rank per place of a topology on
  a :class:`~repro.fabric.sim.SimFabric`.

Rank functions are generators ``def program(comm): ...`` that yield
effects — the same protocol as NavP messengers, so both paradigms run
on identical simulated hardware and their timings are directly
comparable, as in the paper.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from ..errors import ConfigurationError
from ..fabric import effects as fx
from ..fabric.factory import make_fabric
from ..fabric.sim import FabricResult
from ..fabric.topology import Topology
from ..machine.presets import SUN_BLADE_100
from ..machine.spec import MachineSpec
from ..navp.messenger import Messenger

__all__ = ["Comm", "RankProgram", "run_spmd"]


class Comm:
    """The view one rank has of the communicator."""

    def __init__(self, topology: Topology, coord: tuple):
        self.topology = topology
        self.coord = topology.normalize(coord)
        self.rank = topology.index(self.coord)
        self.size = len(topology)
        #: node variables of the PE this rank is pinned to (the rank's
        #: "local memory"); bound by :class:`RankProgram` at start-up.
        self.vars: dict = {}

    # -- point to point (effect builders; yield the result) -----------
    def send(self, dst, tag, payload=None, nbytes: int | None = None) -> fx.Send:
        """Blocking (buffered) send, like ``MPI_Send`` with buffering."""
        return fx.Send(dst=tuple(dst), tag=tag, payload=payload, nbytes=nbytes)

    def isend(self, dst, tag, payload=None,
              nbytes: int | None = None) -> fx.Send:
        """Non-blocking buffered send (``MPI_Isend``): the transfer
        proceeds in the background, the sender continues at once."""
        return fx.Send(dst=tuple(dst), tag=tag, payload=payload,
                       nbytes=nbytes, blocking=False)

    def recv(self, src=fx.ANY_SOURCE, tag=None) -> fx.Recv:
        """Blocking receive; resumes with a :class:`Message`."""
        return fx.Recv(src=src, tag=tag)

    def irecv(self, src=fx.ANY_SOURCE, tag=None) -> fx.IRecv:
        """Non-blocking receive (``MPI_Irecv``); resumes with a request."""
        return fx.IRecv(src=src, tag=tag)

    def wait(self, request) -> fx.WaitRequest:
        """``MPI_Wait``; resumes with the matched :class:`Message`."""
        return fx.WaitRequest(request=request)

    def compute(self, fn=None, flops: float = 0.0, kind: str | None = "mpi",
                note: str = "") -> fx.Compute:
        return fx.Compute(fn=fn, flops=flops, kind=kind, note=note)

    # -- collective (a generator; use with ``yield from``) --------------
    def bcast(self, group, root, tag, payload=None):
        """Linear broadcast of ``payload`` from ``root`` over ``group``.

        Returns the payload on every member. ``group`` is a sequence of
        coordinates including ``root``; the root sends one message per
        peer (a fan-out appropriate for the paper's small grids).
        """
        group = [self.topology.normalize(c) for c in group]
        root = self.topology.normalize(root)
        if root not in group:
            raise ConfigurationError("broadcast root must be in the group")
        if self.coord == root:
            for peer in group:
                if peer != root:
                    yield self.send(peer, tag, payload)
            return payload
        msg = yield self.recv(src=root, tag=tag)
        return msg.payload


class RankProgram(Messenger):
    """Adapter: runs an SPMD rank function as a stationary messenger."""

    def __init__(self, program: Callable[[Comm], Generator], comm: Comm):
        self._program = program
        self._comm = comm
        self.name = f"rank{comm.coord}"

    def main(self):
        self._comm.vars = self.vars
        yield from self._program(self._comm)


def run_spmd(
    topology: Topology,
    program: Callable[[Comm], Generator],
    machine: MachineSpec | None = None,
    setup: Callable | None = None,
    trace: bool = True,
    fabric: str = "sim",
) -> FabricResult:
    """Launch ``program`` once per place of ``topology`` and run."""
    machine = machine if machine is not None else SUN_BLADE_100
    fab = make_fabric(fabric, topology, machine=machine, trace=trace)
    if setup is not None:
        setup(fab)
    for coord in topology.coords:
        fab.inject(coord, RankProgram(program, Comm(topology, coord)))
    return fab.run()
