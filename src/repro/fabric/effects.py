"""The effect vocabulary — the "instruction set" of a fabric.

Messengers (and MPI ranks) are plain Python generators that *yield*
effect objects; the fabric executing them decides what each effect
costs and when the generator resumes. This indirection is what lets
the same algorithm code run on:

* :class:`repro.fabric.sim.SimFabric` — virtual time, calibrated costs;
* :class:`repro.fabric.threads.ThreadFabric` — real threads, wall clock;
* :class:`repro.fabric.process.ProcessFabric` — real OS processes
  shipping messenger state as :mod:`~repro.fabric.wire` frames over
  socketpairs (IR messengers);
* :class:`repro.fabric.socket.SocketFabric` — the same workers behind
  real TCP, with heartbeats, generations and recovery (IR messengers).

Effects and their NavP reading:

========================  ==============================================
:class:`Hop`              ``hop(node(...))`` — migrate the computation,
                          carrying the agent variables
:class:`Inject`           ``inject(Messenger(...))`` — spawn locally
:class:`Compute`          run a kernel; cost is its flop count
:class:`WaitEvent`        ``waitEvent(E(...))`` (place-local, counting)
:class:`SignalEvent`      ``signalEvent(E(...))``
:class:`Send`             MPI blocking (buffered) send
:class:`Recv`             MPI blocking receive
:class:`IRecv`            MPI non-blocking receive; yields a request
:class:`WaitRequest`      ``MPI_Wait`` on an :class:`IRecv` request
:class:`Delay`            plain virtual think-time
========================  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "Effect",
    "Hop",
    "Inject",
    "Compute",
    "WaitEvent",
    "SignalEvent",
    "Send",
    "Recv",
    "IRecv",
    "WaitRequest",
    "Delay",
    "ANY_SOURCE",
]

# Wildcard source for Recv/IRecv, like MPI_ANY_SOURCE.
ANY_SOURCE = None


class Effect:
    """Marker base class for everything a messenger may yield."""

    __slots__ = ()


@dataclass(slots=True)
class Hop(Effect):
    """Migrate the yielding messenger to ``coord``.

    ``nbytes`` overrides the payload size; when None the fabric charges
    the modeled size of the messenger's agent variables plus the
    machine's per-hop state overhead ("the cost of a hop() is
    essentially the cost of moving the data stored in agent variables
    plus a small amount of state data" — Section 2).
    """

    coord: tuple
    nbytes: int | None = None


@dataclass(slots=True)
class Inject(Effect):
    """Spawn ``messenger`` at the current place (injection is local)."""

    messenger: Any


@dataclass(slots=True)
class Compute(Effect):
    """Execute ``fn`` and charge ``flops`` of CPU time.

    The generator receives ``fn()``'s return value when resumed. ``fn``
    always runs: numerics are real whenever real arrays were loaded,
    and with :class:`~repro.util.shadow.ShadowArray` data it still
    performs every shape check, so its host cost is whatever Python
    work ``fn`` does per call — keep that independent of the number of
    blocks touched (:func:`repro.util.blocks.tile_gemm_acc`). The
    *charged* time is ``flops`` at the machine's calibrated rate times
    the cache factor for ``kind`` (one of
    ``"sequential" | "navp" | "mpi"`` or None).
    """

    fn: Callable[[], Any] | None = None
    flops: float = 0.0
    kind: str | None = None
    note: str = ""


@dataclass(slots=True)
class WaitEvent(Effect):
    """``waitEvent`` on the *current place's* event table (counting)."""

    name: str
    args: tuple = ()


@dataclass(slots=True)
class SignalEvent(Effect):
    """``signalEvent`` on the current place's event table.

    ``count`` releases several waiters at once (used when one producer
    enables a whole batch of consumers, e.g. the 2-D DSC ColCarrier
    enabling every strip carrier of a grid row).
    """

    name: str
    args: tuple = ()
    count: int = 1


@dataclass(slots=True)
class Send(Effect):
    """Buffered point-to-point send to ``dst``.

    With ``blocking=True`` (``MPI_Send``) the sender is occupied while
    the message drains onto its NIC; with ``blocking=False``
    (``MPI_Isend`` with buffering) the transfer proceeds in the
    background and the sender continues immediately.
    """

    dst: tuple
    tag: Any
    payload: Any = None
    nbytes: int | None = None
    blocking: bool = True


@dataclass(slots=True)
class Recv(Effect):
    """Blocking receive matching ``(src, tag)``; resumes with the payload."""

    src: tuple | None = ANY_SOURCE
    tag: Any = None


@dataclass(slots=True)
class IRecv(Effect):
    """Non-blocking receive; resumes immediately with a request handle."""

    src: tuple | None = ANY_SOURCE
    tag: Any = None


@dataclass(slots=True)
class WaitRequest(Effect):
    """Block until ``request`` completes; resumes with the payload."""

    request: Any = None


@dataclass(slots=True)
class Delay(Effect):
    """Advance local time without holding the CPU (think time)."""

    seconds: float = 0.0
