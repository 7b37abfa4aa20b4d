"""Fabric construction by name.

Runners accept ``fabric="sim"`` (virtual time, the default — regenerates
the paper's tables), ``fabric="thread"`` (real daemon threads, wall
clock, pickled hops), ``fabric="process"`` (PEs as OS processes,
continuations pickled across address spaces on every hop), or
``fabric="socket"`` (worker processes behind a real TCP transport with
heartbeat failure detection and credit-based flow control).

Dispatch is a registry dict, so adding a fabric kind is one entry. The
process and socket fabrics run IR messengers only — a plain generator
messenger's state lives in an unpicklable generator frame — and both
inherit that capability check from their shared base: injecting a
generator messenger raises a clear
:class:`~repro.errors.ConfigurationError` (see
:meth:`repro.fabric.controller.ControllerFabric.inject`).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..machine.spec import MachineSpec
from .process import ProcessFabric
from .sim import SimFabric
from .socket import SocketFabric
from .threads import ThreadFabric
from .topology import Topology

__all__ = ["make_fabric", "FABRIC_KINDS", "FABRIC_REGISTRY"]

FABRIC_REGISTRY = {
    "sim": SimFabric,
    "thread": ThreadFabric,
    "process": ProcessFabric,
    "socket": SocketFabric,
}

FABRIC_KINDS = tuple(FABRIC_REGISTRY)


def make_fabric(
    kind: str,
    topology: Topology,
    machine: MachineSpec | None = None,
    trace: bool = True,
    **kwargs,
):
    """Build a fabric of the given kind over a topology.

    Extra keyword arguments pass through to the fabric constructor
    (e.g. ``faults=`` / ``checkpoint_every=`` on the distributed
    fabrics, ``window=`` on the socket fabric).
    """
    cls = FABRIC_REGISTRY.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown fabric kind {kind!r}; expected one of {FABRIC_KINDS}"
        )
    return cls(topology, machine=machine, trace=trace, **kwargs)
