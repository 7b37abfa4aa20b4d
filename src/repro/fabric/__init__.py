"""Execution fabrics: virtual-time DES, threads, processes, sockets."""

from . import effects, payload
from .desim import (
    Resource,
    Semaphore,
    Simulator,
    SimProcess,
    Timeout,
    Trigger,
    perturbed,
)
from .factory import FABRIC_KINDS, FABRIC_REGISTRY, make_fabric
from .hb import HBTracker, Race, RaceAccess
from .hosts import block_hosts, cyclic_hosts, host_count, resolve_hosts
from .process import ProcessFabric
from .sim import FabricResult, Message, SimFabric, SimPlace
from .sizes import agent_nbytes, codec_nbytes, model_nbytes
from .socket import PhiAccrualDetector, SocketFabric
from .threads import ThreadFabric, ThreadPlace
from .topology import Grid1D, Grid2D, Topology
from .trace import TraceEvent, TraceLog

__all__ = [
    "effects",
    "payload",
    "block_hosts",
    "cyclic_hosts",
    "host_count",
    "resolve_hosts",
    "FABRIC_KINDS",
    "FABRIC_REGISTRY",
    "make_fabric",
    "ProcessFabric",
    "SocketFabric",
    "PhiAccrualDetector",
    "ThreadFabric",
    "Simulator",
    "SimProcess",
    "Timeout",
    "Resource",
    "Semaphore",
    "Trigger",
    "perturbed",
    "HBTracker",
    "Race",
    "RaceAccess",
    "SimFabric",
    "SimPlace",
    "Message",
    "FabricResult",
    "Grid1D",
    "Grid2D",
    "Topology",
    "TraceEvent",
    "TraceLog",
    "agent_nbytes",
    "codec_nbytes",
    "model_nbytes",
]
