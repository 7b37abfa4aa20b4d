"""Logical-to-physical node mapping (MESSENGERS-style virtualization).

A MESSENGERS daemon hosts many *logical* nodes on one physical
workstation; navigational programs address logical nodes, and a hop
between two logical nodes of the same daemon is a local operation. This
is also how the paper's fine-granularity presentations (``N == P``)
run on real clusters: the logical network is the algorithm's, the
physical one the machine room's.

All four fabrics accept a ``hosts`` argument: a dict mapping each
topology coordinate to a physical host index, or a callable
``coord -> host``. Logical nodes of one host share its CPU and NICs
(sim), its daemon thread (threads), or its OS process (process and
socket);
hops and sends between co-hosted nodes cost only the local switch
time.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .topology import Topology

__all__ = ["resolve_hosts", "host_count", "block_hosts", "cyclic_hosts"]


def resolve_hosts(topology: Topology, hosts) -> dict:
    """Normalize a hosts spec to ``{coord: host_index}`` (dense hosts).

    ``hosts`` may be None (identity: one host per place), a dict, or a
    callable over coordinates. Host indices must form ``0..H-1``.
    """
    if hosts is None:
        return {coord: i for i, coord in enumerate(topology.coords)}
    if callable(hosts):
        mapping = {coord: int(hosts(coord)) for coord in topology.coords}
    else:
        mapping = {topology.normalize(c): int(h) for c, h in hosts.items()}
        missing = [c for c in topology.coords if c not in mapping]
        if missing:
            raise ConfigurationError(
                f"hosts mapping misses coordinates {missing[:5]}"
            )
    used = sorted(set(mapping.values()))
    if used != list(range(len(used))):
        raise ConfigurationError(
            f"host indices must be dense 0..H-1, got {used}"
        )
    return mapping


def host_count(mapping: dict) -> int:
    """Number of physical hosts in a resolved ``{coord: host}`` map."""
    return max(mapping.values()) + 1


def block_hosts(topology: Topology, n_hosts: int):
    """Contiguous blocks of places per host (in coordinate order)."""
    places = len(topology)
    if not 1 <= n_hosts <= places:
        raise ConfigurationError(
            f"need 1..{places} hosts, got {n_hosts}"
        )
    per = (places + n_hosts - 1) // n_hosts
    return {
        coord: min(i // per, n_hosts - 1)
        for i, coord in enumerate(topology.coords)
    }


def cyclic_hosts(topology: Topology, n_hosts: int):
    """Round-robin placement of places over hosts."""
    places = len(topology)
    if not 1 <= n_hosts <= places:
        raise ConfigurationError(
            f"need 1..{places} hosts, got {n_hosts}"
        )
    return {
        coord: i % n_hosts for i, coord in enumerate(topology.coords)
    }
