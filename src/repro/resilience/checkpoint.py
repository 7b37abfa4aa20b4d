"""Checkpointing: hop-boundary snapshots and coordinated consistent cuts.

Two granularities, both exploiting the paper's central primitive — a
messenger that carries its full computation state on every ``hop()`` is,
by construction, its own checkpoint:

* **Messenger snapshots.** At every hop/wait/signal/inject boundary the
  fabric records the messenger's pickled state (for IR messengers,
  exactly the ``(program, env, stack)`` continuation that already ships
  across OS processes). A crashed messenger restarts from its last
  boundary; the compute segment since then is re-executed — at-least
  once semantics, safe because NavP compute kernels are deterministic
  functions of node + agent variables.

* **Consistent cuts.** A Chandy–Lamport-style coordinated snapshot of
  the whole fabric: per-PE node variables, event counts, mailbox
  contents, in-flight transfers, and every live messenger's boundary
  snapshot, all captured at a single virtual time on ``SimFabric``
  (where virtual time gives us a free global barrier: a cut *at time t*
  is consistent by definition) and at task-queue quiescence per worker
  on ``ProcessFabric`` (marker messages processed between tasks, so no
  continuation is ever split by the cut).

Stores are pluggable: :class:`MemoryStore` for tests and the simulator,
:class:`DiskStore` for process runs that must survive the controller.
"""

from __future__ import annotations

import copy
import os
import pickle
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import quote, unquote

from ..errors import ResilienceError
from ..util import durable

__all__ = [
    "ConsistentCut",
    "CheckpointStore",
    "MemoryStore",
    "DiskStore",
    "restore_cut",
    "resume_from_cut",
]


@dataclass
class ConsistentCut:
    """A coordinated snapshot of fabric state at one instant.

    ``places`` maps place index -> deep-copied node variables;
    ``events`` maps place index -> event-count table; ``mailboxes``
    maps place index -> pending point-to-point messages; ``in_flight``
    holds transfers captured on the channels (the Chandy–Lamport
    channel state); ``messengers`` maps messenger name -> its boundary
    snapshot (pickled bytes or an interpreter continuation).
    """

    time: float
    places: dict = field(default_factory=dict)
    events: dict = field(default_factory=dict)
    mailboxes: dict = field(default_factory=dict)
    in_flight: list = field(default_factory=list)
    messengers: dict = field(default_factory=dict)
    label: str = ""

    def __len__(self) -> int:
        return len(self.places)


class CheckpointStore:
    """Interface: keep cuts (and ad-hoc payloads) by key."""

    def save(self, key: str, payload: Any) -> None:
        raise NotImplementedError

    def load(self, key: str) -> Any:
        raise NotImplementedError

    def keys(self) -> list:
        raise NotImplementedError

    def latest(self) -> Any:
        """The most recently saved payload (None when empty)."""
        keys = self.keys()
        return self.load(keys[-1]) if keys else None

    def try_load(self, key: str, default: Any = None) -> Any:
        """:meth:`load`, but ``default`` instead of an error when the
        key has never been saved (e.g. a resumed job that crashed
        before its first committed checkpoint)."""
        try:
            return self.load(key)
        except ResilienceError:
            return default


class MemoryStore(CheckpointStore):
    """In-memory store; the default for SimFabric and tests.

    Deep-copies on save *and* load so a restored run cannot alias (and
    silently corrupt) the stored cut.
    """

    def __init__(self):
        self._data: dict = {}       # key -> payload, in last-save order

    def save(self, key: str, payload: Any) -> None:
        self._data.pop(key, None)
        self._data[key] = copy.deepcopy(payload)

    def load(self, key: str) -> Any:
        try:
            payload = self._data[key]
        except KeyError:
            raise ResilienceError(f"no checkpoint under key {key!r}")
        return copy.deepcopy(payload)

    def keys(self) -> list:
        return list(self._data)


class DiskStore(CheckpointStore):
    """One pickle file per key under ``root``: the key, percent-quoted
    (keys hold colons and may hold slashes), plus ``.ckpt``.

    ``save`` returns only after the bundle is durable (file fsync,
    rename, directory fsync: :func:`repro.util.durable.write_atomic`),
    so a bundle whose save returned loads after a power loss, and a
    crash mid-save leaves the old bundle or the new one. ``keys`` lists
    the bundles in last-save order (modification time, then name). The
    serve daemon keeps a job's last cut here under ``cut:{jid}`` and
    nowhere else, so a restarted daemon resumes a job from this store
    alone.
    """

    _SUFFIX = ".ckpt"

    def __init__(self, root: str):
        self.root = root
        durable.makedirs(root)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, quote(key, safe="") + self._SUFFIX)

    def save(self, key: str, payload: Any) -> None:
        durable.write_atomic(self._path(key), lambda fh: pickle.dump(
            payload, fh, protocol=pickle.HIGHEST_PROTOCOL))

    def load(self, key: str) -> Any:
        path = self._path(key)
        if not os.path.exists(path):
            raise ResilienceError(f"no checkpoint under key {key!r}")
        with open(path, "rb") as fh:
            return pickle.load(fh)

    def keys(self) -> list:
        bundles = sorted(
            (entry.stat().st_mtime_ns, entry.name)
            for entry in os.scandir(self.root)
            if entry.name.endswith(self._SUFFIX))
        return [unquote(name[:-len(self._SUFFIX)]) for _, name in bundles]


def restore_cut(fabric, cut: ConsistentCut) -> list:
    """Roll a ``SimFabric`` back to ``cut`` and return the messengers
    to re-inject.

    Node variables, event counts, and mailbox contents are restored
    from the cut's (deep-copied) payloads; in-flight transfers are
    re-deposited at their destinations (they were captured *on the
    channel*, so on rollback they have, logically, just arrived).
    Returns ``(name, place_index, snapshot, pending)`` tuples — the
    caller resumes each via
    :meth:`repro.navp.interp.IRMessenger.resume` (or just calls
    :func:`resume_from_cut`, which does all of it).
    """
    from ..fabric.sim import SimFabric  # lazy: avoid import cycle

    if not isinstance(fabric, SimFabric):
        raise ResilienceError(
            f"restore_cut targets a SimFabric, got {type(fabric).__name__}")
    if set(cut.places) - set(range(len(fabric.places))):
        raise ResilienceError(
            "cut was captured on a fabric with different places")
    for index, node_vars in cut.places.items():
        place = fabric.places[index]
        place.vars.clear()
        place.vars.update(copy.deepcopy(node_vars))
    for index, counts in cut.events.items():
        place = fabric.places[index]
        place.events.clear()
        for (name, args), count in counts.items():
            sem = place.event(name, args)
            if count:
                sem.release(count)
    for index, pending in cut.mailboxes.items():
        mailbox = fabric.places[index].mailbox
        mailbox._pending.clear()
        mailbox._waiters.clear()
        for message in copy.deepcopy(pending):
            mailbox.deposit(message)
    for dst_index, message in copy.deepcopy(cut.in_flight):
        fabric.places[dst_index].mailbox.deposit(message)
    return [(name, place_index, copy.deepcopy(snapshot),
             copy.deepcopy(pending))
            for name, (place_index, snapshot, pending)
            in cut.messengers.items()]


def resume_from_cut(fabric, cut: ConsistentCut):
    """Restore ``cut`` onto a fresh fabric and re-inject the surviving
    continuations; the caller then just runs the fabric. The restored
    run starts a new virtual timeline (time restarts at zero) but
    recomputes the same values: continuations are resumed at the exact
    boundary the cut recorded, re-performing the one effect the cut
    interrupted."""
    from ..navp.interp import IRMessenger  # lazy: avoid import cycle

    for name, place_index, snapshot, pending in restore_cut(fabric, cut):
        messenger = IRMessenger.resume(snapshot, pending=pending)
        fabric.inject(fabric.places[place_index].coord, messenger)
    return fabric
