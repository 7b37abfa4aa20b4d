"""Execution traces: who did what, where, when.

Traces power the reproduction of the paper's Figure 1 (the space-time
diagrams of the sequential → DSC → pipelined → phase-shifted stages)
via :mod:`repro.viz.spacetime`, and give tests a way to assert
scheduling properties (e.g. "under phase shifting every PE computes
from virtual time ~0").
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import defaultdict

__all__ = ["TraceEvent", "TraceLog"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One interval of activity.

    ``kind`` is one of ``"compute"``, ``"hop"``, ``"send"``, ``"recv"``,
    ``"wait"``, ``"inject"`` — plus, when the fabric runs with
    ``race_check=True``, zero-duration ``"access"`` events (one per
    node-variable read/write, ``note`` like ``"W C[(0, 1)]"``) and
    ``"race"`` events (an unordered conflicting pair the happens-before
    checker flagged; ``note`` carries both access sites). Fabrics
    running under a fault plan additionally record zero-duration
    ``"fault"`` (an injected fault fired; ``nbytes`` carries the
    payload only when it was genuinely lost), ``"retry"`` / ``"dedup"``
    (recovery masked a drop / discarded a duplicate), ``"checkpoint"``
    / ``"restore"`` (a masked crash's instant repair on sim; a
    committed cut on the controller fabrics), and ``"respawn"``
    (controller fabric worker replacement) events. The socket fabric adds
    zero-duration ``"transport"`` events — one per worker at collect
    time, ``note`` a space-separated ``key=value`` summary of its wire
    counters (``inbox_hwm``, ``window``, ``frames_in`` …) — queried via
    :meth:`TraceLog.mailbox_hwm` and friends. For hops, ``place`` is
    the *destination* and ``src_place`` the origin. ``nbytes`` records
    the modeled payload of hops and sends (0 for co-hosted moves), so
    traces double as data-movement ledgers; fault events are excluded
    from the ledger queries — a dropped transfer moved nothing.
    """

    t0: float
    t1: float
    place: int
    actor: str
    kind: str
    note: str = ""
    src_place: int | None = None
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class TraceLog:
    """An append-only list of :class:`TraceEvent` with query helpers.

    A disabled log is a null recorder: :meth:`record` returns without
    touching the event list, and the fabric additionally guards its
    call sites so disabled runs never even build the kwargs.
    """

    __slots__ = ("enabled", "events")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    def record(self, **kw) -> None:
        if not self.enabled:
            return
        self.events.append(TraceEvent(**kw))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def accesses(self, var: str | None = None) -> list[TraceEvent]:
        """Node-variable access events (``race_check`` runs only),
        optionally filtered to one variable."""
        out = [e for e in self.events if e.kind == "access"]
        if var is not None:
            out = [e for e in out if e.note.split(" ", 1)[1]
                   .split("[", 1)[0] == var]
        return out

    def at_place(self, place: int) -> list[TraceEvent]:
        return [e for e in self.events if e.place == place]

    def by_actor(self) -> dict:
        out: dict = defaultdict(list)
        for e in self.events:
            out[e.actor].append(e)
        return dict(out)

    def busy_time(self, kind: str = "compute") -> dict:
        """Total seconds each place spent on ``kind`` activity."""
        out: dict = defaultdict(float)
        for e in self.events:
            if e.kind == kind:
                out[e.place] += e.duration
        return dict(out)

    def first_compute_start(self) -> dict:
        """Earliest compute start per place (for phase-shift assertions)."""
        out: dict = {}
        for e in self.events:
            if e.kind == "compute":
                if e.place not in out or e.t0 < out[e.place]:
                    out[e.place] = e.t0
        return out

    def makespan(self) -> float:
        return max((e.t1 for e in self.events), default=0.0)

    def bytes_moved(self) -> int:
        """Total modeled bytes that crossed the network (lost
        transfers — ``kind == "fault"`` — moved nothing and are
        excluded; see :meth:`lost_bytes`)."""
        return sum(e.nbytes for e in self.events if e.kind != "fault")

    def bytes_by_place(self, direction: str = "in") -> dict:
        """Bytes received at (``"in"``) or sent from (``"out"``) each place."""
        out: dict = defaultdict(int)
        for e in self.events:
            if e.nbytes <= 0 or e.kind == "fault":
                continue
            if direction == "in":
                out[e.place] += e.nbytes
            else:
                if e.src_place is not None:
                    out[e.src_place] += e.nbytes
        return dict(out)

    def message_count(self) -> int:
        """Network transfers recorded (hops + sends with payload;
        fault events are not transfers)."""
        return sum(1 for e in self.events
                   if e.nbytes > 0 and e.kind != "fault")

    # -- resilience queries ------------------------------------------------
    def faults(self) -> list[TraceEvent]:
        """Injected faults that fired during the run."""
        return [e for e in self.events if e.kind == "fault"]

    def recoveries(self) -> list[TraceEvent]:
        """Recovery actions: retries, dedups, restores, respawns."""
        return [e for e in self.events
                if e.kind in ("retry", "dedup", "restore", "respawn")]

    def checkpoints(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "checkpoint"]

    def lost_bytes(self) -> int:
        """Payload destroyed by faults (drops without recovery,
        transfers into crashed PEs). Simulated fabrics charge modeled
        bytes; the process/socket fabrics charge *codec-actual* bytes —
        the serialized size the transport really lost, with numpy views
        costing their sliced bytes only."""
        return sum(e.nbytes for e in self.events if e.kind == "fault")

    # -- transport queries (socket fabric) ---------------------------------
    def transport(self) -> list[TraceEvent]:
        """Per-worker wire-counter summaries (socket fabric runs).

        Each event's note packs ``key=value`` counters: ``frames_in``/
        ``frames_out`` and ``bytes_in``/``bytes_out`` (whole frames,
        codec-actual on-wire sizes including header, buffer table and
        out-of-band buffer segments), ``hops_out`` (individual
        continuations emitted, ≥ frames when coalescing batches them),
        ``max_batch`` (most hops shipped in one frame), ``inbox_hwm``,
        ``window``, ``late`` and ``credit_waits``."""
        return [e for e in self.events if e.kind == "transport"]

    def _transport_stat(self, key: str) -> dict:
        prefix = key + "="
        out: dict = {}
        for e in self.transport():
            for field in e.note.split():
                if field.startswith(prefix):
                    value = int(field[len(prefix):])
                    out[e.place] = max(out.get(e.place, 0), value)
        return out

    def mailbox_hwm(self) -> dict:
        """Per-host inbox high-water mark (hops queued but not yet
        executed). Under credit-based flow control this is bounded by
        the sender window — the observable form of backpressure — and
        coalescing does not loosen the bound, because every hop in a
        batched frame still holds its own credit."""
        return self._transport_stat("inbox_hwm")

    def deadline_misses(self) -> int:
        """Hops that arrived after their propagated deadline (they are
        still delivered — deadlines are soft — but counted; every hop
        in a late coalesced frame counts individually)."""
        return sum(self._transport_stat("late").values())

    def frames_sent(self) -> dict:
        """Per-host count of data frames put on the wire. With hop
        coalescing this is ≤ :meth:`hops_sent` for the same host; the
        gap is the per-frame overhead coalescing saved."""
        return self._transport_stat("frames_out")

    def hops_sent(self) -> dict:
        """Per-host count of individual continuation hops emitted,
        regardless of how many frames carried them."""
        return self._transport_stat("hops_out")

    def max_coalesced_batch(self) -> int:
        """Most hops any single frame carried during the run (1 when
        coalescing never batched, 0 when no transport events exist)."""
        return max(self._transport_stat("max_batch").values(),
                   default=0)
