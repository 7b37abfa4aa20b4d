"""The durable job ledger: an append-only, fsync'd JSONL write-ahead log.

The ledger records which jobs exist and how each ended: a job is
admitted, dispatched and finished as ledger records, written *before*
the daemon acts on them, so a daemon restarted on the same
``--state-dir`` can replay the log and answer ``status``/``wait`` for
every job it ever accepted — re-queue the ones that never ran, resume
the ones that were mid-flight, and refuse to run a deduplicated
idempotent resubmission twice. How far a job got is not the ledger's
business: its last cut bundle (``DiskStore``, key ``cut:{jid}``) is
its checkpoint, and a resumed job loads it if one was saved.

Design points, in the order a crash investigator would ask about them:

* **Durability unit.** One record per line, JSON, appended and
  fsync'd before the daemon acts on it (write-ahead). Appends from
  concurrent submit threads share fsyncs by *group commit*: the first
  thread into the sync section fsyncs once for every line written so
  far, and the others observe their line already covered and return
  without touching the disk. Under concurrency the fsync count is
  bounded by the batch count, not the record count.

* **One file, repaired at boot.** Every daemon session appends to the
  same ``wal-00000000.jsonl``. A crash mid-``write`` can leave a half
  line at its end: replay drops a final line that has no newline,
  even one that parses as JSON (its append never returned), and
  counts it in ``torn_records``. :meth:`JobLedger.open` then cuts the
  file back to just after its last newline, through
  :func:`repro.util.durable.truncate`, before the session's first
  append, so the file holds exactly the records the boot acted on.
  Garbage anywhere else is real corruption and raises
  :class:`~repro.errors.LedgerError`: a WAL that silently skips
  records is worse than none.

* **Older directories.** A daemon that started a segment per session
  (or rotated within one) left several ``wal-NNNNNNNN.jsonl`` files.
  Replay reads them in order and forgives a torn tail only at the end
  of the last one or of one whose successor opens a new session: a
  segment sealed by an fsync'd rotation ends cleanly. A new session
  appends to the last segment. A job's first ``admitted`` record
  wins, so a duplicate one an older daemon left behind cannot reset
  a job.

* **One write path.** The file is created, synced and truncated only
  through :mod:`repro.util.durable`, so its directory entry is durable
  before its first record is acknowledged.

* **Fail-stop.** The first write or fsync error is remembered and
  raised again by every later append: after a failed fsync the kernel
  may have dropped the pages, and a retried fsync can report success.

* **Clean close.** :meth:`close` appends a ``close`` record; a boot
  that replays a log whose last record is not a ``close`` knows the
  previous daemon died unclean and reports it (``clean_close``).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field

from ..errors import LedgerError
from ..util import durable

__all__ = ["JobLedger", "LedgerReplay", "ReplayedJob", "replay_ledger",
           "TERMINAL_STATES"]

_SEGMENT_FMT = "wal-{:08d}.jsonl"
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".jsonl"

#: Job states a ``done`` record may carry; a replayed job in one of
#: these never runs again.
TERMINAL_STATES = frozenset({"completed", "failed"})


@dataclass
class ReplayedJob:
    """One job's state as reconstructed from the ledger."""

    jid: str
    seq: int
    spec: dict
    key: str | None = None          # idempotency key, if the submit had one
    state: str = "pending"          # pending | running | completed | failed
    reason: str = ""
    digest: str | None = None
    ok: bool | None = None
    wall_s: float | None = None
    restarts: int = 0
    data_version: int | None = None  # catalog.DATA_VERSION at admission

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


@dataclass
class LedgerReplay:
    """What a ledger directory replays to."""

    jobs: dict = field(default_factory=dict)   # jid -> ReplayedJob
    clean_close: bool = True                   # last record was a close
    sessions: int = 0                          # open records seen
    records: int = 0                           # records applied
    torn_records: int = 0                      # dropped half-written tails
    max_seq: int = -1

    def by_key(self) -> dict:
        """Idempotency key -> jid, for dedup across restarts."""
        return {job.key: job.jid for job in self.jobs.values()
                if job.key is not None}


def _segment_paths(root: str) -> list:
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return []
    return [os.path.join(root, n) for n in sorted(names)
            if n.startswith(_SEGMENT_PREFIX) and n.endswith(_SEGMENT_SUFFIX)]


def _apply(replay: LedgerReplay, record: dict) -> None:
    """Fold one record into the replay state. Transitions are
    idempotent so re-applied records (duplicates an older daemon left
    behind) converge to the same state: a job's first ``admitted``
    record wins, so a leftover one cannot reset a job that a later
    record shows dispatched."""
    kind = record.get("t")
    if kind == "open":
        replay.sessions += 1
        replay.clean_close = False
        return
    if kind == "close":
        replay.clean_close = True
        return
    jid = record.get("jid")
    if jid is None:
        raise LedgerError(f"ledger record without a jid: {record!r}")
    if kind == "admitted":
        if jid not in replay.jobs:
            spec = dict(record["spec"])
            replay.jobs[jid] = ReplayedJob(
                jid=jid, seq=int(record["seq"]), spec=spec,
                key=spec.get("key"),
                data_version=record.get("data_version"))
        replay.max_seq = max(replay.max_seq, int(record["seq"]))
        return
    job = replay.jobs.get(jid)
    if job is None:
        raise LedgerError(
            f"ledger record for a never-admitted job: {record!r}")
    if kind == "dispatched":
        if not job.terminal:
            job.state = "running"
    elif kind == "ckpt":
        pass    # older daemons wrote one per committed cut; nothing reads it
    elif kind == "done":
        state = record["state"]
        if state not in TERMINAL_STATES:
            raise LedgerError(f"done record with non-terminal state "
                              f"{state!r}: {record!r}")
        job.state = state
        job.reason = record.get("reason", "")
        job.digest = record.get("digest")
        job.ok = record.get("ok")
        job.wall_s = record.get("wall_s")
        job.restarts = int(record.get("restarts", 0))
    else:
        raise LedgerError(f"unknown ledger record type {kind!r}")


def _starts_new_session(text: str) -> bool:
    """True if a segment's first record is a session ``open`` — the
    marker that its predecessor was the last file some earlier session
    wrote, and may therefore legitimately end in a torn tail."""
    for line in text.split("\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            return False
        return isinstance(record, dict) and record.get("t") == "open"
    return False


def _replay_lines(replay: LedgerReplay, text: str, allow_torn: bool,
                  path: str) -> None:
    lines = text.split("\n")
    # what follows the last newline is torn, whatever it holds: its
    # append never returned, and the next boot truncates it
    tail = lines.pop()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            raise LedgerError(
                f"corrupt ledger record (not a torn tail) in {path} "
                f"line {i + 1}: {line[:80]!r}")
        if not isinstance(record, dict):
            raise LedgerError(f"ledger record is not an object: {line[:80]!r}")
        _apply(replay, record)
        replay.records += 1
    if tail.strip():
        if not allow_torn:
            raise LedgerError(
                f"corrupt ledger record (torn tail in a sealed segment) "
                f"in {path} line {len(lines) + 1}: {tail[:80]!r}")
        replay.torn_records += 1   # crash mid-write: drop the tail


def _replay_segments(replay: LedgerReplay, paths: list) -> None:
    """Fold ``paths`` (in order) into ``replay``. A torn final line is
    tolerated only where a crash could have produced one: the last
    segment or one whose successor starts a new session. Every other
    segment was sealed by an older daemon's fsync'd rotation, so
    garbage at its end is real corruption and raises."""
    texts = []
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as fh:
            texts.append(fh.read())
    for n, (path, text) in enumerate(zip(paths, texts)):
        allow = (n == len(paths) - 1
                 or _starts_new_session(texts[n + 1]))
        _replay_lines(replay, text, allow_torn=allow, path=path)


def replay_ledger(root: str) -> LedgerReplay:
    """Replay every segment under ``root`` into a :class:`LedgerReplay`.

    Tolerates an empty or missing directory, and drops a torn final
    line (one with no newline: a record a crash interrupted) in the
    last segment or in a segment whose successor opens a new session;
    raises :class:`~repro.errors.LedgerError` on any other corruption.
    """
    replay = LedgerReplay()
    _replay_segments(replay, _segment_paths(root))
    return replay


def _line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"


class JobLedger:
    """Writer side of the WAL; one instance per daemon session.

    ``open()`` replays what previous sessions left behind, cuts a torn
    tail off the file it appends to, and appends an ``open`` record;
    ``append`` is thread-safe and returns only after the record is
    fsync'd (group commit batches concurrent callers onto shared
    fsyncs); ``close`` appends the clean-close marker. Appends after
    ``close`` are dropped, not errors — teardown races (a job finishing
    while the daemon exits) must not mask the real shutdown path. After
    a write or fsync error every append raises that error (fail-stop),
    and ``close`` writes no marker.
    """

    def __init__(self, root: str, fsync: bool = True):
        self.root = root
        self.fsync = fsync
        durable.makedirs(root)
        self._lock = threading.Lock()        # file handle + counters
        self._sync_lock = threading.Lock()   # group-commit section
        self._fh = None
        self._write_seq = 0
        self._synced_seq = 0
        self._error: OSError | None = None   # the first write/fsync error
        # observability (read by stats()/the durability bench)
        self.appends = 0
        self.fsyncs = 0
        self.dropped_after_close = 0

    # -- lifecycle -----------------------------------------------------
    def open(self) -> LedgerReplay:
        """Replay prior sessions, cut the torn tail replay dropped off
        the last segment, and record the session open there. Returns
        the replay."""
        replay = replay_ledger(self.root)
        with self._lock:
            if self._fh is not None:
                raise LedgerError("ledger is already open")
            paths = _segment_paths(self.root)
            if paths:
                path = paths[-1]
                with open(path, "rb") as fh:
                    data = fh.read()
                if data and not data.endswith(b"\n"):    # replay dropped it
                    durable.truncate(path, data.rfind(b"\n") + 1)
            else:
                path = os.path.join(self.root, _SEGMENT_FMT.format(0))
            self._fh = durable.create(path)
        self.append({"t": "open", "recovering": not replay.clean_close,
                     "session": replay.sessions + 1})
        return replay

    def close(self, drained: bool = True) -> None:
        """Append the clean-close marker, make the segment durable and
        close it. A failed ledger only closes its file."""
        try:
            if self._error is None:
                self.append({"t": "close", "drained": bool(drained)})
        finally:
            with self._lock:
                fh, self._fh = self._fh, None
                if fh is not None:
                    with fh:
                        if self._error is None:
                            fh.flush()
                            self._sync(fh.fileno())

    # -- the write path ------------------------------------------------
    def append(self, record: dict) -> bool:
        """Write + fsync one record; False if the ledger is closed."""
        line = _line(record)
        with self._lock:
            self._raise_if_failed()
            if self._fh is None:
                self.dropped_after_close += 1
                return False
            try:
                self._fh.write(line)
                self._fh.flush()
            except OSError as exc:
                self._error = self._error or exc
                raise
            self.appends += 1
            self._write_seq += 1
            my_seq = self._write_seq
        if self.fsync:
            self._commit(my_seq)
        return True

    def _commit(self, my_seq: int) -> None:
        """Group commit: fsync once for every line written so far; a
        caller whose line an earlier fsync already covered returns
        without touching the disk."""
        if self._synced_seq >= my_seq:
            return
        with self._sync_lock:
            if self._synced_seq >= my_seq:
                return   # a concurrent committer covered us meanwhile
            with self._lock:
                # a failed fsync is never retried: it may have lost
                # our line and a second one could still say success
                self._raise_if_failed()
                if self._fh is None:          # closed under us: close fsynced
                    return
                target = self._write_seq
                # fsync a dup, not the raw fd: a concurrent close() may
                # close the segment's fd, and a new file may then reuse
                # its number — the dup keeps the open file description
                # alive for the sync
                fd = os.dup(self._fh.fileno())
            try:
                self._sync(fd)
            finally:
                os.close(fd)
            with self._lock:
                self._synced_seq = max(self._synced_seq, target)

    def _sync(self, fd: int) -> None:
        try:
            durable.fsync(fd)
        except OSError as exc:
            self._error = self._error or exc
            raise
        self.fsyncs += 1

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise self._error.with_traceback(None)

    # -- observability -------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "appends": self.appends,
                "fsyncs": self.fsyncs,
                "group_committed": self.appends - self.fsyncs,
                "dropped_after_close": self.dropped_after_close,
            }
