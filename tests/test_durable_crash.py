"""Every crash point of the durable write path, enumerated.

``repro.util.durable`` holds the only calls that make the job ledger
and the cut store durable. Here a fake takes its place: it counts every
call into the seam (nested ones included), cuts the power before or
after the k-th, and rebuilds the directories as a power cut would leave
them:

* each file is put back to its bytes as of its last fsync (a truncate
  that was never fsynced is undone);
* each entry created or renamed since its directory's last
  ``sync_dir`` is undone (a rename over a name gives the old file
  back);
* each unlink is kept, durable or not: the order that hurts most.

The script drives a ledger through four sessions that all append to
one file: sequential and concurrent group-commit appends, ``DiskStore``
saves of a new key and of an existing one, clean closes, and a session
that dies mid-append with half a line on disk, so the next boot
truncates it. For every crash point the rebuilt state must replay (a
torn tail is the only damage replay may forgive), hold every append and
save that returned, and be one ledger file and one loadable bundle per
saved key.
"""

import os
import threading
import time

from repro.resilience.checkpoint import DiskStore
from repro.serve.ledger import JobLedger, replay_ledger
from repro.util import durable


class Crash(BaseException):
    """The power went out; no handler in the code under test may absorb
    it, so it is not an ``Exception``."""


def _listing(root: str) -> dict:
    return {name: os.stat(os.path.join(root, name)).st_ino
            for name in os.listdir(root)}


class PowerCut:
    """A fake ``repro.util.durable`` that tracks what a power cut keeps.

    ``durable_bytes`` maps an inode to its contents as of its last
    fsync; ``synced`` maps a directory to its entries (name -> inode)
    as of its last ``sync_dir``. Every inode it has seen stays open
    (``_pins``), so the kernel cannot hand its number to a new file.
    """

    def __init__(self, dirs, crash_at=None):
        self.crash_at = crash_at        # (k, "before" | "after") or None
        self.ops = 0
        self.cut = False
        self.hold = None                # runs once inside the next fsync
        self.durable_bytes: dict = {}
        self.synced: dict = {}
        self.replaced: dict = {}        # dir -> names renamed over since sync
        self._pins: dict = {}
        self._lock = threading.Lock()
        for root in dirs:
            self.synced[root] = self._pin_listing(root)
            self.replaced[root] = set()
            for ino in self.synced[root].values():
                self.durable_bytes[ino] = self._read(ino)

    # -- bookkeeping ---------------------------------------------------
    def _pin(self, ino: int, path: str) -> None:
        if ino not in self._pins:
            self._pins[ino] = os.open(path, os.O_RDONLY)

    def _pin_listing(self, root: str) -> dict:
        listing = _listing(root)
        for name, ino in listing.items():
            self._pin(ino, os.path.join(root, name))
        return listing

    def _read(self, ino: int, size: int | None = None) -> bytes:
        fd = self._pins[ino]
        if size is None:
            size = os.fstat(fd).st_size
        return os.pread(fd, size, 0)

    def _step(self) -> int:
        """Count one call into the seam; cut the power before it if it
        is the chosen one."""
        with self._lock:
            if self.cut:
                raise Crash()
            self.ops += 1
            if self.crash_at == (self.ops, "before"):
                self.cut = True
                raise Crash()
            return self.ops

    def _done(self, k: int, effect=None) -> None:
        """Call ``k`` finished: apply its durable ``effect``, then cut
        the power after it if it is the chosen one."""
        with self._lock:
            if self.cut:
                raise Crash()
            if effect is not None:
                effect()
            if self.crash_at == (k, "after"):
                self.cut = True
                raise Crash()

    # -- the seam ------------------------------------------------------
    def fsync(self, fd: int) -> None:
        k = self._step()
        st = os.fstat(fd)
        self._pin(st.st_ino, f"/proc/self/fd/{fd}")
        if self.hold is not None:
            hold, self.hold = self.hold, None
            hold()
        data = self._read(st.st_ino, st.st_size)
        self._done(k, lambda: self.durable_bytes.__setitem__(st.st_ino,
                                                             data))

    def sync_dir(self, path: str) -> None:
        k = self._step()
        listing = self._pin_listing(path)

        def effect():
            for ino in listing.values():
                self.durable_bytes.setdefault(ino, b"")
            self.synced[path] = listing
            self.replaced[path] = set()

        self._done(k, effect)

    def wrap(self, name: str):
        real = getattr(durable, name)

        def call(path, *args):
            k = self._step()
            if name == "write_atomic":
                self.replaced[os.path.dirname(path)].add(
                    os.path.basename(path))
            result = real(path, *args)
            try:
                self._done(k)
            except Crash:
                if result is not None:      # create's file: the process
                    result.close()          # that held it is gone
                raise
            return result
        return call

    def plant(self, path: str, data: bytes) -> None:
        """Append ``data`` to ``path`` as a crash mid-write leaves it:
        on disk, though no append returned."""
        with open(path, "ab") as fh:
            fh.write(data)
        ino = os.stat(path).st_ino
        self.durable_bytes[ino] = self._read(ino)

    def install(self, monkeypatch) -> None:
        for name in ("create", "makedirs", "truncate", "write_atomic"):
            monkeypatch.setattr(durable, name, self.wrap(name))
        monkeypatch.setattr(durable, "fsync", self.fsync)
        monkeypatch.setattr(durable, "sync_dir", self.sync_dir)

    # -- the cut -------------------------------------------------------
    def power_cut(self) -> None:
        """Rebuild every tracked directory as the cut leaves it."""
        for root, synced in self.synced.items():
            now = _listing(root)
            for name, ino in now.items():
                if synced.get(name) != ino:
                    os.unlink(os.path.join(root, name))
            for name, ino in synced.items():
                path = os.path.join(root, name)
                data = self.durable_bytes[ino]
                # rewritten, not cut to length: a file truncated since
                # its last fsync is now shorter than its durable bytes
                if now.get(name) == ino or (name in now
                                            and name in self.replaced[root]):
                    with open(path, "wb") as fh:
                        fh.write(data)
        self.close()

    def close(self) -> None:
        for fd in self._pins.values():
            os.close(fd)
        self._pins.clear()


def _adm(jid, seq):
    spec = {"program": "navp-2d-dsc", "g": 2, "seed": seq, "ab": 4,
            "workers": 1, "tenant": "t", "priority": 0, "key": None}
    return {"t": "admitted", "jid": jid, "seq": seq, "spec": spec}


def _done(jid, state="completed"):
    return {"t": "done", "jid": jid, "state": state, "reason": "",
            "digest": jid * 8, "ok": True, "wall_s": 0.1, "restarts": 0}


class Script:
    """The workload, and what of it returned before the power went."""

    def __init__(self, wal: str, ckpt: str):
        self.wal = wal
        self.ckpt = ckpt
        self.appended: list = []        # records whose append returned
        self.attempted: dict = {}       # key -> payloads save was called with
        self.returned: dict = {}        # key -> payloads[:n] that returned
        self.ledgers: list = []

    def append(self, led: JobLedger, record: dict) -> None:
        if led.append(record):
            self.appended.append(record)

    def save(self, store: DiskStore, key: str, cid: int) -> None:
        payload = {"cid": cid, "key": key}
        self.attempted.setdefault(key, []).append(payload)
        store.save(key, payload)
        self.returned[key] = len(self.attempted[key])

    def concurrent(self, fake: PowerCut, led: JobLedger, records) -> None:
        """The first record's commit fsync waits until every other
        record is written, so the rest ride on one more fsync between
        them: group commit, with a call sequence that repeats."""
        target = led._write_seq + len(records)
        in_fsync = threading.Event()

        def hold():
            in_fsync.set()
            deadline = time.monotonic() + 5.0
            while (led._write_seq < target and not fake.cut
                   and time.monotonic() < deadline):
                time.sleep(0.0005)

        errors = []

        def run(record):
            try:
                self.append(led, record)
            except Crash:
                pass
            except Exception as exc:  # noqa: BLE001 - judged below
                errors.append(exc)

        fake.hold = hold
        first = threading.Thread(target=run, args=(records[0],))
        first.start()
        while not in_fsync.wait(0.001) and first.is_alive():
            pass
        rest = [threading.Thread(target=run, args=(r,)) for r in records[1:]]
        for t in rest:
            t.start()
        for t in [first] + rest:
            t.join(timeout=10.0)
            assert not t.is_alive()
        if fake.cut:
            raise Crash()       # the dead process's errors mean nothing
        assert not errors, errors

    def session(self) -> JobLedger:
        led = JobLedger(self.wal)
        self.ledgers.append(led)
        led.open()                                   # appends to wal-0
        return led

    def die(self, fake: PowerCut, led: JobLedger, half: str) -> None:
        """The session dies mid-append: no close record, and ``half``
        of a line on disk."""
        led._fh.close()
        led._fh = None
        fake.plant(os.path.join(self.wal, "wal-00000000.jsonl"),
                   half.encode())

    def run(self, fake: PowerCut) -> None:
        store = DiskStore(self.ckpt)
        led = self.session()
        self.append(led, _adm("j0", 0))
        self.concurrent(fake, led, [_adm(f"j{i}", i) for i in (1, 2, 3, 4)])
        led.close()
        led = self.session()
        self.save(store, "cut:j1", 1)                # a new key
        self.save(store, "cut:j1", 2)                # an existing key
        self.save(store, "cut:j2", 1)
        for jid in ("j0", "j1", "j2"):
            self.append(led, {"t": "dispatched", "jid": jid})
        self.die(fake, led, '{"t":"done","jid":"j2","st')
        led = self.session()                         # truncates the half
        self.append(led, _done("j0"))
        self.append(led, _done("j1", "failed"))
        led.close()
        led = self.session()
        self.append(led, _adm("j5", 5))
        self.append(led, {"t": "dispatched", "jid": "j3"})
        led.close()

    def abandon(self) -> None:
        """The power went: drop the file handles without a flush the
        dead process could not have made (every append flushed)."""
        for led in self.ledgers:
            if led._fh is not None:
                led._fh.close()
                led._fh = None


def _drive(tmp_path, monkeypatch, crash_at):
    wal, ckpt = str(tmp_path / "wal"), str(tmp_path / "ckpt")
    os.makedirs(wal)
    os.makedirs(ckpt)
    fake = PowerCut([wal, ckpt], crash_at)
    script = Script(wal, ckpt)
    with monkeypatch.context() as patch:
        fake.install(patch)
        try:
            script.run(fake)
        except Crash:
            pass
        finally:
            script.abandon()
    fake.power_cut()
    return fake, script


def _check(script: Script, label: str) -> None:
    replay = replay_ledger(script.wal)
    assert replay.torn_records <= 1, label
    jobs = replay.jobs
    for record in script.appended:
        kind, job = record["t"], jobs.get(record.get("jid"))
        if kind in ("open", "close"):
            continue
        assert job is not None, (label, record)
        if kind == "dispatched":
            assert job.state != "pending", (label, record)
        elif kind == "done":
            assert (job.state, job.digest) == (
                record["state"], record["digest"]), (label, record)

    segments = [n for n in os.listdir(script.wal) if n.startswith("wal-")]
    assert segments in ([], ["wal-00000000.jsonl"]), (label, segments)

    store = DiskStore(script.ckpt)
    assert "index" not in os.listdir(script.ckpt), label
    for key, payloads in script.attempted.items():
        done = script.returned.get(key, 0)
        if done:
            assert store.load(key) in payloads[done - 1:], (label, key)
    keys = store.keys()
    assert set(keys) <= set(script.attempted), (label, keys)
    for key in keys:
        store.load(key)             # no temp file listed as a bundle


def test_every_crash_point_of_the_durable_path(tmp_path, monkeypatch):
    fake, script = _drive(tmp_path / "clean", monkeypatch, None)
    assert not fake.cut
    _check(script, "no crash")
    replay = replay_ledger(script.wal)
    assert len(replay.jobs) == 6
    assert (replay.sessions, replay.torn_records) == (4, 0)
    calls = fake.ops
    assert calls > 40
    points = 0
    for k in range(1, calls + 1):
        for when in ("before", "after"):
            fake, script = _drive(tmp_path / f"{k}-{when}", monkeypatch,
                                  (k, when))
            assert fake.cut, f"call {k} never came: the script is not " \
                             f"deterministic"
            _check(script, f"crash {when} call {k}")
            points += 1
    assert points == 2 * calls


def test_the_seam_is_the_only_durable_write_path():
    """The ledger and the cut store fsync, rename, make directories,
    create and truncate files only through ``repro.util.durable``, and
    unlink nothing."""
    import ast
    import pathlib

    import repro.resilience.checkpoint as checkpoint
    import repro.serve.ledger as ledger

    banned = {"fsync", "replace", "rename", "makedirs", "mkdir", "open",
              "truncate", "ftruncate", "unlink", "remove"}
    for module in (ledger, checkpoint):
        tree = ast.parse(pathlib.Path(module.__file__).read_text("utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in banned
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"):
                raise AssertionError(f"{module.__name__} line "
                                     f"{node.lineno}: os.{func.attr}")
            if (isinstance(func, ast.Attribute) and func.attr == "truncate"
                    and not (isinstance(func.value, ast.Name)
                             and func.value.id == "durable")):
                raise AssertionError(f"{module.__name__} line "
                                     f"{node.lineno}: .truncate(...) "
                                     f"outside the seam")
            if isinstance(func, ast.Name) and func.id == "open":
                modes = list(node.args[1:2]) + [
                    k.value for k in node.keywords if k.arg == "mode"]
                for mode in modes:
                    assert isinstance(mode, ast.Constant), node.lineno
                    assert not set(mode.value) & set("wax+"), \
                        f"{module.__name__} line {node.lineno}: " \
                        f"open(..., {mode.value!r})"
