"""ServeClient: the exactly-once wire client of the serve daemon.

Speaks the daemon's request/response protocol — a ``hello-client``
HELLO, then CMD frames answered by REPORT frames — over the same
:mod:`repro.fabric.wire` framing the workers use. Every verb is a
method; an error reply raises :class:`~repro.errors.ServeError` (or
:class:`~repro.errors.AdmissionError` for rejections, so callers can
tell "the daemon said no" from "the daemon broke"). Errors arrive
structured as ``("err", code, reason)`` and are classified by code;
any other reply shape is a protocol violation and raises
:class:`~repro.errors.ServeError`.

Two properties make a daemon bounce a transparent retry instead of a
lost request:

* **Auto-reconnect.** A dropped connection (daemon crash, restart,
  network blip) is retried with
  :meth:`~repro.resilience.recovery.RecoveryPolicy.jittered_delays`
  under a per-request deadline; only when the deadline passes does the
  caller see a :class:`~repro.errors.ServeError`.

* **Idempotent submit.** Every submission carries an idempotency key
  (caller-chosen or auto-generated), so a resend after an ambiguous
  failure — the classic "did my first submit land?" — returns the
  original job id; the daemon never runs a duplicate.
"""

from __future__ import annotations

import os
import threading
import time
import uuid

from ..errors import AdmissionError, ServeError
from ..fabric.wire import (FRAME_CMD, FRAME_HELLO, FRAME_REPORT,
                           FrameSocket, WireError, connect_with_backoff,
                           load_obj, send_obj)
from ..resilience.recovery import RecoveryPolicy

__all__ = ["ServeClient", "resolve_addr"]


def _probe_pid(pid: int, addr_file: str) -> None:
    """Fail fast if the daemon that wrote ``addr_file`` is gone — a
    SIGKILLed daemon cannot clean up after itself, and connecting to
    its stale address would hang or hit whoever owns the port now."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        raise ServeError(
            f"daemon dead, stale addr file {addr_file} (pid {pid} is "
            f"gone); restart the daemon or remove the file") from None
    except PermissionError:  # pragma: no cover - alive, other user
        pass


def resolve_addr(addr: str | None, addr_file: str | None) -> tuple:
    """Turn ``--addr host:port`` / ``--addr-file path`` into an
    address tuple. The file form is what scripts use: the daemon
    writes ``pid:host:port`` there once listening, and resolution
    probes the pid so a stale file from a killed daemon is an
    immediate, explained error instead of a connect hang."""
    if addr:
        host, _, port = addr.rpartition(":")
        if not host or not port.isdigit():
            raise ServeError(f"bad --addr {addr!r}; expected host:port")
        return (host, int(port))
    if addr_file:
        try:
            with open(addr_file, encoding="utf-8") as fh:
                text = fh.read().strip()
        except OSError as exc:
            raise ServeError(f"cannot read --addr-file: {exc}") from exc
        parts = text.split(":")
        if not (len(parts) == 3 and parts[0].isdigit()
                and parts[2].isdigit()):
            raise ServeError(
                f"malformed addr file {addr_file}: expected "
                f"pid:host:port, found {text!r}")
        _probe_pid(int(parts[0]), addr_file)
        return (parts[1], int(parts[2]))
    raise ServeError("need --addr host:port or --addr-file PATH "
                     "(repro serve prints and writes its address)")


def _classify(reply) -> Exception:
    """The exception for an ``("err", code, reason)`` reply tuple."""
    if not (isinstance(reply, tuple) and len(reply) == 3
            and reply[0] == "err"):
        return ServeError(f"malformed reply from the daemon: {reply!r}")
    _err, code, reason = reply
    if code == "admission":
        return AdmissionError(reason)
    return ServeError(reason)


class ServeClient:
    def __init__(self, addr, timeout: float = 120.0,
                 reconnect: bool = True, backoff_seed=None):
        self.addr = tuple(addr)
        self.timeout = timeout
        self.reconnect = reconnect
        self.reconnects = 0      # observability: dials after the first
        self._seed = backoff_seed
        self._policy = RecoveryPolicy(max_retries=6, backoff_s=0.05)
        self._lock = threading.Lock()
        self._fs: FrameSocket | None = None
        self._dial()

    # -- plumbing ------------------------------------------------------
    def _dial(self) -> None:
        sock = connect_with_backoff(self.addr, seed=self._seed)
        sock.settimeout(self.timeout)
        self._fs = FrameSocket(sock)
        send_obj(self._fs, FRAME_HELLO, ("hello-client", None, None))

    def _drop(self) -> None:
        if self._fs is not None:
            try:
                self._fs.close()
            except OSError:  # pragma: no cover
                pass
            self._fs = None

    def _request(self, req, deadline_s: float | None = None):
        """One request/response exchange, retried across connection
        loss until the per-request deadline. Retrying a ``submit`` is
        safe because every submit carries an idempotency key."""
        deadline = time.monotonic() + (
            self.timeout if deadline_s is None else deadline_s)
        delays: list = []
        with self._lock:
            while True:
                try:
                    if self._fs is None:
                        self._dial()
                        self.reconnects += 1
                    send_obj(self._fs, FRAME_CMD, req)
                    while True:
                        frame = self._fs.recv()
                        if frame.kind == FRAME_REPORT:
                            break
                    break
                except (WireError, OSError) as exc:
                    self._drop()
                    if not self.reconnect:
                        raise ServeError(
                            f"lost the daemon at {self.addr}: "
                            f"{exc}") from exc
                    if not delays:
                        delays = self._policy.jittered_delays(self._seed)
                    delay = delays.pop(0)
                    if time.monotonic() + delay > deadline:
                        raise ServeError(
                            f"lost the daemon at {self.addr} and could "
                            f"not get an answer before the deadline: "
                            f"{exc}") from exc
                    time.sleep(delay)
        reply = load_obj(frame)
        if (isinstance(reply, tuple) and len(reply) == 2
                and reply[0] == "ok"):
            return reply[1]
        raise _classify(reply)

    def close(self) -> None:
        self._drop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- verbs ---------------------------------------------------------
    def submit(self, program: str, **spec) -> str:
        """Submit one job; returns its id (or raises AdmissionError)."""
        return self.submit_info(program, **spec)["job"]

    def submit_info(self, program: str, idempotency_key: str | None = None,
                    **spec) -> dict:
        """Submit with the full reply — ``{"job", "state"}`` plus
        ``"deduped": True`` when the idempotency key matched an earlier
        submission. A key is auto-generated when the caller supplies
        none, so retries (ours or the caller's) never duplicate."""
        key = idempotency_key or spec.pop("key", None) or uuid.uuid4().hex
        return self._request(("submit",
                              {"program": program, "key": key, **spec}))

    def status(self, jid: str | None = None) -> dict:
        return self._request(("status", jid))

    def wait(self, jid: str, timeout: float = 60.0) -> dict:
        """Block until the job finishes (daemon-side); returns its
        record, with ``timed_out`` set if it is still running."""
        return self._request(("wait", jid, timeout),
                             deadline_s=timeout + self.timeout)

    def programs(self) -> list:
        return self._request(("programs",))

    def resize(self, n: int) -> int:
        return self._request(("resize", n))

    def kill_worker(self, wid: int | None = None) -> int:
        return self._request(("kill-worker", wid))

    def shutdown(self, drain: bool = True) -> dict:
        return self._request(("shutdown", drain))
