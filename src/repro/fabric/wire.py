"""Framed wire protocol of every controller fabric.

Every message on a socket-fabric TCP connection, a serve-pool
connection or a process-fabric socketpair is one *frame*. Since
VERSION 2, a frame is multi-buffer: the pickle stream travels as the
*payload* and each out-of-band block buffer produced by
:mod:`repro.fabric.payload` travels as its own segment, described by a
buffer table between the header and the payload:

::

    0        4     5     6        8                16               20
    +--------+-----+-----+--------+----------------+----------------+
    | magic  | ver | kind| gen    | deadline (f64) | payload length |
    | "NAVP" | u8  | u8  | u16    | abs seconds    | u32            |
    +--------+-----+-----+--------+----------------+----------------+
    | nbufs  | buffer table: nbufs x u64 byte lengths               |
    | u16    |                                                      |
    +--------+------------------------------------------------------+
    | payload: `length` bytes of pickle stream                      |
    +---------------------------------------------------------------+
    | buffer 0 bytes | buffer 1 bytes | ... | buffer nbufs-1 bytes  |
    +---------------------------------------------------------------+

* ``magic``/``ver`` reject accidental cross-talk and format drift
  loudly instead of desynchronizing the stream — a VERSION-1 peer (no
  buffer table) is refused at the first frame, never half-parsed;
* ``kind`` is a small frame-type tag (see ``FRAME_*``) so transport
  control (heartbeats, credits) never pays pickle costs;
* ``gen`` is the sender's **connection generation** — the controller
  bumps it on every respawn, and receivers drop frames from stale
  generations, so a zombie socket of a replaced worker cannot deliver;
* ``deadline`` is an absolute wall-clock second (0.0 = none),
  propagated hop to hop so a receiver can count frames that arrived
  late (deadlines are *soft*: late frames are still delivered);
* length-prefixing makes TCP's byte stream a message stream again.

Neither side ever concatenates a frame: :meth:`FrameSocket.send`
scatter/gathers ``header | table | payload | buffers`` through
``socket.sendmsg`` (a single-buffer frame is the degenerate two-element
gather — the old header+payload join copy is gone), and
:meth:`FrameSocket.recv` reads each announced buffer straight into
freshly allocated storage via ``recv_into``, handing the payload codec
``memoryview``\\ s it can rebuild arrays over without another copy.

:class:`FrameSocket` wraps a connected socket with locked sends (many
threads may share one outbound connection) and an incremental receive
buffer. It never interprets payloads; the codec glue every endpoint
shares sits next to it: :func:`send_obj` / :func:`load_obj` run one
object through :mod:`repro.fabric.payload` into / out of one
multi-buffer frame, :func:`send_or_drop` is the send of an endpoint
that leaves dead peers to its failure detector (but never an
oversized frame unsaid), :func:`connect_with_backoff` dials with jittered
retries, and :class:`Acceptor` is the one accept loop every listening
endpoint runs — the one whose ``close()`` actually ends it.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

from ..errors import FabricError
from ..resilience.recovery import RecoveryPolicy
from . import payload as payload_mod

__all__ = [
    "Frame",
    "FrameSocket",
    "Acceptor",
    "WireError",
    "WireClosed",
    "encode_frame",
    "frame_nbytes",
    "connect_with_backoff",
    "send_obj",
    "send_or_drop",
    "load_obj",
    "FRAME_CMD",
    "FRAME_REPORT",
    "FRAME_RUN",
    "FRAME_HEARTBEAT",
    "FRAME_CREDIT",
    "FRAME_HELLO",
]

MAGIC = b"NAVP"
VERSION = 2  # 2: multi-buffer frames (buffer table + out-of-band segments)
HEADER = struct.Struct("!4sBBHdIH")  # magic, ver, kind, gen, deadline,
#                                      payload len, buffer count
_LEN = struct.Struct("!Q")           # one buffer-table entry

# Frame kinds. CMD/REPORT carry the controller protocol of
# fabric/controller.py; RUN carries a peer-to-peer hop; HEARTBEAT,
# CREDIT and HELLO are transport control.
FRAME_CMD = 0        # controller -> worker command tuple
FRAME_REPORT = 1     # worker -> controller report tuple
FRAME_RUN = 2        # peer -> peer migrating continuation(s)
FRAME_HEARTBEAT = 3  # worker -> controller liveness beat
FRAME_CREDIT = 4     # receiver -> sender flow-control credit
FRAME_HELLO = 5      # connection preamble (identity + generation)

# A continuation frame is a few KiB plus its block buffers; anything
# near these bounds is a desynchronized stream or a hostile peer.
MAX_FRAME = 256 * 1024 * 1024
MAX_BUFFERS = 4096

# sendmsg iovec batching: Linux caps a single call at IOV_MAX (1024)
# segments; staying far under it keeps every call one syscall.
_IOV_BATCH = 64


class WireError(FabricError):
    """The byte stream violated the frame protocol."""


class WireClosed(WireError):
    """The peer closed the connection (EOF mid-stream included)."""


class Frame:
    __slots__ = ("kind", "gen", "deadline", "payload", "buffers")

    def __init__(self, kind: int, gen: int, deadline: float,
                 payload: bytes, buffers: list | None = None):
        self.kind = kind
        self.gen = gen
        self.deadline = deadline
        self.payload = payload
        self.buffers = buffers if buffers is not None else []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Frame(kind={self.kind}, gen={self.gen}, "
                f"deadline={self.deadline}, {len(self.payload)}B, "
                f"{len(self.buffers)} buffer(s))")


def _check_sizes(payload, buffers) -> int:
    """Validate bounds; returns the total on-wire size."""
    if len(buffers) > MAX_BUFFERS:
        raise WireError(
            f"frame carries {len(buffers)} buffers "
            f"(bound {MAX_BUFFERS})")
    total = frame_nbytes(payload, buffers)
    if total - HEADER.size > MAX_FRAME:
        raise WireError(
            f"frame of {total - HEADER.size} bytes exceeds the "
            f"{MAX_FRAME}-byte bound")
    return total


def _head_and_table(kind, payload, buffers, gen, deadline) -> bytes:
    """Header plus buffer table (tiny; the only joined bytes per frame)."""
    head = HEADER.pack(MAGIC, VERSION, kind, gen, deadline,
                       len(payload), len(buffers))
    if not buffers:
        return head
    sizes = [b.nbytes if isinstance(b, memoryview) else len(b)
             for b in buffers]
    return head + struct.pack(f"!{len(sizes)}Q", *sizes)


def encode_frame(kind: int, payload: bytes, gen: int = 0,
                 deadline: float = 0.0, buffers=()) -> bytes:
    """One frame as a single byte string (tests and diagnostics; the
    socket path gathers the parts instead of joining them)."""
    _check_sizes(payload, buffers)
    parts = [_head_and_table(kind, payload, buffers, gen, deadline),
             payload]
    parts.extend(bytes(b) for b in buffers)
    return b"".join(parts)


def frame_nbytes(payload, buffers=()) -> int:
    """On-wire size of a frame carrying ``payload`` (+ ``buffers``),
    header and buffer table included."""
    total = HEADER.size + _LEN.size * len(buffers) + len(payload)
    for b in buffers:
        total += b.nbytes if isinstance(b, memoryview) else len(b)
    return total


class FrameSocket:
    """A connected stream socket (TCP, or a unix socketpair) speaking
    whole (multi-buffer) frames.

    ``send`` is serialized by a lock (the controller's forwarder and
    heartbeat/credit paths share outbound connections); ``recv`` is
    single-consumer per socket (each connection gets one reader
    thread), buffering partial reads until a whole frame is available.
    """

    __slots__ = ("sock", "_send_lock", "_buf", "_pos")

    def __init__(self, sock: socket.socket):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not TCP (a process fabric's unix socketpair)
        self.sock = sock
        self._send_lock = threading.Lock()
        self._buf = bytearray()
        self._pos = 0

    # -- send ----------------------------------------------------------
    def send(self, kind: int, payload, gen: int = 0,
             deadline: float = 0.0, buffers=()) -> int:
        """Send one frame (scatter/gather, no joining); returns its
        on-wire size. ``buffers`` are shipped out-of-band, in order."""
        total = _check_sizes(payload, buffers)
        parts = [_head_and_table(kind, payload, buffers, gen, deadline),
                 payload]
        parts.extend(buffers)
        with self._send_lock:
            try:
                self._send_parts(parts, total)
            except OSError as exc:
                raise WireClosed(f"send failed: {exc}") from exc
        return total

    def _send_parts(self, parts, total: int) -> None:
        """Vectored write of every part, handling partial sends."""
        sendmsg = getattr(self.sock, "sendmsg", None)
        if sendmsg is None:  # pragma: no cover - exotic socket object
            self.sock.sendall(b"".join(bytes(p) for p in parts))
            return
        sent = 0
        if len(parts) <= _IOV_BATCH:
            sent = sendmsg(parts)
            if sent == total:
                return  # fast path: one gather took the whole frame
        # slow path (kernel buffer full or huge iovec): flat byte
        # views, advancing past whatever each call accepted
        views = [memoryview(p) for p in parts if len(p)]
        views = [v if v.ndim == 1 and v.format == "B" else v.cast("B")
                 for v in views]
        n = sent
        while True:
            # advance past the n bytes the kernel accepted
            while n > 0:
                head = views[0]
                if n >= len(head):
                    n -= len(head)
                    views.pop(0)
                else:
                    views[0] = head[n:]
                    n = 0
            if not views:
                return
            n = sendmsg(views[:_IOV_BATCH])

    # -- receive -------------------------------------------------------
    def _fill(self, n: int) -> None:
        """Buffer at least ``n`` unconsumed bytes."""
        if self._pos > 65536:  # drop consumed prefix before growing
            del self._buf[:self._pos]
            self._pos = 0
        while len(self._buf) - self._pos < n:
            try:
                chunk = self.sock.recv(65536)
            except OSError as exc:
                raise WireClosed(f"recv failed: {exc}") from exc
            if not chunk:
                raise WireClosed("peer closed the connection")
            self._buf += chunk

    def _read_exact(self, n: int) -> bytes:
        self._fill(n)
        pos = self._pos
        out = bytes(memoryview(self._buf)[pos:pos + n])
        self._pos = pos + n
        if self._pos >= len(self._buf):  # fully drained: reset cheaply
            self._buf = bytearray()
            self._pos = 0
        return out

    def _read_into(self, view: memoryview) -> None:
        """Fill ``view`` exactly: drain the buffer, then read straight
        into the destination (no intermediate copies for bulk data)."""
        n = len(view)
        pos = 0
        buffered = len(self._buf) - self._pos
        if buffered:
            take = min(buffered, n)
            view[:take] = memoryview(self._buf)[self._pos:
                                                self._pos + take]
            self._pos += take
            if self._pos >= len(self._buf):
                self._buf = bytearray()
                self._pos = 0
            pos = take
        while pos < n:
            try:
                got = self.sock.recv_into(view[pos:])
            except OSError as exc:
                raise WireClosed(f"recv failed: {exc}") from exc
            if not got:
                raise WireClosed("peer closed the connection")
            pos += got

    def recv(self) -> Frame:
        """Block until one whole frame is available and return it.

        Out-of-band buffers are read into freshly allocated storage and
        returned as writable ``memoryview``\\ s — the payload codec
        rebuilds arrays over them with no further copy, and ownership
        is the frame's alone (nothing else aliases the storage).
        """
        header = self._read_exact(HEADER.size)
        magic, version, kind, gen, deadline, length, nbufs = \
            HEADER.unpack(header)
        if magic != MAGIC:
            raise WireError(f"bad frame magic {magic!r}")
        if version != VERSION:
            raise WireError(
                f"frame version {version} (this side speaks {VERSION}); "
                f"mixed-version peers must be upgraded together")
        if length > MAX_FRAME:
            raise WireError(f"frame length {length} exceeds bound")
        if nbufs > MAX_BUFFERS:
            raise WireError(f"frame buffer count {nbufs} exceeds bound")
        sizes = ()
        if nbufs:
            table = self._read_exact(_LEN.size * nbufs)
            sizes = struct.unpack(f"!{nbufs}Q", table)
            if length + sum(sizes) > MAX_FRAME:
                raise WireError(
                    f"frame of {length + sum(sizes)} bytes (payload + "
                    f"buffer table) exceeds bound")
        payload = self._read_exact(length)
        buffers = []
        for size in sizes:
            view = memoryview(bytearray(size))
            self._read_into(view)
            buffers.append(view)
        return Frame(kind, gen, deadline, payload, buffers)

    def close(self, reader: threading.Thread | None = None) -> None:
        """Shut down, then close. Pass the thread that reads this
        socket as ``reader`` to have it joined in between: woken by the
        shutdown, it ends before its descriptor can be reused."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if reader is not None:
            reader.join(timeout=5.0)
        try:
            self.sock.close()
        except OSError:
            pass


class Acceptor:
    """A bound listening socket and the thread that accepts on it.

    Binding and accepting are separate steps so an owner can fork its
    workers in between — their connections wait in the kernel's backlog
    — and never fork with a thread alive. :meth:`start` runs
    ``handler(FrameSocket)`` on a daemon thread per accepted
    connection. :meth:`close` *ends* the loop: closing a listening
    socket from another thread does not wake a blocked ``accept()`` on
    Linux, and a parked accept thread pins its owner (the handler is a
    bound method) for the life of the process — so the socket is shut
    down first, then closed, then the thread joined.
    """

    def __init__(self, addr, backlog: int):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # a restarted daemon must be able to rebind its old port while
        # the previous session's accepted connections sit in TIME_WAIT
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self.sock.bind(tuple(addr))
            self.sock.listen(backlog)
        except OSError:
            self.sock.close()
            raise
        self.addr = self.sock.getsockname()
        self._closing = False
        self._thread = None
        self._handlers: list = []   # live per-connection threads

    def start(self, handler, name: str) -> None:
        self._thread = threading.Thread(target=self._loop, args=(handler,),
                                        daemon=True, name=name)
        self._thread.start()

    def _loop(self, handler) -> None:
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return  # shut down: close() is waiting for us
            if self._closing:
                conn.close()  # the wake-up connection of close()
                return
            thread = threading.Thread(target=handler,
                                      args=(FrameSocket(conn),),
                                      daemon=True)
            # a long-lived daemon accepts thousands of clients: keep
            # only the handlers still running
            self._handlers = [t for t in self._handlers if t.is_alive()]
            self._handlers.append(thread)
            thread.start()

    def close(self) -> None:
        """Stop accepting, release the port and join the accept thread
        (idempotent; never raises — it runs on failure paths)."""
        if self._closing:
            return
        self._closing = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)  # wakes accept(): Linux
        except OSError:
            # BSD/macOS refuse to shut down a listening socket: wake
            # accept() with a throwaway connection instead
            try:
                socket.create_connection(self.addr, timeout=1.0).close()
            except OSError:
                pass
        self.sock.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def join_handlers(self) -> None:
        """Wait (5 s in all) for the per-connection threads to see
        their peers gone — for an owner whose peers are all its own,
        already reaped, children (call after :meth:`close`)."""
        deadline = time.monotonic() + 5.0
        for thread in self._handlers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))


def connect_with_backoff(addr, seed=None) -> socket.socket:
    """Dial ``addr``, retrying with jittered exponential backoff."""
    policy = RecoveryPolicy(max_retries=6, backoff_s=0.02)
    last = None
    for delay in [0.0] + policy.jittered_delays(seed):
        if delay:
            time.sleep(delay)
        try:
            sock = socket.create_connection(tuple(addr), timeout=5.0)
            sock.settimeout(None)
            return sock
        except OSError as exc:
            last = exc
    raise WireClosed(f"cannot connect to {addr}: {last}")


def send_obj(fs: FrameSocket, kind: int, obj, gen: int = 0,
             deadline: float = 0.0) -> int:
    """Codec-encode ``obj`` and send it as one multi-buffer frame."""
    frame, buffers = payload_mod.encode(obj)
    return fs.send(kind, frame, gen=gen, deadline=deadline,
                   buffers=buffers)


def send_or_drop(fs, kind, obj, host, op=None, gen=0, deadline=0.0) -> int:
    """:func:`send_obj` toward (or from) ``host``, where a closed peer
    is not the sender's business: returns 0 (a dead worker is its
    failure detector's to notice, and the journal owns redelivery). A
    frame the bounds refuse is — a :class:`FabricError` naming host,
    command (``op``, default ``obj[0]``), size and bound, never a
    silent drop."""
    try:
        return send_obj(fs, kind, obj, gen=gen, deadline=deadline)
    except WireClosed:
        return 0
    except WireError as exc:
        raise FabricError(f"host {host}: {op or obj[0]!r} frame refused: "
                          f"{exc}") from None


def load_obj(frame: Frame):
    """Decode a received frame's object over its out-of-band buffers."""
    return payload_mod.decode(frame.payload, frame.buffers)
