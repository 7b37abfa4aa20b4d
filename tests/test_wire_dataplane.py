"""The zero-copy data plane: codec, multi-buffer wire, coalescing.

Bottom-up property coverage of the PR-7 data plane:

* :mod:`repro.fabric.payload` — out-of-band buffer extraction, the
  in-band threshold, view-only byte accounting, zero-copy aliasing;
* multi-buffer frames over :class:`repro.fabric.wire.FrameSocket` —
  dribbled 1-byte delivery, truncated buffer tables, version skew
  (a VERSION-1 peer is refused loudly), bound enforcement — on the
  senders too: a closed peer is a drop, an oversized frame an error;
* hop coalescing end to end — a burst workload's frame count drops by
  the batch factor while results and per-hop accounting are unchanged,
  and a fault-plan chaos run over coalesced frames still converges to
  the golden answer.
"""

import socket as socket_mod
import struct
import threading

import numpy as np
import pytest

from repro.errors import FabricError
from repro.fabric import Grid1D, payload, wire
from repro.fabric.socket import SocketFabric
from repro.fabric.wire import (
    FRAME_CMD,
    FRAME_RUN,
    HEADER,
    MAGIC,
    MAX_BUFFERS,
    MAX_FRAME,
    VERSION,
    FrameSocket,
    WireClosed,
    WireError,
    encode_frame,
    frame_nbytes,
)
from repro.navp import ir
from repro.navp.interp import IRMessenger
from repro.resilience.faults import FaultPlan
from repro.wavefront.irprog import build_wavefront_ir
from repro.wavefront.navp import _gather, _layout
from repro.wavefront.problem import WavefrontCase

V = ir.Var
C = ir.Const

# enough float64 elements to clear the out-of-band threshold
_BIG = payload.OOB_THRESHOLD // 8 * 2


def _pair():
    a, b = socket_mod.socketpair()
    return FrameSocket(a), FrameSocket(b)


def _bg(fn, *args):
    """Run a send in a thread — a socketpair's kernel buffer is smaller
    than an out-of-band frame, so send and recv must overlap."""
    t = threading.Thread(target=fn, args=args, daemon=True)
    t.start()
    return t


class TestPayloadCodec:
    def test_large_block_goes_out_of_band(self):
        arr = np.arange(_BIG, dtype=np.float64)
        frame, buffers = payload.encode({"A": arr})
        assert len(buffers) == 1
        assert buffers[0].nbytes == arr.nbytes
        # the frame itself holds structure only, not the block bytes
        assert len(frame) < 256

    def test_small_block_stays_in_band(self):
        arr = np.arange(8, dtype=np.float64)
        frame, buffers = payload.encode({"A": arr})
        assert buffers == []
        out = payload.decode(frame)
        np.testing.assert_array_equal(out["A"], arr)

    def test_roundtrip_rebuilds_equal_arrays(self):
        obj = {"A": np.arange(_BIG, dtype=np.float64),
               "B": np.ones((3, _BIG // 4), dtype=np.float64),
               "k": 7, "name": "blk"}
        out = payload.decode(*payload.encode(obj))
        assert out["k"] == 7 and out["name"] == "blk"
        np.testing.assert_array_equal(out["A"], obj["A"])
        np.testing.assert_array_equal(out["B"], obj["B"])

    def test_encode_side_is_zero_copy(self):
        """The out-of-band buffer aliases the source array's memory."""
        arr = np.arange(_BIG, dtype=np.float64)
        _frame, buffers = payload.encode(arr)
        before = arr[0]
        arr[0] = -1.0
        view = np.frombuffer(buffers[0], dtype=np.float64)
        assert view[0] == -1.0  # same memory, not a copy
        arr[0] = before

    def test_decode_over_mutable_buffers_is_writable(self):
        """The wire hands freshly allocated bytearray-backed views;
        arrays rebuilt over them must be writable in place."""
        arr = np.arange(_BIG, dtype=np.float64)
        frame, buffers = payload.encode(arr)
        received = [memoryview(bytearray(b)) for b in buffers]
        out = payload.decode(frame, received)
        out[0] = 42.0  # would raise on a read-only reconstruction
        assert out[0] == 42.0

    def test_contiguous_view_ships_sliced_bytes_only(self):
        base = np.zeros((64, _BIG // 16), dtype=np.float64)
        band = base[:4]  # contiguous row band
        cost = payload.encoded_nbytes(band)
        assert band.nbytes <= cost < base.nbytes // 4

    def test_strided_view_degrades_to_copy_of_slice(self):
        """A column slice is not contiguous: numpy's reducer copies it
        — but only the sliced bytes, never the base array."""
        base = np.zeros((_BIG // 16, 64), dtype=np.float64)
        col = base[:, :2]
        cost = payload.encoded_nbytes(col)
        assert cost < base.nbytes // 8
        out = payload.decode(*payload.encode(col))
        np.testing.assert_array_equal(out, col)

    def test_nbytes_counts_frame_plus_buffers(self):
        arr = np.arange(_BIG, dtype=np.float64)
        frame, buffers = payload.encode(arr)
        assert payload.nbytes(frame, buffers) == len(frame) + arr.nbytes
        assert payload.encoded_nbytes(arr) == payload.nbytes(
            frame, buffers)


class TestMultiBufferWire:
    def test_multibuffer_roundtrip(self):
        left, right = _pair()
        try:
            obj = {"A": np.arange(_BIG, dtype=np.float64),
                   "B": np.full(_BIG, 2.5)}
            frame, buffers = payload.encode(obj)
            assert len(buffers) == 2
            sizes = []
            t = _bg(lambda: sizes.append(
                left.send(FRAME_RUN, frame, gen=3, buffers=buffers)))
            got = right.recv()
            t.join()
            assert sizes == [frame_nbytes(frame, buffers)]
            assert got.gen == 3 and len(got.buffers) == 2
            out = payload.decode(got.payload, got.buffers)
            np.testing.assert_array_equal(out["A"], obj["A"])
            np.testing.assert_array_equal(out["B"], obj["B"])
        finally:
            left.close()
            right.close()

    def test_dribbled_multibuffer_frame_reassembles(self):
        """TCP may deliver any byte split — including single bytes
        straddling the buffer table and buffer segments."""
        a, b = socket_mod.socketpair()
        right = FrameSocket(b)
        try:
            arr = np.arange(payload.OOB_THRESHOLD // 8 + 16,
                            dtype=np.float64)
            frame, buffers = payload.encode(("x", arr))
            data = encode_frame(FRAME_RUN, frame, gen=1, buffers=buffers)
            step = 1 if len(data) < 4096 else 473  # odd prime stride

            def dribble():
                for i in range(0, len(data), step):
                    a.sendall(data[i:i + step])

            t = _bg(dribble)
            got = right.recv()
            t.join()
            out = payload.decode(got.payload, got.buffers)
            np.testing.assert_array_equal(out[1], arr)
        finally:
            a.close()
            right.close()

    def test_truncated_buffer_table_is_wire_closed(self):
        """EOF inside the buffer table (or a buffer segment) must be a
        loud close, never a silent short frame."""
        a, b = socket_mod.socketpair()
        right = FrameSocket(b)
        try:
            arr = np.arange(_BIG, dtype=np.float64)
            frame, buffers = payload.encode(arr)
            data = encode_frame(FRAME_RUN, frame, buffers=buffers)
            a.sendall(data[:HEADER.size + 4])  # half the buffer table
            a.close()
            with pytest.raises(WireClosed):
                right.recv()
        finally:
            right.close()

    def test_truncated_buffer_segment_is_wire_closed(self):
        a, b = socket_mod.socketpair()
        right = FrameSocket(b)
        try:
            arr = np.arange(_BIG, dtype=np.float64)
            frame, buffers = payload.encode(arr)
            data = encode_frame(FRAME_RUN, frame, buffers=buffers)

            def cut_short():
                a.sendall(data[:-100])  # buffer segment cut short
                a.close()

            t = _bg(cut_short)
            with pytest.raises(WireClosed):
                right.recv()
            t.join()
        finally:
            right.close()

    def test_version1_peer_is_refused_loudly(self):
        """An old single-buffer peer (VERSION 1, no buffer-count
        field) is rejected at its first frame, never half-parsed."""
        old_header = struct.Struct("!4sBBHdI")
        a, b = socket_mod.socketpair()
        right = FrameSocket(b)
        try:
            a.sendall(old_header.pack(MAGIC, 1, FRAME_CMD, 0, 0.0, 10)
                      + b"x" * 10)
            with pytest.raises(WireError, match="upgraded together"):
                right.recv()
        finally:
            a.close()
            right.close()

    def test_absurd_buffer_count_is_rejected(self):
        a, b = socket_mod.socketpair()
        right = FrameSocket(b)
        try:
            a.sendall(HEADER.pack(MAGIC, VERSION, FRAME_CMD, 0, 0.0,
                                  0, MAX_BUFFERS + 1))
            with pytest.raises(WireError, match="buffer count"):
                right.recv()
        finally:
            a.close()
            right.close()

    def test_absurd_buffer_total_is_rejected(self):
        """Payload within bounds but buffer table pushing the frame
        over MAX_FRAME is refused before any allocation."""
        a, b = socket_mod.socketpair()
        right = FrameSocket(b)
        try:
            a.sendall(HEADER.pack(MAGIC, VERSION, FRAME_CMD, 0, 0.0,
                                  16, 1))
            a.sendall(struct.pack("!Q", MAX_FRAME))
            with pytest.raises(WireError, match="exceeds"):
                right.recv()
        finally:
            a.close()
            right.close()

    def test_send_rejects_too_many_buffers(self):
        left, right = _pair()
        try:
            with pytest.raises(WireError, match="buffers"):
                left.send(FRAME_RUN, b"",
                          buffers=[b"x"] * (MAX_BUFFERS + 1))
        finally:
            left.close()
            right.close()

    def test_empty_payload_with_buffers(self):
        left, right = _pair()
        try:
            left.send(FRAME_RUN, b"", buffers=[b"abc", b"defg"])
            got = right.recv()
            assert got.payload == b""
            assert [bytes(b) for b in got.buffers] == [b"abc", b"defg"]
        finally:
            left.close()
            right.close()


class TestSendOrDrop:
    """The senders that leave a dead peer to the failure detector must
    not leave an oversized frame to nobody."""

    def _pool(self):
        from repro.fabric.socket import _Slot
        from repro.serve.pool import WorkerPool

        pool = WorkerPool(("127.0.0.1", 0))
        left, right = _pair()
        pool.workers.slots[3] = _Slot()
        pool.workers.slots[3].conn = left
        return pool, left, right

    def test_pool_send_refuses_an_oversized_command(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME", 1 << 20)
        pool, left, right = self._pool()
        try:
            with pytest.raises(FabricError,
                               match=r"host 3: 'load' frame refused: "
                                     r"frame of \d+ bytes exceeds the "
                                     r"1048576-byte bound"):
                pool.send(3, ("load", "j1", (0, 0),
                              {"A": np.zeros(300_000)}))
            # nothing reached the wire: the next frame is intact
            assert pool.send(3, ("stop",)) > 0
            assert wire.load_obj(right.recv()) == ("stop",)
        finally:
            left.close()
            right.close()

    def test_pool_send_drops_toward_a_closed_worker(self):
        pool, left, right = self._pool()
        right.close()
        try:
            assert pool.send(3, ("load", "j1", (0, 0), {})) == 0
        finally:
            left.close()


def _register_burst(n_children: int):
    """A parent at PE 0 emits a burst of children that hop to PE 1 —
    the traffic shape coalescing exists for."""
    child = ir.register_program(ir.Program("dp-burst-child", (
        ir.HopStmt((C(1),)),
        ir.NodeSet("tally", (), ir.Bin("+", ir.NodeGet("tally"), C(1))),
    )), replace=True)
    ir.register_program(ir.Program("dp-burst", (
        ir.For("i", C(n_children), (
            ir.InjectStmt(child.name, ()),
        )),
    )), replace=True)


class TestCoalescing:
    def _run(self, n, coalesce):
        _register_burst(n)
        fabric = SocketFabric(Grid1D(2), timeout=60.0, trace=True,
                              window=2 * n, coalesce=coalesce,
                              coalesce_delay_s=0.05)
        fabric.load((1,), tally=0)
        fabric.inject((0,), "dp-burst")
        return fabric.run()

    def test_coalescing_cuts_frames_at_least_3x(self):
        """The same burst, coalesced 8-per-frame vs one frame per hop:
        ≥ 3x fewer data frames on the wire, identical results and
        identical per-hop accounting."""
        n = 24
        batched = self._run(n, coalesce=8)
        single = self._run(n, coalesce=1)
        assert batched.places[(1,)]["tally"] == n
        assert single.places[(1,)]["tally"] == n
        hops_b = batched.trace.hops_sent().get(0, 0)
        hops_s = single.trace.hops_sent().get(0, 0)
        assert hops_b == hops_s == n  # coalescing never changes hops
        frames_b = batched.trace.frames_sent().get(0, 0)
        frames_s = single.trace.frames_sent().get(0, 0)
        assert frames_s >= n
        assert frames_b * 3 <= frames_s, (
            f"coalescing shipped {frames_b} frames vs {frames_s} "
            f"uncoalesced — less than the required 3x reduction")
        assert batched.trace.max_coalesced_batch() > 1

    def test_coalescing_respects_credit_window(self):
        """Batching must not loosen the mailbox bound: every hop in a
        batch holds its own credit."""
        n, w = 16, 4
        _register_burst(n)
        fabric = SocketFabric(Grid1D(2), timeout=60.0, trace=True,
                              window=w, coalesce=8)
        fabric.load((1,), tally=0)
        fabric.inject((0,), "dp-burst")
        result = fabric.run()
        assert result.places[(1,)]["tally"] == n
        hwm = result.trace.mailbox_hwm()
        assert hwm[1] <= w, (
            f"mailbox high-water {hwm[1]} exceeds window {w} "
            f"under coalescing")

    def test_chaos_over_coalesced_frames_converges(self):
        """Randomized faults (SIGKILL, drops, a duplicate) over a
        coalescing resilient run: the journal is per-hop, so replay
        re-coalesces deterministically and converges to golden."""
        P = 2
        case = WavefrontCase(n=16, b=4)
        main, _carrier = build_wavefront_ir(P, case.nblocks, case.b)
        plan = FaultPlan.random(47, places=P, crashes=1, drops=2,
                                duplicates=1, dup_kind="hop",
                                horizon=0.3)
        fabric = SocketFabric(Grid1D(P), timeout=90.0, faults=plan,
                              checkpoint_every=4, max_restarts=2,
                              trace=True, coalesce=4)
        _layout(fabric, case, P)
        fabric.inject((0,), IRMessenger(main.name))
        result = fabric.run()
        d = _gather(result, case, P)
        assert np.allclose(d, case.reference()), (
            "wavefront diverged from golden under faults + coalescing")
        assert not fabric.lost
