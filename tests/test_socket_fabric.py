"""SocketFabric: real TCP transport, flow control, failure detection.

Three layers of coverage, bottom up:

* the framed wire protocol (:mod:`repro.fabric.wire`) over a local
  socketpair — roundtrips, partial delivery, loud desync errors;
* the phi-accrual failure detector as a pure unit, and the generation
  fence of :class:`~repro.fabric.socket.WorkerSet` over a socketpair;
* the fabric itself — migration over TCP, generator rejection,
  credit-window backpressure bounding the receiver mailbox, soft
  hop deadlines, and SIGKILL recovery through heartbeat loss.

Scale is kept small: every fabric test forks worker processes and
opens real sockets.
"""

import pickle
import socket as socket_mod
import threading
import time

import pytest

from repro.errors import ConfigurationError, FabricError
from repro.fabric import Grid1D, make_fabric
from repro.fabric.socket import (PhiAccrualDetector, SocketFabric,
                                 WorkerSet, _Slot)
from repro.fabric.wire import (
    FRAME_CMD,
    FRAME_HEARTBEAT,
    FRAME_REPORT,
    FRAME_RUN,
    HEADER,
    MAGIC,
    MAX_FRAME,
    VERSION,
    FrameSocket,
    WireClosed,
    WireError,
    encode_frame,
    frame_nbytes,
    send_obj,
)
from repro.navp import ir
from repro.navp.kernels import KERNELS, register_kernel
from repro.navp.messenger import Messenger
from repro.resilience.faults import Crash, FaultPlan

V = ir.Var
C = ir.Const


def register(name, body, params=()):
    return ir.register_program(
        ir.Program(name, tuple(body), tuple(params)), replace=True)


def _pair():
    a, b = socket_mod.socketpair()
    return FrameSocket(a), FrameSocket(b)


class TestWire:
    def test_roundtrip_preserves_header_and_payload(self):
        left, right = _pair()
        try:
            payload = pickle.dumps(("run", [1, 2, 3]))
            n = left.send(FRAME_RUN, payload, gen=7, deadline=123.5)
            assert n == frame_nbytes(payload) == HEADER.size + len(payload)
            frame = right.recv()
            assert frame.kind == FRAME_RUN
            assert frame.gen == 7
            assert frame.deadline == 123.5
            assert pickle.loads(frame.payload) == ("run", [1, 2, 3])
        finally:
            left.close()
            right.close()

    def test_recv_reassembles_dribbled_bytes(self):
        """TCP may deliver any byte split; recv buffers until whole."""
        a, b = socket_mod.socketpair()
        right = FrameSocket(b)
        try:
            data = encode_frame(FRAME_CMD, b"x" * 100, gen=3)
            for i in range(0, len(data), 7):
                a.sendall(data[i:i + 7])
            frame = right.recv()
            assert frame.gen == 3
            assert frame.payload == b"x" * 100
        finally:
            a.close()
            right.close()

    def test_two_frames_in_one_burst(self):
        a, b = socket_mod.socketpair()
        right = FrameSocket(b)
        try:
            a.sendall(encode_frame(FRAME_CMD, b"first")
                      + encode_frame(FRAME_CMD, b"second"))
            assert right.recv().payload == b"first"
            assert right.recv().payload == b"second"
        finally:
            a.close()
            right.close()

    def test_bad_magic_is_a_loud_error(self):
        a, b = socket_mod.socketpair()
        right = FrameSocket(b)
        try:
            junk = b"HTTP" + encode_frame(FRAME_CMD, b"")[4:]
            a.sendall(junk)
            with pytest.raises(WireError, match="magic"):
                right.recv()
        finally:
            a.close()
            right.close()

    def test_version_skew_is_a_loud_error(self):
        a, b = socket_mod.socketpair()
        right = FrameSocket(b)
        try:
            a.sendall(HEADER.pack(MAGIC, 99, FRAME_CMD, 0, 0.0, 0, 0))
            with pytest.raises(WireError, match="version"):
                right.recv()
        finally:
            a.close()
            right.close()

    def test_absurd_length_is_rejected_before_allocation(self):
        a, b = socket_mod.socketpair()
        right = FrameSocket(b)
        try:
            a.sendall(HEADER.pack(MAGIC, VERSION, FRAME_CMD, 0, 0.0,
                                  MAX_FRAME + 1, 0))
            with pytest.raises(WireError, match="exceeds"):
                right.recv()
        finally:
            a.close()
            right.close()

    def test_eof_mid_stream_is_wire_closed(self):
        a, b = socket_mod.socketpair()
        right = FrameSocket(b)
        try:
            a.sendall(encode_frame(FRAME_CMD, b"y" * 50)[:20])
            a.close()
            with pytest.raises(WireClosed):
                right.recv()
        finally:
            right.close()


class TestPhiAccrual:
    def test_suspicion_grows_with_silence(self):
        det = PhiAccrualDetector(now=0.0, expected=0.1)
        assert det.phi(0.05) < det.phi(0.5) < det.phi(5.0)
        assert det.phi(5.0) > 8.0  # dead to many nines

    def test_beats_keep_suspicion_low(self):
        det = PhiAccrualDetector(now=0.0, expected=0.1)
        t = 0.0
        for _ in range(20):
            t += 0.1
            det.beat(t)
        assert det.phi(t + 0.1) < 1.0

    def test_mean_adapts_to_observed_cadence(self):
        det = PhiAccrualDetector(now=0.0, expected=0.01)
        t = 0.0
        for _ in range(50):
            t += 0.2  # beats are 20x slower than expected
            det.beat(t)
        # the EWMA has learned the slow cadence: a 0.2s gap is normal
        assert det.phi(t + 0.2) < 2.0


class _Exited:
    """A worker process that has already exited cleanly."""

    exitcode = 0

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return False


class TestWorkerSet:
    """The generation fence of the controller end the socket fabric
    and the serve pool share, over a socketpair, with no fork."""

    def _set(self, gen):
        workers = WorkerSet(heartbeat_s=0.025)
        slot = workers.slots[5] = _Slot()
        slot.gen, slot.hello, slot.proc = gen, threading.Event(), _Exited()
        return workers, slot

    def _serve(self, workers, fs, gen, reports, gone):
        pump = threading.Thread(target=workers.serve, daemon=True,
                                args=(fs, 5, gen, reports.append,
                                      gone.append))
        pump.start()
        return pump

    def test_an_older_generation_never_reaches_on_report(self):
        workers, slot = self._set(gen=1)        # one respawn ago
        reports, gone = [], []
        zombie, ours = _pair()
        workers.serve(ours, 5, 0, reports.append, gone.append)
        assert workers.stale_frames == 1        # its hello, refused
        assert slot.conn is None and not slot.hello.is_set()
        zombie.close()

        worker, ours = _pair()
        pump = self._serve(workers, ours, 1, reports, gone)
        send_obj(worker, FRAME_REPORT, ("done", "stale"), gen=0)
        worker.send(FRAME_HEARTBEAT, b"", gen=0)
        send_obj(worker, FRAME_REPORT, ("done", "current"), gen=1)
        worker.close()
        pump.join(timeout=5.0)
        assert not pump.is_alive()
        assert reports == [("done", "current")]
        assert workers.stale_frames == 3
        assert gone == [("gone", 5, 1)]
        assert slot.hello.is_set() and slot.conn is ours
        ours.close()

    def test_retire_fences_the_old_generation_off(self):
        workers, slot = self._set(gen=0)
        reports, gone = [], []
        worker, ours = _pair()
        pump = self._serve(workers, ours, 0, reports, gone)
        send_obj(worker, FRAME_REPORT, ("done", "before"), gen=0)
        deadline = time.monotonic() + 5.0
        while not reports and time.monotonic() < deadline:
            time.sleep(0.001)
        assert workers.retire(5) == "exit code 0"
        pump.join(timeout=5.0)                  # retire closed its end
        assert not pump.is_alive()
        assert slot.gen == 1 and slot.conn is None
        assert gone == [("gone", 5, 0)]
        assert workers.retire(5, gen=0) is None  # already retired
        assert workers.send(5, ("stop",)) == 0   # nothing to send on
        assert reports == [("done", "before")]
        worker.close()


class TestSocketMigration:
    def test_state_travels_over_tcp(self):
        register("sk-tour", [
            ir.Assign("acc", C(0)),
            ir.For("i", C(3), (
                ir.HopStmt((V("i"),)),
                ir.Assign("acc", ir.Bin("+", V("acc"),
                                        ir.NodeGet("chunk"))),
            )),
            ir.NodeSet("total", (), V("acc")),
        ])
        fabric = SocketFabric(Grid1D(3), timeout=60.0)
        for j in range(3):
            fabric.load((j,), chunk=10 ** j)
        fabric.inject((0,), "sk-tour")
        result = fabric.run()
        assert result.places[(2,)]["total"] == 111
        for j in range(3):
            assert result.places[(j,)]["chunk"] == 10 ** j

    def test_make_fabric_knows_socket(self):
        fabric = make_fabric("socket", Grid1D(2), trace=False)
        assert isinstance(fabric, SocketFabric)

    def test_generator_messengers_are_rejected_clearly(self):
        class Tourist(Messenger):
            def main(self):
                yield self.hop((1,))

        fabric = SocketFabric(Grid1D(2))
        with pytest.raises(ConfigurationError, match="IR messengers only"):
            fabric.inject((0,), Tourist())

    def test_window_must_be_positive(self):
        with pytest.raises(FabricError, match="window"):
            SocketFabric(Grid1D(2), window=0)


def _register_slow_bump():
    if "slow_bump" not in KERNELS:
        def _slow_bump(x):
            time.sleep(0.02)
            return x + 1
        register_kernel("slow_bump", _slow_bump)


def _fanout_programs(n_children: int):
    """A parent at PE 0 floods PE 1 with hopping children."""
    register("sk-flood-child", [
        ir.HopStmt((C(1),)),
        ir.ComputeStmt("slow_bump", (ir.NodeGet("tally"),), out="t"),
        ir.NodeSet("tally", (), V("t")),
    ])
    register("sk-flood", [
        ir.For("i", C(n_children), (
            ir.InjectStmt("sk-flood-child", ()),
        )),
    ])


class TestBackpressure:
    def test_credit_window_bounds_receiver_mailbox(self):
        """With window=w, a slow PE's inbox never exceeds w frames."""
        _register_slow_bump()
        n, w = 16, 4
        _fanout_programs(n)
        fabric = SocketFabric(Grid1D(2), timeout=60.0, trace=True, window=w)
        fabric.load((1,), tally=0)
        fabric.inject((0,), "sk-flood")
        result = fabric.run()
        assert result.places[(1,)]["tally"] == n
        assert result.trace.transport(), "no transport stats recorded"
        hwm = result.trace.mailbox_hwm()
        assert hwm.get(1, 0) >= 1
        assert hwm[1] <= w, (
            f"mailbox high-water {hwm[1]} exceeds the credit window {w}")
        # the sender really had to wait for credits at least once
        waits = result.trace._transport_stat("credit_waits")
        assert waits.get(0, 0) >= 1

    def test_soft_deadlines_count_late_frames(self):
        """An impossible per-hop deadline marks every arrival late —
        but frames are still delivered (soft deadlines)."""
        _register_slow_bump()
        n = 4
        _fanout_programs(n)
        fabric = SocketFabric(Grid1D(2), timeout=60.0, trace=True,
                              hop_deadline_s=-1.0)
        fabric.load((1,), tally=0)
        fabric.inject((0,), "sk-flood")
        result = fabric.run()
        assert result.places[(1,)]["tally"] == n
        assert result.trace.deadline_misses() == n


class TestRecovery:
    def test_sigkill_is_detected_and_replayed(self):
        """A real SIGKILL: heartbeat loss -> respawn -> replay."""
        register("sk-relay", [
            ir.Assign("acc", C(0)),
            ir.For("i", C(4), (
                ir.HopStmt((ir.Bin("%", V("i"), C(2)),)),
                ir.Assign("acc", ir.Bin("+", V("acc"), C(1))),
            )),
            ir.NodeSet("hops", (), V("acc")),
        ])
        plan = FaultPlan(faults=(Crash(place=1, at_hop=2),))
        fabric = SocketFabric(Grid1D(2), timeout=90.0, faults=plan,
                              trace=True)
        fabric.inject((0,), "sk-relay")
        result = fabric.run()
        assert result.places[(1,)]["hops"] == 4
        assert sum(fabric.restarts.values()) == 1
        notes = [e.note for e in result.trace.events]
        assert any("SIGKILLed" in n for n in notes)
        assert any("respawned" in n for n in notes)
