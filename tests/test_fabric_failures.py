"""Failure reporting and collect-phase recovery, the same on both
distributed fabrics now that they share one controller loop.

Each test pins a behaviour one of the old per-fabric loops lacked:

* a worker that dies between its last ``done`` and its ``vars`` is
  recovered (restore + replay + a re-sent ``collect``) instead of
  surfacing as ``queue.Empty`` (process) or a bogus "deadlock" with
  the respawn budget untouched (socket);
* an unsupervised process run notices an externally killed worker via
  ``is_alive()`` instead of waiting out the whole timeout;
* a dropped hop with recovery off is named in the process fabric's
  ``DeadlockError`` and listed in ``fabric.lost``, as on the socket
  fabric;
* a lost worker says how it died — the signal or the exit code — in
  the error and in the ``respawn`` trace note;
* a worker condemned by heartbeat loss while still alive (stopped, not
  dead) is killed and reaped, not leaked past ``run()``.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.errors import DeadlockError, FabricError, ResilienceError
from repro.fabric import Grid1D, Grid2D, make_fabric
from repro.matmul.ir2d import build_fig11
from repro.navp import ir
from repro.resilience import Crash, FaultPlan, MessageFault
from repro.util.validation import random_matrix
from tests.test_fabric_teardown import _assert_no_children

V, C = ir.Var, ir.Const


def _matmul(kind, **kw):
    a, b = random_matrix(16, 220), random_matrix(16, 221)
    suite = build_fig11(2, a, b)
    kw.setdefault("trace", False)
    fabric = make_fabric(kind, Grid2D(2), timeout=60.0, **kw)
    for coord, node_vars in suite.layout.items():
        fabric.load(coord, **node_vars)
    for coord, event, args, count in suite.initial_signals:
        fabric.signal_initial(coord, event, *args, count=count)
    fabric.inject((0, 0), suite.entry.name)
    return fabric


def _kill_before(fabric, op, victim, when_host=None):
    """SIGKILL ``victim``'s worker (and see it dead) just before the
    controller's first ``op`` command (to ``when_host``) is sent."""
    send, armed = fabric.send, [True]

    def sending(host, cmd):
        if armed[0] and cmd[0] == op and when_host in (None, host):
            armed[0] = False
            assert fabric.crash(victim)
            deadline = time.monotonic() + 10.0
            while fabric.crash(victim):     # False once it is gone
                assert time.monotonic() < deadline
                time.sleep(0.01)
        send(host, cmd)

    fabric.send = sending


@pytest.mark.parametrize("kind", ["process", "socket"])
def test_worker_lost_after_the_last_done_is_recovered(kind):
    """`collect` is only sent once every messenger is accounted for,
    so a worker killed right before it died after the last `done`."""
    clean = _matmul(kind, supervise=True).run().places
    fabric = _matmul(kind, supervise=True)
    _kill_before(fabric, "collect", victim=1, when_host=1)
    places = fabric.run().places
    assert dict(fabric.restarts) == {1: 1}
    assert places.keys() == clean.keys()
    for coord in clean:   # bit-identical, not merely close
        assert np.array_equal(places[coord]["C"], clean[coord]["C"])


def test_a_stopped_worker_is_killed_not_leaked():
    """A SIGSTOPped worker keeps its socket open and stops beating, so
    only its detector can condemn it — and a condemned worker is
    SIGKILLed and reaped at once, not sent a SIGTERM it cannot act on
    and left to outlive the run."""
    clean = _matmul("socket", supervise=True).run().places
    fabric = _matmul("socket", supervise=True)
    send, stopped = fabric.send, []

    def sending(host, cmd):
        if not stopped and cmd[0] == "collect" and host == 1:
            stopped.append(fabric.workers.slots[1].proc.pid)
            os.kill(stopped[0], signal.SIGSTOP)
        send(host, cmd)

    fabric.send = sending
    try:
        places = fabric.run().places
        assert stopped
        assert dict(fabric.restarts) == {1: 1}
        for coord in clean:   # bit-identical, not merely close
            assert np.array_equal(places[coord]["C"], clean[coord]["C"])
        _assert_no_children()
    finally:
        for pid in stopped:   # a red run must not leave it behind
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_plain_process_run_notices_a_killed_worker():
    ir.register_program(ir.Program("ff-one-hop", (
        ir.HopStmt((C(1),)),
        ir.NodeSet("here", (), C(1)),
    ), ()), replace=True)
    fabric = make_fabric("process", Grid1D(2), trace=False, timeout=60.0)
    fabric.inject((0,), "ff-one-hop")
    _kill_before(fabric, "run", victim=1)   # an OOM kill, a stray signal
    t0 = time.monotonic()
    with pytest.raises(FabricError, match="worker 1 lost.*no supervision"):
        fabric.run()
    assert time.monotonic() - t0 < 5.0


@pytest.mark.parametrize("kind", ["process", "socket"])
def test_a_crashed_worker_says_how_it_died(kind):
    plan = FaultPlan(faults=(Crash(place=1, at_hop=2),))
    with pytest.raises(ResilienceError,
                       match=r"worker 1 lost \(killed by SIGKILL\)"):
        _matmul(kind, faults=plan, max_restarts=0).run()
    result = _matmul(kind, faults=plan, trace=True).run()
    notes = [e.note for e in result.trace.recoveries()
             if e.kind == "respawn"]
    assert len(notes) == 1
    assert "worker 1 lost (killed by SIGKILL), respawned" in notes[0]


def test_process_deadlock_names_the_dropped_messenger():
    ir.register_program(ir.Program("ff-tour", (
        ir.For("i", C(3), (
            ir.HopStmt((ir.Bin("%", ir.Bin("+", V("i"), C(1)), C(2)),)),
        )),
    ), ()), replace=True)
    plan = FaultPlan(faults=(MessageFault(action="drop", kind="hop",
                                          nth=2),))
    fabric = make_fabric("process", Grid1D(2), trace=False, timeout=2.0,
                         faults=plan, recovery=False)
    fabric.inject((0,), "ff-tour")
    with pytest.raises(DeadlockError, match="recovery disabled: m0"):
        fabric.run()
    assert fabric.lost == ["m0"]


def test_a_backlog_of_beats_does_not_arm_the_detector():
    """After a stall on the reading side the queued heartbeats arrive
    microseconds apart. That burst must not teach the detector a
    cadence no sender has: the next ordinary gap has to stay
    unsuspicious."""
    from repro.fabric.socket import PhiAccrualDetector

    det = PhiAccrualDetector(now=0.0, expected=0.025)
    t = 1.0                       # a one-second stall, then 40 beats at once
    for _ in range(40):
        t += 1e-5
        det.beat(t)
    assert det.phi(t + 0.040) < 1.0     # a late-ish beat: not even "90 % dead"
    assert det.phi(t + 5.0) > 12.0      # real silence is still caught
