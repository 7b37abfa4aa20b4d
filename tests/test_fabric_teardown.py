"""Teardown: no orphans after a failed run, nothing left after any.

Regression tests for the distributed fabrics' cleanup contract: when a
run *fails* (a worker hits an error mid-protocol), every worker
process must still exit and the controller's listener must close —
a failed job must not leak orphaned processes into the caller's
process table or keep 127.0.0.1 ports bound. This is what lets a
long-lived daemon (repro serve) survive thousands of failed jobs.

The forced failure is a hop to a coordinate outside the topology: the
executing worker raises MigrationError, reports it, and the
controller turns that into a FabricError — with workers mid-protocol
(the other host is idle in its mailbox wait).

The second half pins the two lifecycle rules of DESIGN.md for *every*
run: nothing a run starts outlives ``run()`` (threads, the fabric
itself, resident memory), and bring-up forks before it starts threads.
"""

import gc
import multiprocessing as mp
import os
import threading
import time
import weakref
from multiprocessing.context import ForkProcess

import numpy as np
import pytest

from repro.errors import FabricError
from repro.fabric import Grid1D, Grid2D, make_fabric, wire
from repro.fabric.hosts import cyclic_hosts
from repro.navp import ir
from repro.serve import ServeService, build_job_suite

C = ir.Const


@pytest.fixture()
def bad_hop_program():
    return ir.register_program(
        ir.Program("teardown-bad-hop",
                   body=(ir.HopStmt((C(7),)),)),  # (7,) not in Grid1D(2)
        replace=True)


def _assert_no_children(deadline_s: float = 10.0) -> None:
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        kids = mp.active_children()   # also joins finished children
        if not kids:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"orphaned worker process(es) after failed run: "
        f"{[k.name for k in mp.active_children()]}")


@pytest.mark.parametrize("kind", ["process", "socket"])
def test_failed_plain_run_leaves_no_orphans(kind, bad_hop_program):
    fabric = make_fabric(kind, Grid1D(2), trace=False, timeout=30.0)
    fabric.inject((0,), bad_hop_program.name)
    with pytest.raises(FabricError):
        fabric.run()
    _assert_no_children()


@pytest.mark.parametrize("kind", ["process", "socket"])
def test_failed_resilient_run_leaves_no_orphans(kind, bad_hop_program):
    """The resilient path has more to leak — journals, respawned
    generations, the supervisor — and must still reap everything."""
    fabric = make_fabric(kind, Grid1D(2), trace=False, timeout=30.0,
                         supervise=True, max_restarts=1)
    fabric.inject((0,), bad_hop_program.name)
    with pytest.raises(FabricError):
        fabric.run()
    _assert_no_children()


def test_socket_listener_closed_after_failure(bad_hop_program):
    """The bound control port must be released on the failure path."""
    fabric = make_fabric("socket", Grid1D(2), trace=False, timeout=30.0)
    fabric.inject((0,), bad_hop_program.name)
    with pytest.raises(FabricError):
        fabric.run()
    assert fabric._listener.sock.fileno() == -1  # closed, port released
    _assert_no_children()


# ----------------------------------------------------------------------
# Lifetime: a run owns what it starts
# ----------------------------------------------------------------------

def _pipeline(kind, ab=8, **options):
    """``navp-2d-pipeline`` g=3 folded onto 2 hosts, ready to run."""
    suite, _a, _b = build_job_suite("navp-2d-pipeline", 3, 3, ab)
    topology = Grid2D(3)
    fabric = make_fabric(kind, topology, trace=False, timeout=60.0,
                         hosts=cyclic_hosts(topology, 2), **options)
    for coord, node_vars in suite.layout.items():
        fabric.load(coord, **node_vars)
    for coord, event, args, count in suite.initial_signals:
        fabric.signal_initial(coord, event, *args, count=count)
    fabric.inject((0, 0), suite.entry.name)
    return fabric


def _bad_hop(kind, bad_hop_program):
    fabric = make_fabric(kind, Grid1D(2), trace=False, timeout=30.0)
    fabric.inject((0,), bad_hop_program.name)
    return fabric


def _one_run(kind, case, bad_hop_program, ab=8) -> weakref.ref:
    """One ``plain`` / ``checkpointing`` / ``failing`` run; returns a
    weak reference to its fabric."""
    if case == "failing":
        fabric = _bad_hop(kind, bad_hop_program)
        with pytest.raises(FabricError):
            fabric.run()
    else:
        fabric = _pipeline(kind, ab=ab, **(
            {"checkpoint_every": 8} if case == "checkpointing" else {}))
        fabric.run()
    return weakref.ref(fabric)


def _kinds(*cases):
    """Each case on both worker-process fabrics; a socket case keeps
    its bare name as its id."""
    return [pytest.param(kind, case,
                         id=case if kind == "socket" else f"{case}-{kind}")
            for kind in ("socket", "process") for case in cases]


@pytest.mark.parametrize("kind,case",
                         _kinds("plain", "checkpointing", "failing"))
def test_socket_run_leaves_no_thread_and_no_fabric(kind, case,
                                                   bad_hop_program):
    """A thread parked on a bound method of the fabric — an accept
    loop nobody woke, a reader nobody joined — keeps the whole run
    alive: its loaded blocks, its journal, its checkpoints. So does a
    reference cycle through the fabric (a recursive closure capturing
    ``self`` was one) until the cyclic collector happens to run: the
    fabric must die by reference counting alone."""
    threads = threading.active_count()
    gc.disable()
    try:
        ref = _one_run(kind, case, bad_hop_program)
        assert threading.active_count() == threads
        assert ref() is None
    finally:
        gc.enable()
    _assert_no_children()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_runs_leave_no_descriptor(bad_hop_program):
    """Every socketpair, connection, listener and sentinel pipe a run
    opens is closed by the time it returns — ten plain and ten
    checkpointing runs of each fabric, and a failing run of each."""
    _one_run("process", "plain", bad_hop_program)   # warm up imports
    _one_run("socket", "plain", bad_hop_program)
    gc.collect()
    before = _open_fds()
    for kind in ("process", "socket"):
        for case in ["plain"] * 10 + ["checkpointing"] * 10 + ["failing"]:
            _one_run(kind, case, bad_hop_program)
    gc.collect()
    assert _open_fds() == before


def _socket_inodes(pid) -> set:
    out = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:     # closed since the listing
            continue
        if target.startswith("socket:"):
            out.add(target)
    return out


@pytest.mark.parametrize("options,held",
                         [({}, 1 + 2), ({"supervise": True}, 1)],
                         ids=["plain", "resilient"])
def test_a_process_worker_holds_only_its_own_sockets(options, held):
    """Its control end, plus one peer end per other host in plain
    mode: every other end the fork copied is closed before the worker
    reads its first command, so EOF and EPIPE mean what they say."""
    fabric = make_fabric("process", Grid1D(3), trace=False, timeout=30.0,
                         **options)
    inherited = _socket_inodes(os.getpid())   # sockets of this process
    fabric._open()
    try:
        for h in range(3):
            fabric.send(h, ("collect", ()))
        answered = set()
        deadline = time.monotonic() + 10.0
        while len(answered) < 3:  # every worker is past its start-up
            assert time.monotonic() < deadline, f"answered: {answered}"
            msg = fabric.receive(1.0)
            if msg is not None and msg[0] == "vars":
                answered.add(msg[1])
        for worker in fabric._workers.values():
            own = _socket_inodes(worker.pid) - inherited
            assert len(own) == held, (worker.name, own)
    finally:
        fabric._close()
    _assert_no_children()


@pytest.mark.parametrize("kind", ["process", "socket"])
def test_an_oversized_reply_fails_the_run(kind, monkeypatch):
    """A frame over the bound used to vanish into the sender's ``except
    WireError`` — the run "succeeded" with the variable absent at its
    PE. Loads no longer cross the wire, but a written variable still
    does, in the ``vars`` reply: the run fails at once, saying where,
    what and how big."""
    monkeypatch.setattr(wire, "MAX_FRAME", 1 << 20)
    fabric = make_fabric(kind, Grid1D(2), trace=False, timeout=30.0)
    fabric.load((1,), big=np.zeros(300_000))     # 2.4 MB
    fabric.inject((1,), ir.register_program(ir.Program(
        "teardown-write-big",
        body=(ir.NodeSet("out", (), ir.NodeGet("big")),)),
        replace=True).name)
    t0 = time.monotonic()
    with pytest.raises(FabricError,
                       match=r"host 1: 'vars' frame refused: frame of "
                             r"\d+ bytes exceeds the 1048576-byte bound"):
        fabric.run()
    assert time.monotonic() - t0 < 5.0
    _assert_no_children()


@pytest.mark.parametrize("kind", ["process", "socket"])
def test_a_load_over_the_frame_bound_simply_works(kind, monkeypatch):
    """A load rides the fork image, not a frame: the wire's bound does
    not apply to it, and the worker holds every byte."""
    monkeypatch.setattr(wire, "MAX_FRAME", 1 << 20)
    big = np.arange(300_000.0)                   # 2.4 MB
    fabric = make_fabric(kind, Grid1D(2), trace=False, timeout=30.0)
    fabric.load((1,), big=big)
    fabric.inject((1,), ir.register_program(ir.Program(
        "teardown-read-big",
        body=(ir.NodeSet("last", (),
                         ir.Index(ir.NodeGet("big"), (C(299_999),))),)),
        replace=True).name)
    places = fabric.run().places
    assert places[(1,)]["last"] == 299_999.0
    assert places[(1,)]["big"] is big            # never written: the load
    _assert_no_children()


def _rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise AssertionError("no VmRSS in /proc/self/status")


@pytest.mark.parametrize("kind,case", _kinds("plain", "checkpointing"))
def test_socket_runs_do_not_accumulate_memory(kind, case):
    """The benchmark's shape (3.5 MB of blocks per run). With the
    listener leak every socket run stayed resident: +55 MB plain,
    +100 MB checkpointing over these ten."""
    _one_run(kind, case, None, ab=128)     # warm the allocator
    gc.collect()
    before = _rss_mb()
    after = []
    for _ in range(10):
        _one_run(kind, case, None, ab=128)
        gc.collect()
        after.append(_rss_mb())
    # the allocator's own run-to-run swing is a few MB: a leak is in
    # every late reading, a swing is not
    assert min(after[-3:]) - before < 10.0, (before, after)


def test_serve_cycles_leave_no_accept_thread_and_no_service():
    refs = []
    for _ in range(3):
        service = ServeService(pool_size=1, heartbeat_s=0.02)
        service.start()
        service.shutdown(drain=False)
        refs.append(weakref.ref(service))
        del service
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("serve-")]
    # a worker's handler thread ends on the EOF of the connection the
    # shutdown closed — promptly, not synchronously
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        gc.collect()
        if not any(ref() is not None for ref in refs):
            break
        time.sleep(0.05)
    assert [ref() for ref in refs] == [None] * 3
    _assert_no_children()


@pytest.mark.parametrize("kind", ["process", "socket"])
@pytest.mark.parametrize("options", [{}, {"checkpoint_every": 8}],
                         ids=["plain", "checkpointing"])
def test_bring_up_forks_before_it_starts_threads(kind, options,
                                                 monkeypatch):
    """``fork()`` copies one thread; a lock another thread held at
    that instant stays locked in the child for ever. Bring-up must
    not take the chance: every initial fork sees the caller's thread
    count — no acceptor, reader or queue feeder yet."""
    seen = []
    start = ForkProcess.start

    def recording_start(proc):
        seen.append(threading.active_count())
        start(proc)

    monkeypatch.setattr(ForkProcess, "start", recording_start)
    baseline = threading.active_count()
    _pipeline(kind, **options).run()
    assert seen == [baseline, baseline]
    assert threading.active_count() == baseline
