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
import threading
import time
import weakref
from multiprocessing.context import ForkProcess

import pytest

from repro.errors import FabricError
from repro.fabric import Grid1D, Grid2D, make_fabric
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


def _bad_hop(bad_hop_program):
    fabric = make_fabric("socket", Grid1D(2), trace=False, timeout=30.0)
    fabric.inject((0,), bad_hop_program.name)
    return fabric


@pytest.mark.parametrize("case", ["plain", "checkpointing", "failing"])
def test_socket_run_leaves_no_thread_and_no_fabric(case, bad_hop_program):
    """A thread parked on a bound method of the fabric — an accept
    loop nobody woke, a reader nobody joined — keeps the whole run
    alive: its loaded blocks, its journal, its checkpoints."""
    threads = threading.active_count()
    if case == "failing":
        fabric = _bad_hop(bad_hop_program)
        with pytest.raises(FabricError):
            fabric.run()
    else:
        fabric = _pipeline("socket", **(
            {"checkpoint_every": 8} if case == "checkpointing" else {}))
        fabric.run()
    assert threading.active_count() == threads
    ref = weakref.ref(fabric)
    del fabric
    gc.collect()
    assert ref() is None
    _assert_no_children()


def _rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise AssertionError("no VmRSS in /proc/self/status")


@pytest.mark.parametrize("options", [{}, {"checkpoint_every": 8}],
                         ids=["plain", "checkpointing"])
def test_socket_runs_do_not_accumulate_memory(options):
    """The benchmark's shape (3.5 MB of blocks per run). With the
    listener leak every run stayed resident: +55 MB plain, +100 MB
    checkpointing over these ten."""
    _pipeline("socket", ab=128, **options).run()     # warm the allocator
    gc.collect()
    before = _rss_mb()
    after = []
    for _ in range(10):
        _pipeline("socket", ab=128, **options).run()
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
