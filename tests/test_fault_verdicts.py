"""One fault plan, one meaning: a message fault is judged the same on
every fabric.

Each hop row injects one ``MessageFault`` (the first cross-host hop) into
the Table 3 NavP program on a 2x2 grid folded onto two hosts, and runs it
on sim, thread, process and socket. Each send row injects the same fault
into one point-to-point message between two PEs, on sim and thread (IR
has no sends, so the controller fabrics have none to fault). Per row
every fabric must report the same fault counts (``fault_counts``) and the same
set of ``(kind, note)`` fault, retry and dedup trace events. A masked
row must also still compute the right product.

The ``src`` test pins the index domain of the controller fabrics: a
``src``-scoped spec names a worker host there, and fires on every hop
that leaves it.
"""

import numpy as np
import pytest

from repro.errors import DeadlockError
from repro.fabric import FABRIC_KINDS, Grid1D, Grid2D, make_fabric
from repro.fabric import effects as fx
from repro.fabric.hosts import cyclic_hosts
from repro.matmul.ir2d import assemble_product, build_fig11
from repro.navp import Messenger
from repro.navp.interp import IRMessenger
from repro.resilience import FaultPlan, MessageFault
from repro.util.validation import random_matrix

LOST_TIMEOUT = 2.0      # a lost transfer strands the run: wait this long
A, B = random_matrix(16, 50), random_matrix(16, 51)
ROWS = [(action, recovery) for action in ("delay", "duplicate", "drop")
        for recovery in (True, False)]
ROW_IDS = [f"{a}-{'recovery' if r else 'no-recovery'}" for a, r in ROWS]


def _plan(action, kind, **where):
    seconds = 0.01 if action == "delay" else 0.0
    return FaultPlan(faults=(MessageFault(
        action=action, kind=kind, seconds=seconds, **where),))


def _observe(fabric, run, lost: bool):
    """Run; return the run's fault counts, the fault/retry/dedup events
    and the result (None when the run was stranded)."""
    result = None
    try:
        result = run()
    except DeadlockError:
        if not lost:
            raise
    delta = fabric.fault_counts
    events = {(e.kind, e.note) for e in fabric.trace.events
              if e.kind in ("fault", "retry", "dedup")}
    return delta, events, result


def _run_fig11(kind, plan, recovery, lost=False):
    topology = Grid2D(2)
    suite = build_fig11(2, A, B)
    timeout = LOST_TIMEOUT if lost else 60.0
    extra = {"timeout": timeout} if kind in ("process", "socket") else {}
    fabric = make_fabric(kind, topology, trace=True,
                         hosts=cyclic_hosts(topology, 2), faults=plan,
                         recovery=recovery, **extra)
    for coord, node_vars in suite.layout.items():
        fabric.load(coord, **node_vars)
    for coord, event, args, count in suite.initial_signals:
        fabric.signal_initial(coord, event, *args, count=count)
    fabric.inject((0, 0), IRMessenger(suite.entry.name))
    run = ((lambda: fabric.run(timeout=timeout)) if kind == "thread"
           else fabric.run)
    delta, events, result = _observe(fabric, run, lost)
    product = None if result is None else assemble_product(
        suite, result.places)
    return delta, events, product, result


class _Sender(Messenger):
    def main(self):
        yield fx.Send(dst=(1,), tag="x", payload=42, nbytes=64)


class _Receiver(Messenger):
    def main(self):
        msg = yield fx.Recv(src=(0,), tag="x")
        self.vars["got"] = msg.payload


def _run_pair(kind, plan, recovery, lost=False):
    fabric = make_fabric(kind, Grid1D(2), trace=True, faults=plan,
                         recovery=recovery)
    fabric.inject((0,), _Sender())
    fabric.inject((1,), _Receiver())
    run = ((lambda: fabric.run(timeout=LOST_TIMEOUT)) if kind == "thread"
           else fabric.run)
    delta, events, result = _observe(fabric, run, lost)
    got = None if result is None else result.places[(1,)].get("got")
    return delta, events, got


@pytest.mark.parametrize("action,recovery", ROWS, ids=ROW_IDS)
def test_a_hop_fault_means_the_same_on_every_fabric(action, recovery):
    lost = action == "drop" and not recovery
    plan = _plan(action, "hop", nth=1)
    seen = {}
    for kind in FABRIC_KINDS:
        delta, events, product, _result = _run_fig11(kind, plan, recovery,
                                                     lost)
        seen[kind] = (delta, events)
        assert delta["fired"] == 1, (kind, delta)
        if not lost:
            assert np.allclose(product, A @ B), kind
    first = seen[FABRIC_KINDS[0]]
    for kind, row in seen.items():
        assert row == first, (
            f"{action} (recovery {recovery}) on {kind}: {row} "
            f"!= sim's {first}")


@pytest.mark.parametrize("action,recovery", ROWS, ids=ROW_IDS)
def test_a_send_fault_means_the_same_on_sim_and_thread(action, recovery):
    lost = action == "drop" and not recovery
    plan = _plan(action, "send", nth=1)
    seen = {}
    for kind in ("sim", "thread"):
        delta, events, got = _run_pair(kind, plan, recovery, lost)
        seen[kind] = (delta, events)
        assert delta["fired"] == 1, (kind, delta)
        assert got == (None if lost else 42), kind
    assert seen["thread"] == seen["sim"], seen


@pytest.mark.parametrize("kind", ["process", "socket"])
def test_a_src_scoped_fault_fires_on_the_controller_fabrics(kind):
    """``src`` is a worker host here: every hop that leaves host 0 is
    delayed, and each one is counted once."""
    plan = _plan("delay", "hop", src=0, every=1)
    delta, events, product, result = _run_fig11(kind, plan, True)
    assert np.allclose(product, A @ B)
    leaving = [e for e in result.trace.events
               if e.kind == "hop" and e.src_place == 0]
    assert delta["fired"] == len(leaving) >= 1
    assert delta["masked"] == delta["lost"] == 0
    assert {ev_kind for ev_kind, _note in events} == {"fault"}
