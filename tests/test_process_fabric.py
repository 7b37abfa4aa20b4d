"""ProcessFabric: migration across real OS processes.

Kept deliberately small-scale (each test forks worker processes); the
heavier end-to-end coverage of transformed programs on processes lives
in test_transform_chain.py and the real_processes example.
"""

import queue
import threading
import time

import numpy as np
import pytest

from repro.errors import DeadlockError, FabricError
from repro.fabric import Grid1D, Grid2D
from repro.fabric.process import ProcessFabric
from repro.matmul.ir2d import build_fig11, run_ir2d_suite
from repro.navp import ir
from repro.util.validation import random_matrix

V = ir.Var
C = ir.Const


def register(name, body, params=()):
    return ir.register_program(
        ir.Program(name, tuple(body), tuple(params)), replace=True)


class TestMigration:
    def test_state_travels_data_stays(self):
        """Node variables stay in their process; agent state migrates."""
        register("pf-tour", [
            ir.Assign("acc", C(0)),
            ir.For("i", C(3), (
                ir.HopStmt((V("i"),)),
                ir.Assign("acc", ir.Bin("+", V("acc"),
                                        ir.NodeGet("chunk"))),
            )),
            ir.NodeSet("total", (), V("acc")),
        ])
        fabric = ProcessFabric(Grid1D(3), timeout=60.0)
        for j in range(3):
            fabric.load((j,), chunk=10 ** j)
        fabric.inject((0,), "pf-tour")
        result = fabric.run()
        assert result.places[(2,)]["total"] == 111
        # node data never moved
        for j in range(3):
            assert result.places[(j,)]["chunk"] == 10 ** j

    def test_numpy_agent_payloads(self):
        register("pf-array", [
            ir.Assign("m", ir.NodeGet("block")),
            ir.HopStmt((C(1),)),
            ir.ComputeStmt("gemm_acc",
                           (ir.NodeGet("acc"), V("m"), ir.NodeGet("other")),
                           out="r"),
            ir.NodeSet("result", (), V("r")),
        ])
        a = np.arange(4.0).reshape(2, 2)
        b = np.eye(2)
        fabric = ProcessFabric(Grid1D(2), timeout=60.0)
        fabric.load((0,), block=a)
        fabric.load((1,), other=b, acc=np.zeros((2, 2)))
        fabric.inject((0,), "pf-array")
        result = fabric.run()
        assert np.array_equal(result.places[(1,)]["result"], a)


class TestEventsAndInjection:
    def test_inject_and_events_within_a_worker(self):
        register("pf-child", [
            ir.NodeSet("child_ran", (), C(True)),
            ir.SignalStmt("done"),
        ], params=("mi",))
        register("pf-parent", [
            ir.InjectStmt("pf-child", (("mi", C(1)),)),
            ir.WaitStmt("done"),
            ir.NodeSet("parent_done", (), C(True)),
        ])
        fabric = ProcessFabric(Grid1D(1), timeout=60.0)
        fabric.inject((0,), "pf-parent")
        result = fabric.run()
        assert result.places[(0,)]["child_ran"]
        assert result.places[(0,)]["parent_done"]

    def test_termination_with_grandchildren(self):
        """Parental accounting must track spawn chains across hops."""
        register("pf-leaf", [
            ir.HopStmt((C(0),)),
            ir.NodeSet("leaves", (V("mi"),), C(True)),
        ], params=("mi",))
        register("pf-mid", [
            ir.HopStmt((C(1),)),
            ir.InjectStmt("pf-leaf", (("mi", V("mi")),)),
        ], params=("mi",))
        register("pf-root", [
            ir.For("i", C(3), (
                ir.InjectStmt("pf-mid", (("mi", V("i")),)),
            )),
        ])
        fabric = ProcessFabric(Grid1D(2), timeout=60.0)
        fabric.inject((0,), "pf-root")
        result = fabric.run()
        assert set(result.places[(0,)]["leaves"]) == {0, 1, 2}

    def test_signal_initial(self):
        register("pf-waiter", [
            ir.WaitStmt("EC"),
            ir.NodeSet("ok", (), C(True)),
        ])
        fabric = ProcessFabric(Grid1D(1), timeout=60.0)
        fabric.signal_initial((0,), "EC")
        fabric.inject((0,), "pf-waiter")
        assert fabric.run().places[(0,)]["ok"]


class TestFailureModes:
    def test_deadlock_times_out(self):
        register("pf-stuck", [ir.WaitStmt("never")])
        fabric = ProcessFabric(Grid1D(1), timeout=3.0)
        fabric.inject((0,), "pf-stuck")
        with pytest.raises(DeadlockError):
            fabric.run()

    def test_worker_error_surfaces(self):
        register("pf-bad", [
            ir.Assign("x", ir.NodeGet("missing_var")),
        ])
        fabric = ProcessFabric(Grid1D(1), timeout=30.0)
        fabric.inject((0,), "pf-bad")
        with pytest.raises(FabricError, match="missing_var"):
            fabric.run()

    def test_no_messengers_rejected(self):
        fabric = ProcessFabric(Grid1D(1))
        with pytest.raises(FabricError):
            fabric.run()


class LaggingLoads(ProcessFabric):
    """A link whose commands to every host but 0 trail behind: each
    rides a per-host forwarder thread (FIFO per host, as the
    :class:`~repro.fabric.controller.Link` contract demands) that takes
    50 ms over every command but ``stop``. It is what a busy machine
    does to a big frame's trip through a socketpair once in a while —
    while a peer's small hop to the same worker slips through its own
    pair — done every time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lagging: dict = {}

    def _forward(self, host, cmds) -> None:
        while True:
            cmd = cmds.get()
            if cmd[0] != "stop":
                time.sleep(0.05)
            super().send(host, cmd)
            if cmd[0] == "stop":
                return

    def send(self, host, cmd) -> None:
        if host == 0:
            return super().send(host, cmd)
        if host not in self._lagging:
            self._lagging[host] = queue.Queue()
            threading.Thread(target=self._forward, daemon=True,
                             args=(host, self._lagging[host])).start()
        self._lagging[host].put(cmd)


class TestSetupBarrier:
    def test_a_hop_cannot_overtake_the_loads(self):
        """Plain-mode workers write their peers' sockets directly, and
        nothing orders worker 0's first hop against the controller's
        commands to the *other* hosts. When the loads were such
        commands, this failed every time with ``node variable 'Arow'
        absent at this PE`` unless a ``sync`` barrier closed seeding;
        the same race is what made ``[build_fig15]`` flake 1 in 5 under
        load. Now every worker holds its loads before it reads a frame,
        and however late the controller's commands arrive, the product
        is right."""
        a, b = random_matrix(16, 230), random_matrix(16, 231)
        reference, _res = run_ir2d_suite(build_fig11(2, a, b), "sim")
        suite = build_fig11(2, a, b)
        fabric = LaggingLoads(Grid2D(2), timeout=60.0)
        for coord, node_vars in suite.layout.items():
            fabric.load(coord, **node_vars)
        for coord, event, args, count in suite.initial_signals:
            fabric.signal_initial(coord, event, *args, count=count)
        fabric.inject((0, 0), suite.entry.name)
        places = fabric.run().places
        ab = 16 // 2
        c = np.empty_like(reference)
        for (i, j), node_vars in places.items():
            c[i * ab:(i + 1) * ab, j * ab:(j + 1) * ab] = node_vars["C"]
        assert np.array_equal(c, reference)
