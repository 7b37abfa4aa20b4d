"""Fault injection on the virtual-time fabric.

The central contract: with recovery ON, injected faults are *masked* —
the fault and its repair appear in the trace, but the simulated
timeline and every result stay bit-exact (compared through
``float.hex``). With recovery OFF, the same plan genuinely destroys
messengers and node state.
"""

import numpy as np
import pytest

from repro.errors import DeadlockError
from repro.fabric import Grid1D, SimFabric
from repro.fabric import effects as fx
from repro.navp import Messenger, ir
from repro.navp.interp import IRMessenger
from repro.resilience import Crash, FaultPlan, MessageFault, SlowNode
from repro.resilience.recovery import RecoveryPolicy

V = ir.Var
C = ir.Const


def _register_tour(hops=4):
    ir.register_program(ir.Program("resil-tour", (
        ir.Assign("acc", C(0)),
        ir.For("i", C(hops), (
            ir.HopStmt((V("i"),)),
            ir.Assign("acc", ir.Bin("+", V("acc"), ir.NodeGet("chunk"))),
            ir.NodeSet("mark", (), V("acc")),
        )),
    ), ()), replace=True)


def _run_tour(**fabric_kw):
    _register_tour()
    fabric = SimFabric(Grid1D(4), trace=True, use_cache_model=False,
                       **fabric_kw)
    for j in range(4):
        fabric.load((j,), chunk=10 ** j)
    fabric.inject((0,), IRMessenger("resil-tour"))
    result = fabric.run()
    marks = [result.places[(j,)].get("mark") for j in range(4)]
    _run_tour.counts = fabric.fault_counts   # the last tour's
    return result, marks


class TestMaskedFaults:
    def test_empty_plan_builds_no_resilience_state(self):
        fabric = SimFabric(Grid1D(2), faults=FaultPlan())
        assert fabric._resil is None

    def test_masked_drop_is_bit_exact(self):
        clean, marks = _run_tour()
        assert marks == [1, 11, 111, 1111]
        plan = FaultPlan(faults=(
            MessageFault(action="drop", kind="hop", nth=2),))
        faulted, fmarks = _run_tour(faults=plan)
        assert fmarks == marks
        assert faulted.time.hex() == clean.time.hex()
        assert _run_tour.counts == {"fired": 1, "masked": 1, "lost": 0}
        assert len(faulted.trace.faults()) == 1
        kinds = [e.kind for e in faulted.trace.recoveries()]
        assert "retry" in kinds

    def test_masked_crash_is_bit_exact_and_checkpointed(self):
        clean, marks = _run_tour()
        plan = FaultPlan(faults=(Crash(place=2, at_hop=2),))
        faulted, fmarks = _run_tour(faults=plan)
        assert fmarks == marks
        assert faulted.time.hex() == clean.time.hex()
        kinds = {e.kind for e in faulted.trace.events}
        assert {"fault", "checkpoint", "restore"} <= kinds

    def test_crash_repair_event_ordering(self):
        """The repair protocol is snapshot, then fail, then restore."""
        plan = FaultPlan(faults=(Crash(place=2, at_hop=2),))
        faulted, _marks = _run_tour(faults=plan)
        events = [e.kind for e in faulted.trace.events
                  if e.kind in ("checkpoint", "fault", "restore")]
        assert events == ["checkpoint", "fault", "restore"]

    def test_a_masked_crash_copies_no_node_state(self, monkeypatch):
        """A masked crash is an instantaneous repair that saves
        nothing: with a 512x512 block on every place and deepcopy
        patched to raise, the run keeps the clean run's virtual time."""
        import copy

        blocks = {j: np.full((512, 512), float(j)) for j in range(4)}

        def run(plan):
            _register_tour()
            fabric = SimFabric(Grid1D(4), trace=True, use_cache_model=False,
                               faults=plan)
            for j in range(4):
                fabric.load((j,), chunk=10 ** j, block=blocks[j])
            fabric.inject((0,), IRMessenger("resil-tour"))
            return fabric.run()

        clean = run(None)

        def no_copy(*_args, **_kwargs):
            raise AssertionError("a masked crash deep-copied state")

        monkeypatch.setattr(copy, "deepcopy", no_copy)
        faulted = run(FaultPlan(faults=(Crash(place=2, at_hop=2),)))
        assert faulted.time.hex() == clean.time.hex()
        events = [e.kind for e in faulted.trace.events
                  if e.kind in ("checkpoint", "fault", "restore")]
        assert events == ["checkpoint", "fault", "restore"]

    def test_masked_duplicate_is_deduplicated(self):
        clean, marks = _run_tour()
        plan = FaultPlan(faults=(
            MessageFault(action="duplicate", kind="hop", nth=2),))
        faulted, fmarks = _run_tour(faults=plan)
        assert fmarks == marks
        assert faulted.time.hex() == clean.time.hex()

    def test_retry_cost_perturbs_time(self):
        """A lossy-link model with real retransmit cost slows the run."""
        clean, _ = _run_tour()
        plan = FaultPlan(faults=(
            MessageFault(action="drop", kind="hop", nth=2),))
        faulted, marks = _run_tour(
            faults=plan,
            recovery=RecoveryPolicy(retry_cost_s=0.001))
        assert marks == [1, 11, 111, 1111]
        assert faulted.time > clean.time

    def test_delay_fault_perturbs_time(self):
        clean, _ = _run_tour()
        plan = FaultPlan(faults=(
            MessageFault(action="delay", kind="hop", nth=2,
                         seconds=0.01),))
        faulted, marks = _run_tour(faults=plan)
        assert marks == [1, 11, 111, 1111]
        assert faulted.time >= clean.time + 0.01

    def test_slow_node_stretches_compute(self):
        ir.register_program(ir.Program("resil-slow", (
            ir.HopStmt((C(1),)),
            ir.ComputeStmt("gemm_acc", (ir.NodeGet("c"), ir.NodeGet("a"),
                                        ir.NodeGet("b")), out="r"),
            ir.NodeSet("c", (), V("r")),
        ), ()), replace=True)
        import numpy as np

        def run(plan=None):
            fabric = SimFabric(Grid1D(2), trace=False,
                               use_cache_model=False, faults=plan)
            fabric.load((1,), a=np.ones((8, 8)), b=np.ones((8, 8)),
                        c=np.zeros((8, 8)))
            fabric.inject((0,), IRMessenger("resil-slow"))
            return fabric.run()

        clean = run()
        slowed = run(FaultPlan(faults=(SlowNode(place=1, factor=4.0),)))
        assert slowed.time > clean.time

    def test_same_plan_same_traces(self):
        plan = FaultPlan(faults=(
            MessageFault(action="drop", kind="hop", nth=2),
            Crash(place=3, at_hop=3),
        ))
        first, _ = _run_tour(faults=plan)
        second, _ = _run_tour(faults=plan)
        assert first.trace.events == second.trace.events
        assert first.time.hex() == second.time.hex()


class TestUnmaskedFaults:
    def test_dropped_hop_destroys_the_messenger(self):
        plan = FaultPlan(faults=(
            MessageFault(action="drop", kind="hop", nth=3),))
        result, marks = _run_tour(faults=plan, recovery=False)
        # the first HopStmt is co-hosted (not a transfer), so nth=3 is
        # the leg into place 3: three legs done, then lost in flight
        assert marks == [1, 11, 111, None]
        assert _run_tour.counts["lost"] == 1
        assert result.trace.lost_bytes() > 0

    def test_deadlock_report_names_the_casualty(self):
        ir.register_program(ir.Program("resil-producer", (
            ir.HopStmt((C(1),)),
            ir.SignalStmt("EP", (), C(1)),
        ), ()), replace=True)
        ir.register_program(ir.Program("resil-consumer", (
            ir.WaitStmt("EP", ()),
            ir.NodeSet("got", (), C(1)),
        ), ()), replace=True)
        plan = FaultPlan(faults=(
            MessageFault(action="drop", kind="hop", nth=1),))
        fabric = SimFabric(Grid1D(2), trace=False, use_cache_model=False,
                           faults=plan, recovery=False)
        fabric.inject((0,), IRMessenger("resil-producer"))
        fabric.inject((1,), IRMessenger("resil-consumer"))
        with pytest.raises(DeadlockError) as err:
            fabric.run()
        text = str(err.value)
        assert "recovery disabled" in text
        assert "resil-producer" in text

    def test_unmasked_crash_wipes_node_state(self):
        plan = FaultPlan(faults=(Crash(place=1, at_hop=1),))
        _result, marks = _run_tour(faults=plan, recovery=False)
        # place 1 crashed before the messenger landed there
        assert marks[0] == 1
        assert marks[1] is None


class TestNothingRunsOnACrashedPE:
    """A crash with recovery off wipes the PE's node variables; a
    messenger resident there is retired before its generator resumes
    again, so no code of it ever reads a wiped variable."""

    class _Waiter(Messenger):
        # on PE 0: its first effect boundary fires the crash of PE 1
        def main(self):
            msg = yield fx.Recv(src=(1,), tag="a")
            self.vars["got"] = msg.payload

    class _Reader(Messenger):
        # on PE 1: reads a node variable before its first effect
        def main(self):
            yield fx.Send(dst=(0,), tag="a", payload=self.vars["A"],
                          nbytes=8)

    def test_a_resident_messenger_is_retired_before_it_runs(self):
        plan = FaultPlan(faults=(Crash(place=1, at_time=0.0),))
        fabric = SimFabric(Grid1D(2), trace=True, use_cache_model=False,
                           faults=plan, recovery=False)
        fabric.load((1,), A=7)
        fabric.inject((0,), self._Waiter())
        fabric.inject((1,), self._Reader())
        with pytest.raises(DeadlockError,
                           match="recovery disabled: _Reader"):
            fabric.run()
        notes = [event.note for event in fabric.trace.faults()]
        assert notes.count("messenger lost: PE (1,) crashed") == 1
        assert fabric.fault_counts == {"fired": 1, "masked": 0, "lost": 2}


class TestSendFaults:
    class _Sender(Messenger):
        def main(self):
            yield fx.Send(dst=(1,), tag="x", payload=42, nbytes=64)

    class _Receiver(Messenger):
        def main(self):
            msg = yield fx.Recv(src=(0,), tag="x")
            self.vars["got"] = msg.payload

    def _run_pair(self, plan=None, recovery=True):
        fabric = SimFabric(Grid1D(2), trace=True, use_cache_model=False,
                           faults=plan, recovery=recovery)
        fabric.inject((0,), self._Sender())
        fabric.inject((1,), self._Receiver())
        return fabric.run()

    def test_masked_send_drop_is_bit_exact(self):
        clean = self._run_pair()
        plan = FaultPlan(faults=(
            MessageFault(action="drop", kind="send", nth=1),))
        faulted = self._run_pair(plan)
        assert faulted.places[(1,)]["got"] == 42
        assert faulted.time.hex() == clean.time.hex()
        assert len(faulted.trace.faults()) == 1

    def test_duplicate_send_is_deduplicated(self):
        clean = self._run_pair()
        plan = FaultPlan(faults=(
            MessageFault(action="duplicate", kind="send", nth=1),))
        faulted = self._run_pair(plan)
        assert faulted.places[(1,)]["got"] == 42
        assert faulted.time.hex() == clean.time.hex()

    def test_unmasked_send_drop_deadlocks_receiver(self):
        plan = FaultPlan(faults=(
            MessageFault(action="drop", kind="send", nth=1),))
        with pytest.raises(DeadlockError):
            self._run_pair(plan, recovery=False)
