"""Hop-delivery failure paths on the wall-clock thread fabric, and the
trace ledger's accounting under message loss."""

import threading

import pytest

from repro.errors import DeadlockError
from repro.fabric import Grid1D
from repro.fabric.threads import ThreadFabric
from repro.navp import ir
from repro.navp.interp import IRMessenger
from repro.resilience import FaultPlan, MessageFault

V = ir.Var
C = ir.Const


def _register_tour():
    ir.register_program(ir.Program("thr-tour", (
        ir.Assign("acc", C(0)),
        ir.For("i", C(3), (
            ir.HopStmt((V("i"),)),
            ir.Assign("acc", ir.Bin("+", V("acc"), C(1))),
            ir.NodeSet("mark", (), V("acc")),
        )),
    ), ()), replace=True)


def _run(plan=None, recovery=True):
    _register_tour()
    fabric = ThreadFabric(Grid1D(3), trace=True, faults=plan,
                          recovery=recovery)
    fabric.inject((0,), IRMessenger("thr-tour"))
    result = fabric.run(timeout=30.0)
    marks = [result.places[(j,)].get("mark") for j in range(3)]
    return fabric, result, marks


class TestHopFailurePaths:
    def test_masked_drop_is_retried_to_success(self):
        plan = FaultPlan(faults=(
            MessageFault(action="drop", kind="hop", nth=1),))
        fabric, result, marks = _run(plan)
        assert marks == [1, 2, 3]
        assert fabric.lost == []
        counts = fabric.fault_counts
        assert counts["fired"] == 1 and counts["masked"] == 1
        assert len(result.trace.faults()) == 1
        assert [e.kind for e in result.trace.recoveries()] == ["retry"]

    def test_unmasked_drop_destroys_the_messenger(self):
        plan = FaultPlan(faults=(
            MessageFault(action="drop", kind="hop", nth=2),))
        fabric, result, marks = _run(plan, recovery=False)
        # completed through place 1, lost on the hop into place 2
        assert marks == [1, 2, None]
        assert fabric.lost == ["thr-tour"]
        assert fabric.fault_counts["lost"] == 1

    def test_deadlock_report_names_casualties(self):
        ir.register_program(ir.Program("thr-producer", (
            ir.HopStmt((C(1),)),
            ir.SignalStmt("EP", (), C(1)),
        ), ()), replace=True)
        ir.register_program(ir.Program("thr-consumer", (
            ir.WaitStmt("EP", ()),
            ir.NodeSet("got", (), C(1)),
        ), ()), replace=True)
        plan = FaultPlan(faults=(
            MessageFault(action="drop", kind="hop", nth=1),))
        fabric = ThreadFabric(Grid1D(2), faults=plan, recovery=False)
        fabric.inject((0,), IRMessenger("thr-producer"))
        fabric.inject((1,), IRMessenger("thr-consumer"))
        with pytest.raises(DeadlockError) as err:
            fabric.run(timeout=3.0)
        text = str(err.value)
        assert "recovery disabled" in text
        assert "thr-producer" in text

    def test_empty_plan_has_no_runtime(self):
        fabric = ThreadFabric(Grid1D(2), faults=FaultPlan())
        assert fabric._runtime is None


class TestRunsCountTheirOwnFaults:
    PLANS = {
        "delays": FaultPlan(faults=(MessageFault(
            action="delay", kind="hop", every=1, seconds=0.001),)),
        "drop": FaultPlan(faults=(
            MessageFault(action="drop", kind="hop", nth=1),)),
    }

    def test_concurrent_runs_report_their_solo_counts(self):
        """Two fault-plan runs at once, on two Python threads, five
        times each: every run reports exactly what it reports alone."""
        _register_tour()
        solo = {name: _run(plan)[0].fault_counts
                for name, plan in self.PLANS.items()}
        assert solo == {"delays": {"fired": 2, "masked": 0, "lost": 0},
                        "drop": {"fired": 1, "masked": 1, "lost": 0}}
        start = threading.Barrier(len(self.PLANS))
        seen = {name: [] for name in self.PLANS}

        def runs(name):
            start.wait()
            for _ in range(5):
                seen[name].append(_run(self.PLANS[name])[0].fault_counts)

        threads = [threading.Thread(target=runs, args=(name,))
                   for name in self.PLANS]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        assert seen == {name: [counts] * 5 for name, counts in solo.items()}


class TestLedgerAccountingUnderLoss:
    def test_fault_events_excluded_from_movement_ledger(self):
        """A dropped transfer moved nothing: bytes_moved/message_count
        skip fault events; lost_bytes reports what was destroyed."""
        plan = FaultPlan(faults=(
            MessageFault(action="drop", kind="hop", nth=2),))
        _fabric, result, _marks = _run(plan, recovery=False)
        faults = result.trace.faults()
        assert len(faults) == 1 and faults[0].nbytes > 0
        assert result.trace.lost_bytes() == faults[0].nbytes
        # the ledger only counts transfers that really crossed
        moved = result.trace.bytes_moved()
        assert moved > 0
        assert all(e.kind != "fault"
                   for e in result.trace.events if e.nbytes > 0
                   and e.kind in ("hop", "send"))
        assert result.trace.message_count() == sum(
            1 for e in result.trace.events
            if e.nbytes > 0 and e.kind != "fault")

    def test_masked_run_ledger_matches_clean_run(self):
        """With recovery on, the retried hop is eventually delivered,
        so the movement ledger equals the clean run's (the fault event
        carries no nbytes — nothing was lost)."""
        _fabric, clean, _ = _run()
        plan = FaultPlan(faults=(
            MessageFault(action="drop", kind="hop", nth=1),))
        _fabric2, masked, marks = _run(plan)
        assert marks == [1, 2, 3]
        assert masked.trace.bytes_moved() == clean.trace.bytes_moved()
        assert masked.trace.message_count() == clean.trace.message_count()
        assert masked.trace.lost_bytes() == 0
