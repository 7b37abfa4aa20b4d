"""Fault plans: validation, JSON round trip, deterministic matching."""

import pytest

from repro.errors import FaultPlanError
from repro.fabric import Grid1D
from repro.resilience import (
    Crash,
    FaultPlan,
    MessageFault,
    PlanRuntime,
    SlowNode,
    ambient,
    injected,
)


class TestSpecValidation:
    def test_crash_needs_exactly_one_trigger(self):
        with pytest.raises(FaultPlanError):
            Crash(place=0)
        with pytest.raises(FaultPlanError):
            Crash(place=0, at_time=0.5, at_hop=3)
        Crash(place=0, at_time=0.5)
        Crash(place=(1, 2), at_hop=3)

    def test_crash_rejects_bad_values(self):
        with pytest.raises(FaultPlanError):
            Crash(place=0, at_time=-1.0)
        with pytest.raises(FaultPlanError):
            Crash(place=0, at_hop=0)
        with pytest.raises(FaultPlanError):
            Crash(place="north", at_time=0.5)

    def test_message_fault_vocabulary_is_closed(self):
        with pytest.raises(FaultPlanError):
            MessageFault(action="corrupt")
        with pytest.raises(FaultPlanError):
            MessageFault(kind="rpc")
        with pytest.raises(FaultPlanError):
            MessageFault(nth=0)
        with pytest.raises(FaultPlanError):
            MessageFault(action="delay")  # needs seconds > 0

    def test_slow_node_factor_positive(self):
        with pytest.raises(FaultPlanError):
            SlowNode(place=0, factor=0.0)

    def test_plan_rejects_foreign_specs(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(faults=("drop the third hop",))

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(faults=(Crash(place=0, at_hop=1),))


class TestJsonRoundTrip:
    def test_round_trip_preserves_every_spec(self, tmp_path):
        plan = FaultPlan(
            faults=(
                Crash(place=(0, 1), at_time=0.25),
                Crash(place=2, at_hop=7),
                MessageFault(action="drop", kind="hop", nth=3),
                MessageFault(action="duplicate", kind="send",
                             src=(0, 0), dst=(1, 1), tag="col", every=5),
                MessageFault(action="delay", kind="any", seconds=0.01),
                SlowNode(place=1, factor=3.0, from_time=0.1),
            ),
            seed=42,
            name="round-trip",
        )
        path = tmp_path / "plan.json"
        plan.to_file(path)
        assert FaultPlan.from_file(path) == plan

    def test_bad_json_is_a_plan_error(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("{not json")
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json('{"no_faults_key": []}')
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json('{"faults": [{"type": "meteor"}]}')
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json(
                '{"faults": [{"type": "crash", "bogus_field": 1}]}')

    def test_random_plans_are_seed_deterministic(self):
        a = FaultPlan.random(11, places=9, crashes=2, drops=3,
                             duplicates=1, slow=1)
        b = FaultPlan.random(11, places=9, crashes=2, drops=3,
                             duplicates=1, slow=1)
        assert a == b
        assert a != FaultPlan.random(12, places=9, crashes=2, drops=3,
                                     duplicates=1, slow=1)


class TestPlanRuntime:
    @staticmethod
    def _runtime(*faults, places=4):
        plan = FaultPlan(faults=tuple(faults))
        return PlanRuntime(plan, Grid1D(places),
                           {(i,): i for i in range(places)})

    def test_nth_fires_exactly_once(self):
        rt = self._runtime(MessageFault(action="drop", kind="hop", nth=3))
        hits = [rt.message_action("hop", 0, 1) for _ in range(6)]
        assert [h is not None for h in hits] == [
            False, False, True, False, False, False]

    def test_every_fires_periodically(self):
        rt = self._runtime(MessageFault(action="drop", kind="send", every=2))
        hits = [rt.message_action("send", 0, 1) for _ in range(6)]
        assert [h is not None for h in hits] == [
            False, True, False, True, False, True]

    def test_kind_and_endpoint_filters(self):
        rt = self._runtime(
            MessageFault(action="drop", kind="send", dst=2, nth=1))
        assert rt.message_action("hop", 0, 2) is None
        assert rt.message_action("send", 0, 1) is None  # wrong dst
        assert rt.message_action("send", 0, 2) is not None

    def test_specs_naming_absent_places_are_inert(self):
        # A plan written for a bigger topology applies safely here.
        rt = self._runtime(
            MessageFault(action="drop", dst=99, nth=1),
            Crash(place=50, at_time=0.0),
            SlowNode(place=77, factor=9.0),
        )
        assert rt.message_action("hop", 0, 1) is None
        assert rt.due_crashes(1e9) == []
        assert rt.slow_factor(0, 1.0) == 1.0

    def test_due_crashes_pop_in_trigger_order(self):
        rt = self._runtime(
            Crash(place=1, at_time=0.5),
            Crash(place=0, at_time=0.2),
            Crash(place=2, at_hop=3),
        )
        assert rt.due_crashes(0.1) == []
        first = rt.due_crashes(0.3)
        assert [(s.place, i) for s, i in first] == [(0, 0)]
        for _ in range(3):
            rt.note_hop()
        due = rt.due_crashes(0.6)
        assert {index for _spec, index in due} == {1, 2}
        assert rt.pending_crashes() == 0

    def test_slow_factor_compounds_from_onset(self):
        rt = self._runtime(
            SlowNode(place=1, factor=2.0, from_time=0.5),
            SlowNode(place=1, factor=3.0, from_time=0.0),
        )
        assert rt.slow_factor(1, 0.1) == 3.0
        assert rt.slow_factor(1, 0.9) == 6.0
        assert rt.slow_factor(0, 0.9) == 1.0


class TestAmbientContext:
    def test_injected_scopes_the_plan(self):
        plan = FaultPlan(faults=(Crash(place=0, at_hop=1),))
        assert ambient() == (None, True)
        with injected(plan, recovery=False):
            assert ambient() == (plan, False)
            with injected(plan):  # nesting restores the outer pair
                assert ambient() == (plan, True)
            assert ambient() == (plan, False)
        assert ambient() == (None, True)
