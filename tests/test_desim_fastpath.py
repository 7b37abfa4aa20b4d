"""Fast-path engine guarantees: dispatch table, immediate deque,
failure propagation, O(1) accounting, and zero-cost tracing.

These tests pin the *semantics* the optimization work must preserve;
``tests/test_table_goldens.py`` pins the resulting numbers.
"""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.fabric import desim
from repro.fabric.desim import (
    PERF_STATS,
    Resource,
    Semaphore,
    SimProcess,
    Simulator,
    Timeout,
    Trigger,
)
from repro.fabric.sim import SimFabric
from repro.fabric.topology import Grid1D
from repro.fabric.trace import TraceLog
from repro.matmul.kinds import MatmulCase
from repro.matmul.runner import run_variant


class TestDispatchTable:
    """Every waitable type must route through the type-keyed table."""

    def test_timeout(self):
        sim = Simulator()
        seen = []

        def proc():
            yield Timeout(1.5)
            seen.append(sim.now)

        sim.spawn(proc())
        assert sim.run() == 1.5
        assert seen == [1.5]

    def test_resource_acquire(self):
        sim = Simulator()
        res = sim.resource(1)
        order = []

        def proc(tag):
            yield res.acquire()
            order.append((tag, sim.now))
            yield Timeout(1.0)
            res.release()

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        assert order == [("a", 0.0), ("b", 1.0)]

    def test_semaphore_acquire(self):
        sim = Simulator()
        sem = sim.semaphore(0)
        seen = []

        def waiter():
            yield sem.acquire()
            seen.append(sim.now)

        def signaler():
            yield Timeout(2.0)
            sem.release()

        sim.spawn(waiter())
        sim.spawn(signaler())
        sim.run()
        assert seen == [2.0]

    def test_trigger_wait(self):
        sim = Simulator()
        trig = sim.trigger()
        got = []

        def waiter():
            value = yield trig
            got.append(value)

        def firer():
            yield Timeout(1.0)
            trig.fire("payload")

        sim.spawn(waiter())
        sim.spawn(firer())
        sim.run()
        assert got == ["payload"]

    def test_process_join(self):
        sim = Simulator()

        def child():
            yield Timeout(3.0)
            return 42

        def parent(target):
            result = yield target
            assert sim.now == 3.0
            return result

        target = sim.spawn(child())
        joined = sim.spawn(parent(target))
        sim.run()
        assert joined.result == 42

    def test_waitable_subclass_dispatches_like_base(self):
        class SlowTimeout(Timeout):
            pass

        sim = Simulator()

        def proc():
            yield SlowTimeout(2.0)

        sim.spawn(proc())
        assert sim.run() == 2.0
        # the subclass is now cached in the dispatch table
        assert SlowTimeout in desim._DISPATCH

    def test_unsupported_yield_fails_with_process_name(self):
        sim = Simulator()

        def proc():
            yield "not a waitable"

        sim.spawn(proc(), name="offender")
        with pytest.raises(SimulationError, match="offender.*unsupported"):
            sim.run()

    def test_acquire_token_is_shared(self):
        # acquire() hands back the resource's interned token: cheap and
        # safe because _Acquire is immutable.
        sim = Simulator()
        res = sim.resource(2)
        assert res.acquire() is res.acquire()
        sem = sim.semaphore(1)
        assert sem.acquire() is sem.acquire()


class TestFailureStopsDraining:
    def test_failure_halts_event_draining(self):
        """A process exception must stop the run loop immediately, not
        after the queue drains — later events must never execute."""
        sim = Simulator()
        executed = []

        def bomb():
            yield Timeout(1.0)
            raise RuntimeError("boom")

        def background(tag, delay):
            yield Timeout(delay)
            executed.append(tag)

        sim.spawn(background("before", 0.5))
        sim.spawn(bomb())
        sim.spawn(background("after", 2.0))
        with pytest.raises(SimulationError, match="boom"):
            sim.run()
        assert executed == ["before"]

    def test_failure_beats_same_time_immediates(self):
        sim = Simulator()
        executed = []

        def bomb():
            yield Timeout(1.0)
            raise RuntimeError("kapow")

        def chain():
            yield Timeout(1.0)
            # schedules a zero-delay wakeup that must never run, because
            # the bomb (spawned first) fails at the same timestamp
            yield Timeout(0.0)
            executed.append("chain")

        sim.spawn(bomb())
        sim.spawn(chain())
        with pytest.raises(SimulationError, match="kapow"):
            sim.run()
        assert executed == []


class TestAccounting:
    def test_alive_count_tracks_spawn_and_finish(self):
        sim = Simulator()

        def proc(delay):
            yield Timeout(delay)

        sim.spawn(proc(1.0))
        sim.spawn(proc(2.0))
        assert sim.alive_count() == 2
        sim.run(until=1.5)
        assert sim.alive_count() == 1
        sim.run()
        assert sim.alive_count() == 0

    def test_events_executed_counts_run_events(self):
        sim = Simulator()

        def proc():
            for _ in range(5):
                yield Timeout(1.0)

        sim.spawn(proc())
        before = PERF_STATS["events"]
        sim.run()
        # 1 initial resume + 5 timeout wakeups
        assert sim.events_executed == 6
        assert PERF_STATS["events"] - before == 6

    def test_deadlock_detail_capped_at_20(self):
        sim = Simulator()
        sem = sim.semaphore(0)

        def stuck(i):
            yield sem.acquire()

        for i in range(25):
            sim.spawn(stuck(i), name=f"stuck{i}")
        with pytest.raises(DeadlockError) as err:
            sim.run()
        message = str(err.value)
        assert "25 process(es) blocked" in message
        assert "(+5 more)" in message
        assert message.count("waiting on") == 20


class TestDeterminism:
    def _run_once(self):
        case = MatmulCase(n=1024, ab=128, shadow=True)
        result = run_variant("navp-2d-phase", case, trace=True)
        return result.time, [repr(e) for e in result.trace.events]

    def test_two_runs_byte_identical(self):
        t1, trace1 = self._run_once()
        t2, trace2 = self._run_once()
        assert t1.hex() == t2.hex()
        assert trace1 == trace2


class TestZeroCostTracing:
    def _fabric(self, trace, monkeypatch=None):
        fabric = SimFabric(Grid1D(2), trace=trace)

        class M:
            name = "m"

            def main(self):
                yield self.hop((1,))
                yield self.compute(fn=lambda: 7, flops=1e6, kind="navp")
                yield self.signal_event("EP", 0)
                yield self.wait_event("EP", 0)

            def hop(self, coord):
                from repro.fabric import effects as fx
                return fx.Hop(coord)

            def compute(self, **kw):
                from repro.fabric import effects as fx
                return fx.Compute(**kw)

            def signal_event(self, name, *args):
                from repro.fabric import effects as fx
                return fx.SignalEvent(name, args)

            def wait_event(self, name, *args):
                from repro.fabric import effects as fx
                return fx.WaitEvent(name, args)

        fabric.inject((0,), M())
        return fabric

    def test_trace_false_records_nothing_and_never_calls_recorder(
            self, monkeypatch):
        def exploding_record(self, **kw):  # pragma: no cover - must not run
            raise AssertionError("record() called on a trace=False run")

        monkeypatch.setattr(TraceLog, "record", exploding_record)
        fabric = self._fabric(trace=False)
        result = fabric.run()
        assert result.time > 0
        assert len(result.trace.events) == 0

    def test_trace_true_still_records(self):
        fabric = self._fabric(trace=True)
        result = fabric.run()
        kinds = {e.kind for e in result.trace.events}
        assert {"hop", "compute"} <= kinds

    def test_disabled_tracelog_record_is_noop(self):
        log = TraceLog(enabled=False)
        log.record(t0=0.0, t1=1.0, place=0, actor="x", kind="compute")
        assert len(log) == 0


class TestShadowComputeIsPerEffect:
    """A shadow ``Compute`` still runs its ``fn`` — every shape check —
    but pays per *effect*, not per algorithmic block it covers."""

    G, A, AB = 2, 8, 4          # 4 ranks, 8x8 blocks a rank, 16 rounds

    def _run(self, variant, monkeypatch, budget):
        from repro.util.shadow import ShadowArray

        calls = []
        real = ShadowArray.__matmul__

        def counted(self, other):
            calls.append(1)
            if len(calls) > budget:
                raise AssertionError(
                    f"more than {budget} ShadowArray.__matmul__ calls: "
                    "shadow compute is O(blocks) per effect again")
            return real(self, other)

        monkeypatch.setattr(ShadowArray, "__matmul__", counted)
        case = MatmulCase(n=self.G * self.A * self.AB, ab=self.AB,
                          shadow=True)
        result = run_variant(variant, case, geometry=self.G, trace=True)
        return len(calls), len(result.trace.of_kind("compute"))

    def test_gentleman_checks_one_triple_per_compute(self, monkeypatch):
        ranks, rounds = self.G ** 2, self.G * self.A
        matmuls, computes = self._run("mpi-gentleman", monkeypatch,
                                      budget=ranks * rounds)
        assert computes == ranks * rounds
        # not zero either: fn ran for every compute effect
        assert matmuls == computes      # the block loop made it x A*A

    def test_tuned_gentleman_too(self, monkeypatch):
        ranks, rounds = self.G ** 2, self.G * self.A
        matmuls, computes = self._run("mpi-gentleman-tuned", monkeypatch,
                                      budget=2 * ranks * rounds)
        assert computes == ranks * (1 + 2 * (rounds - 1))
        assert matmuls == computes
