"""ThreadFabric: real-thread execution of the same messenger programs."""

import numpy as np
import pytest

from repro.errors import DeadlockError, FabricError
from repro.fabric import Grid1D, Grid2D, ThreadFabric
from repro.fabric import effects as fx
from repro.navp import Messenger


class _Collector(Messenger):
    def __init__(self, route):
        self.route = route
        self.visited = []

    def main(self):
        for coord in self.route:
            yield self.hop(coord)
            self.visited.append(self.here)
        self.vars["visited"] = list(self.visited)


class TestMigration:
    def test_route_followed(self):
        fabric = ThreadFabric(Grid1D(3))
        fabric.inject((0,), _Collector([(1,), (2,), (0,), (2,)]))
        result = fabric.run()
        assert result.places[(2,)]["visited"] == [(1,), (2,), (0,), (2,)]

    def test_agent_vars_survive_pickling(self):
        """Cross-host hops round-trip agent variables through pickle."""

        class Carrier(Messenger):
            def __init__(self):
                self.mA = np.arange(12.0).reshape(3, 4)
                self.count = 0

            def main(self):
                for j in range(3):
                    yield self.hop((j,))
                    self.count += 1
                self.vars["mA"] = self.mA
                self.vars["count"] = self.count

        fabric = ThreadFabric(Grid1D(3))
        fabric.inject((0,), Carrier())
        result = fabric.run()
        assert np.array_equal(result.places[(2,)]["mA"],
                              np.arange(12.0).reshape(3, 4))
        assert result.places[(2,)]["count"] == 3
        # the first hop (0 -> 0) stays on its host; two cross hosts
        assert fabric.hop_count == 2
        assert fabric.hop_bytes_total > 0

    def test_unpicklable_agent_var_fails_loudly(self):
        class Bad(Messenger):
            def __init__(self):
                self.mf = lambda: None  # lambdas don't pickle

            def main(self):
                yield self.hop((1,))

        fabric = ThreadFabric(Grid1D(2))
        fabric.inject((0,), Bad())
        with pytest.raises(FabricError):
            fabric.run(timeout=10.0)


class TestEventsAndInjection:
    def test_producer_consumer_across_injection(self):
        class Parent(Messenger):
            def main(self):
                yield self.inject(Child())
                yield self.wait_event("done")
                self.vars["got"] = self.vars["value"]

        class Child(Messenger):
            def main(self):
                yield self.hop((1,))
                self.mv = self.vars["data"]
                yield self.hop((0,))
                self.vars["value"] = self.mv * 2
                yield self.signal_event("done")

        fabric = ThreadFabric(Grid1D(2))
        fabric.load((1,), data=21)
        fabric.inject((0,), Parent())
        result = fabric.run()
        assert result.places[(0,)]["got"] == 42

    def test_signal_initial(self):
        class Waiter(Messenger):
            def main(self):
                yield self.wait_event("EC")
                self.vars["done"] = True

        fabric = ThreadFabric(Grid2D(2))
        fabric.signal_initial((1, 1), "EC")
        fabric.inject((1, 1), Waiter())
        result = fabric.run()
        assert result.places[(1, 1)]["done"]

    def test_signal_count(self):
        done = []

        class Waiter(Messenger):
            def main(self):
                yield self.wait_event("E")
                done.append(1)

        class Signaler(Messenger):
            def main(self):
                yield self.signal_event("E", count=3)

        fabric = ThreadFabric(Grid1D(1))
        for _ in range(3):
            fabric.inject((0,), Waiter())
        fabric.inject((0,), Signaler())
        fabric.run()
        assert len(done) == 3

    def test_deadlock_times_out(self):
        class Stuck(Messenger):
            def main(self):
                yield self.wait_event("never")

        fabric = ThreadFabric(Grid1D(1))
        fabric.inject((0,), Stuck())
        with pytest.raises(DeadlockError):
            fabric.run(timeout=0.5)


class TestMessaging:
    def test_send_recv_cross_thread(self):
        class Sender(Messenger):
            def main(self):
                yield self.compute(lambda: None, flops=0)
                yield fx.Send(dst=(1,), tag="m", payload={"k": 1})

        class Receiver(Messenger):
            def main(self):
                msg = yield fx.Recv(src=(0,), tag="m")
                self.vars["got"] = msg.payload

        fabric = ThreadFabric(Grid1D(2))
        fabric.inject((0,), Sender())
        fabric.inject((1,), Receiver())
        result = fabric.run()
        assert result.places[(1,)]["got"] == {"k": 1}

    def test_irecv_wait(self):
        class Sender(Messenger):
            def main(self):
                yield fx.Send(dst=(1,), tag=3, payload="x")

        class Receiver(Messenger):
            def main(self):
                request = yield fx.IRecv(src=(0,), tag=3)
                msg = yield fx.WaitRequest(request=request)
                self.vars["got"] = msg.payload

        fabric = ThreadFabric(Grid1D(2))
        fabric.inject((0,), Sender())
        fabric.inject((1,), Receiver())
        result = fabric.run()
        assert result.places[(1,)]["got"] == "x"

    def test_send_payload_pickled_across_places(self):
        """Cross-place payloads are copies, not shared references."""
        payload = {"list": [1, 2, 3]}

        class Sender(Messenger):
            def main(self):
                yield fx.Send(dst=(1,), tag="p", payload=payload)

        class Receiver(Messenger):
            def main(self):
                msg = yield fx.Recv(tag="p")
                self.vars["got"] = msg.payload

        fabric = ThreadFabric(Grid1D(2))
        fabric.inject((0,), Sender())
        fabric.inject((1,), Receiver())
        result = fabric.run()
        got = result.places[(1,)]["got"]
        assert got == payload
        assert got is not payload
        assert got["list"] is not payload["list"]


class TestErrors:
    def test_exception_reported(self):
        class Bad(Messenger):
            def main(self):
                yield self.compute(lambda: None, flops=0)
                raise KeyError("whoops")

        fabric = ThreadFabric(Grid1D(1))
        fabric.inject((0,), Bad())
        with pytest.raises(FabricError, match="whoops"):
            fabric.run(timeout=10.0)

    def test_inject_after_run(self):
        class Noop(Messenger):
            def main(self):
                yield self.compute(lambda: None, flops=0)

        fabric = ThreadFabric(Grid1D(1))
        fabric.inject((0,), Noop())
        fabric.run()
        with pytest.raises(FabricError):
            fabric.inject((0,), Noop())
