"""The IR interpreter: evaluation, control flow, actions, continuations."""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, FabricError
from repro.fabric import Grid1D, SimFabric, ThreadFabric
from repro.machine import FAST_TEST_MACHINE
from repro.navp import ir
from repro.navp.interp import Interp, IRMessenger
from repro.navp.kernels import KERNELS, get_kernel, register_kernel

V = ir.Var
C = ir.Const


def register(name, body, params=()):
    return ir.register_program(
        ir.Program(name, tuple(body), tuple(params)), replace=True)


class TestEval:
    def setup_method(self):
        register("eval-dummy", [])
        self.interp = Interp("eval-dummy", env={"x": 5, "d": {2: "two"}})

    def test_const_var_bin(self):
        node_vars = {}
        expr = ir.Bin("+", V("x"), C(3))
        assert self.interp.eval(expr, node_vars) == 8
        assert self.interp.eval(ir.Bin("%", C(7), C(3)), node_vars) == 1
        assert self.interp.eval(ir.Bin("//", C(7), C(2)), node_vars) == 3
        assert self.interp.eval(ir.Bin("==", V("x"), C(5)), node_vars)

    def test_unbound_var(self):
        with pytest.raises(FabricError, match="unbound"):
            self.interp.eval(V("nope"), {})

    def test_nodeget_single_and_tuple_keys(self):
        node_vars = {"A": {1: "one"}, "B": {(0, 1): "pair"}}
        assert self.interp.eval(ir.NodeGet("A", (C(1),)), node_vars) == "one"
        assert self.interp.eval(
            ir.NodeGet("B", (C(0), C(1))), node_vars) == "pair"

    def test_nodeget_whole_var(self):
        node_vars = {"A": "everything"}
        assert self.interp.eval(ir.NodeGet("A"), node_vars) == "everything"

    def test_nodeget_missing_var(self):
        with pytest.raises(FabricError, match="absent"):
            self.interp.eval(ir.NodeGet("Z", (C(0),)), {})

    def test_index(self):
        expr = ir.Index(V("d"), (C(2),))
        assert self.interp.eval(expr, {}) == "two"


class TestControlFlow:
    def _drain(self, program_name, env=None, node_vars=None):
        interp = Interp(program_name, env)
        node_vars = node_vars if node_vars is not None else {}
        actions = []
        while True:
            action = interp.next_action(node_vars)
            if action is None:
                return actions, interp, node_vars
            actions.append(action)
            if action[0] == "compute":
                _, kname, argvals, out, _ = action
                interp.env[out] = get_kernel(kname).fn(*argvals)

    def test_loop_unrolls(self):
        register("cf-loop", [
            ir.For("i", C(3), (ir.HopStmt((V("i"),)),)),
        ])
        actions, _, _ = self._drain("cf-loop")
        assert actions == [("hop", (0,)), ("hop", (1,)), ("hop", (2,))]

    def test_zero_trip_loop(self):
        register("cf-zero", [
            ir.For("i", C(0), (ir.HopStmt((C(9),)),)),
            ir.NodeSet("done", (), C(True)),
        ])
        actions, _, node_vars = self._drain("cf-zero")
        assert actions == []
        assert node_vars["done"] is True

    def test_nested_loops(self):
        register("cf-nest", [
            ir.For("i", C(2), (
                ir.For("j", C(2), (
                    ir.NodeSet("out", (V("i"), V("j")), C(1)),
                )),
            )),
        ])
        _, _, node_vars = self._drain("cf-nest")
        assert set(node_vars["out"]) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_if_branches(self):
        register("cf-if", [
            ir.For("i", C(3), (
                ir.If(ir.Bin("==", V("i"), C(1)),
                      then=(ir.NodeSet("t", (V("i"),), C("then")),),
                      orelse=(ir.NodeSet("t", (V("i"),), C("else")),)),
            )),
        ])
        _, _, node_vars = self._drain("cf-if")
        assert node_vars["t"] == {0: "else", 1: "then", 2: "else"}

    def test_wait_signal_inject_actions(self):
        register("cf-child", [])
        register("cf-fx", [
            ir.WaitStmt("EP", (C(1),)),
            ir.SignalStmt("EC", (C(1),), count=C(2)),
            ir.InjectStmt("cf-child", (("mi", C(7)),)),
        ])
        actions, _, _ = self._drain("cf-fx")
        assert actions == [
            ("wait", "EP", (1,)),
            ("signal", "EC", (1,), 2),
            ("inject", "cf-child", {"mi": 7}),
        ]

    def test_assign_and_compute(self):
        register("cf-compute", [
            ir.Assign("a", C(3)),
            ir.ComputeStmt("copy", (V("a"),), out="b"),
            ir.NodeSet("out", (), V("b")),
        ])
        actions, _, node_vars = self._drain("cf-compute")
        assert actions[0][0] == "compute"
        assert node_vars["out"] == 3


class TestContinuations:
    def test_snapshot_roundtrip_mid_loop(self):
        """Pickling the continuation mid-run must not change behavior."""
        register("cont-prog", [
            ir.For("i", C(4), (
                ir.HopStmt((V("i"),)),
                ir.NodeSet("seen", (V("i"),), V("i")),
            )),
        ])

        def run(migrate_each_step):
            interp = Interp("cont-prog")
            node_vars = {}
            while True:
                action = interp.next_action(node_vars)
                if action is None:
                    return node_vars
                if migrate_each_step:
                    snap = pickle.loads(
                        pickle.dumps(interp.agent_snapshot()))
                    interp = Interp.from_snapshot(snap)

        assert run(False) == run(True)

    def test_snapshot_contains_only_data(self):
        """A snapshot is plain picklable data, and carries what the
        rest of the program reads: ``arr`` is stored later, ``spent``
        is never read again and stays behind."""
        register("cont-data", [ir.Assign("x", C(1)),
                               ir.NodeSet("out", (), V("arr"))])
        interp = Interp("cont-data", env={"arr": np.arange(4.0),
                                          "spent": np.arange(9.0)})
        snap = interp.agent_snapshot()
        blob = pickle.dumps(snap)
        clone = Interp.from_snapshot(pickle.loads(blob))
        assert clone.program == "cont-data"
        assert np.array_equal(clone.env["arr"], np.arange(4.0))
        assert set(clone.env) == {"arr"}
        assert set(interp.env) == {"arr", "spent"}  # the sender keeps its own

    @pytest.mark.parametrize("bad, arrived", [
        ({"program": "cont-data", "env": {}, "stack": []}, "dict"),
        (("cont-data", {}), "a 2-tuple"),
        (None, "NoneType"),
    ], ids=["dict", "2-tuple", "None"])
    def test_malformed_snapshot_is_a_typed_error(self, bad, arrived):
        """Only ``agent_snapshot``'s 3-tuple resumes; a 3-key dict in
        particular must not unpack into its keys."""
        with pytest.raises(ConfigurationError, match=f"got {arrived}"):
            Interp.from_snapshot(bad)

    def test_done_property(self):
        register("cont-empty", [])
        interp = Interp("cont-empty")
        assert not interp.done
        assert interp.next_action({}) is None
        assert interp.done

    def test_unknown_program_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            Interp("never-registered")


class TestKernels:
    def test_gemm_acc(self):
        kernel = get_kernel("gemm_acc")
        t = np.zeros((2, 2))
        a = np.eye(2)
        b = np.full((2, 2), 3.0)
        out = kernel.fn(t, a, b)
        assert np.array_equal(out, b)
        assert kernel.flops(t, a, b) == 2 * 2 * 2 * 2

    def test_zeros_from(self):
        kernel = get_kernel("zeros_from")
        ref = np.ones((3, 4))
        out = kernel.fn(ref)
        assert out.shape == (3, 4) and not out.any()

    def test_zeros_from_shadow(self):
        from repro.util.shadow import ShadowArray
        out = get_kernel("zeros_from").fn(ShadowArray((2, 5)))
        assert out.shape == (2, 5)

    def test_unknown_kernel(self):
        with pytest.raises(ConfigurationError):
            get_kernel("no-kernel")

    def test_duplicate_registration_rejected(self):
        assert "copy" in KERNELS
        with pytest.raises(ConfigurationError):
            register_kernel("copy", lambda x: x)


class TestIRMessengerOnFabrics:
    def _program(self):
        return register("irm-prog", [
            ir.For("i", C(3), (
                ir.HopStmt((V("i"),)),
                ir.ComputeStmt("copy", (ir.NodeGet("val"),), out="m"),
                ir.NodeSet("collected", (V("i"),), V("m")),
            )),
        ])

    @pytest.mark.parametrize("fabric_cls", [SimFabric, ThreadFabric])
    def test_runs_on_both_fabrics(self, fabric_cls):
        self._program()
        fabric = fabric_cls(Grid1D(3), machine=FAST_TEST_MACHINE)
        for j in range(3):
            fabric.load((j,), val=j * 10)
        fabric.inject((0,), IRMessenger("irm-prog"))
        result = fabric.run()
        for j in range(3):
            assert result.places[(j,)]["collected"][j] == j * 10
