"""The IR compiled once: each program's closures are built on first
use, kept on the Program, never pickled and never a reason for a
program to outlive its run — and they behave exactly as the tree-walker
they replaced (tracer events byte for byte, error texts, subclass
dispatch, unknown nodes raising only when they execute)."""

import gc
import pickle
import re
import weakref
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError, FabricError
from repro.matmul.ir2d import build_fig13, run_ir2d_suite
from repro.matmul.irgentleman import build_gentleman_ir
from repro.navp import interp as interp_mod
from repro.navp import ir
from repro.navp.interp import Interp, code_table, live_table

from . import record_interp_goldens as rec

V = ir.Var
C = ir.Const


def register(name, body, params=()):
    return ir.register_program(
        ir.Program(name, tuple(body), tuple(params)), replace=True)


def drain(name, env=None, node_vars=None):
    interp = Interp(name, env)
    node_vars = {} if node_vars is None else node_vars
    actions = []
    while (action := interp.next_action(node_vars)) is not None:
        actions.append(action)
    return actions, interp, node_vars


class Mystery(ir.Expr):
    """No interpreter knows this expression."""


class Oddity(ir.Stmt):
    """No interpreter knows this statement."""


@pytest.fixture
def compiles(monkeypatch):
    """Counts ``_compile`` calls by program name."""
    counts: Counter = Counter()
    inner = interp_mod._compile

    def counting(program, body):
        counts[program] += 1
        return inner(program, body)

    monkeypatch.setattr(interp_mod, "_compile", counting)
    return counts


class TestCompileOnce:
    def test_a_suite_run_nine_times_compiles_each_program_once(
            self, compiles):
        suite = build_fig13(2)
        first, _ = run_ir2d_suite(suite)
        for _ in range(8):
            c, _ = run_ir2d_suite(suite)
            assert (c == first).all()
        assert compiles == {p.name: 1 for p in suite.programs}

    def test_replacing_a_program_gets_fresh_code(self, compiles):
        old = register("cc-replace", [ir.NodeSet("out", (), C(1))])
        assert drain("cc-replace")[2] == {"out": 1}
        new = register("cc-replace", [ir.NodeSet("out", (), C(2))])
        assert drain("cc-replace")[2] == {"out": 2}
        assert code_table(old) is not code_table(new)
        assert compiles["cc-replace"] == 2

    def test_every_statement_list_is_compiled_up_front(self):
        prog = register("cc-paths", [
            ir.For("i", C(2), (
                ir.If(V("i"), then=(ir.Assign("t", C(1)),)),
            )),
        ])
        assert set(code_table(prog)) == {
            (), (0,), (0, (0, "then")), (0, (0, "else"))}


class TestTracerParity:
    def test_access_events_match_the_tree_walker_byte_for_byte(self):
        # recorded with the tree-walking interpreter, before the compiler
        assert rec.render(rec.record()) == rec.PATH.read_text()


class TestErrors:
    def test_unbound_agent_variable_text(self):
        register("cc-unbound", [ir.Assign("x", ir.Bin("+", V("a"), V("b")))])
        text = "agent variable 'b' is unbound in cc-unbound"
        with pytest.raises(FabricError, match=re.escape(text)):
            drain("cc-unbound", env={"a": 1})

    @pytest.mark.parametrize("place", [
        (V("nope"),), (V("i"), V("nope")), (ir.Bin("*", V("nope"), C(2)),),
    ], ids=["one-var", "var-tuple", "in-bin"])
    def test_unbound_in_a_hop_place_names_the_variable(self, place):
        register("cc-hop", [ir.HopStmt(place)])
        text = "agent variable 'nope' is unbound in cc-hop"
        with pytest.raises(FabricError, match=re.escape(text)):
            drain("cc-hop", env={"i": 0})

    def test_absent_node_variable_text(self):
        register("cc-absent", [ir.Assign("x", ir.NodeGet("Z", (C(0),)))])
        text = "node variable 'Z' absent at this PE"
        with pytest.raises(FabricError, match=re.escape(text)):
            drain("cc-absent")

    def test_a_missing_subscript_stays_a_key_error(self):
        register("cc-subscript", [
            ir.Assign("x", ir.Index(V("d"), (V("k"),)))])
        with pytest.raises(KeyError):
            drain("cc-subscript", env={"d": {}, "k": 3})

    @pytest.mark.parametrize("stmt, text", [
        (ir.Assign("x", Mystery()), "unknown expression"),
        (Oddity(), "unknown statement"),
    ], ids=["expression", "statement"])
    def test_unknown_nodes_raise_only_when_executed(self, stmt, text):
        register("cc-unknown", [
            ir.If(V("go"), then=(stmt,),
                  orelse=(ir.NodeSet("ok", (), C(1)),)),
        ])
        assert drain("cc-unknown", env={"go": False})[2] == {"ok": 1}
        with pytest.raises(ConfigurationError, match=text):
            drain("cc-unknown", env={"go": True})

    def test_a_bad_path_is_a_configuration_error(self):
        register("cc-path", [ir.Assign("x", C(1))])
        interp = Interp.from_snapshot(("cc-path", {}, [[(5,), 0, None]]))
        with pytest.raises(ConfigurationError, match="out of range"):
            interp.next_action({})


@dataclass(frozen=True)
class Counted(ir.Var):
    """An IR subclass: must evaluate like its base."""


@dataclass(frozen=True)
class Store(ir.NodeSet):
    pass


class TestSubclasses:
    def test_ir_subclasses_dispatch_like_their_base(self):
        register("cc-sub", [
            ir.Assign("y", ir.Bin("+", Counted("x"), C(1))),
            Store("out", (Counted("x"),), Counted("y")),
        ])
        assert drain("cc-sub", env={"x": 4})[2] == {"out": {4: 5}}


class TestPickling:
    def test_a_program_pickles_to_the_same_bytes_after_a_run(self):
        suite = build_gentleman_ir(2)
        before = [pickle.dumps(p) for p in suite.programs]
        run_ir2d_suite(suite)
        for p in suite.programs:
            live_table(p)
            assert "_code" in p.__dict__
        assert [pickle.dumps(p) for p in suite.programs] == before
        clone = pickle.loads(before[0])
        assert clone == suite.programs[0]
        assert "_code" not in clone.__dict__


class TestLifetime:
    def test_a_finished_suites_programs_die_by_refcount(self):
        gc.disable()
        try:
            suite = build_gentleman_ir(2)
            run_ir2d_suite(suite)
            refs = [weakref.ref(p) for p in suite.programs]
            assert all("_code" in r().__dict__ for r in refs)
            for p in suite.programs:
                del ir.REGISTRY[p.name]
            del suite, p
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()
