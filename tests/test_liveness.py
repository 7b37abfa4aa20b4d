"""Agent-variable liveness: proved on small cases, pinned on the
shipped programs, and checked against the interpreter on generated ones.

``Interp.agent_snapshot`` restricts ``env`` to the live set of
:mod:`repro.analysis.liveness`, with no switch to turn it off — so the
analysis has to be *sound* (a dropped variable that is read later is
``agent variable 'x' is unbound``, loudly) and is worth pinning where
it is *precise* (the bytes a hop no longer carries):

(a) unit cases, one per transfer rule and join;
(b) the live sets of the shipped carriers at their hop points;
(c) a hypothesis property: a ``from_snapshot(agent_snapshot())`` round
    trip after **every** effect of a generated program changes neither
    the effects it goes on to perform nor the node variables it leaves;
(d) the catalog, cut and replayed in process, stays on the sim fabric's
    digest. The same over real processes and sockets is what these
    existing tests hold (listed so nobody trims them; (d) checks they
    still exist): ``test_spmd_cross_fabric.py::
    test_ir_suites_identical_on_all_fabrics``, ``test_matmul_ir2d.py::
    TestProcessFabric::test_correct_on_real_processes``,
    ``test_hosts.py::TestProcessSemantics::test_ir2d_on_fewer_processes``,
    ``test_resilience_process.py::TestCrashRecovery`` (SIGKILL + cuts on
    processes), ``test_socket_fabric.py::TestRecovery::
    test_sigkill_is_detected_and_replayed``, ``test_controller_loop.py::
    test_every_crash_point_recovers_bit_identical`` and
    ``::test_resume_from_every_cut`` (every event index, frozen waiters
    and ready tasks included), and ``test_serve_restart.py`` (the on-disk
    cut across a daemon crash).
"""

from __future__ import annotations

import hashlib
import importlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.liveness import live_in
from repro.analysis.visitor import walk_stmts
from repro.matmul import (build_fig11, build_fig13, build_fig15,
                          build_gentleman_ir, run_ir2d_suite)
from repro.navp import ir
from repro.navp.interp import Interp
from repro.navp.kernels import get_kernel
from repro.serve import program_names
from repro.wavefront.irprog import build_wavefront_ir

V = ir.Var
C = ir.Const


def live(*body, name="t"):
    return live_in(ir.Program(name, tuple(body)))


def out(expr, name="o"):
    return ir.NodeSet(name, (), expr)


# -- (a) unit cases -----------------------------------------------------------

class TestTransferRules:
    def test_straight_line(self):
        table = live(ir.Assign("x", C(1)), out(V("x")), out(V("y")))
        assert table[((), 0)] == {"y"}
        assert table[((), 1)] == {"x", "y"}
        assert table[((), 2)] == {"y"}
        assert table[((), 3)] == set()

    def test_kill_then_use_and_use_then_kill(self):
        assert live(ir.Assign("x", C(1)), out(V("x")))[((), 0)] == set()
        table = live(out(V("x")), ir.Assign("x", C(1)))
        assert table[((), 0)] == {"x"} and table[((), 1)] == set()
        # x = x + 1 reads before it writes
        table = live(ir.Assign("x", ir.Bin("+", V("x"), C(1))), out(V("x")))
        assert table[((), 0)] == {"x"}

    def test_compute_kills_its_out_and_uses_its_args(self):
        table = live(ir.ComputeStmt("copy", (V("a"),), out="r"),
                     out(V("r")))
        assert table[((), 0)] == {"a"}
        assert table[((), 1)] == {"r"}

    def test_use_in_only_one_if_arm(self):
        table = live(ir.If(V("c"), then=(out(V("x")),)))
        assert table[((), 0)] == {"c", "x"}
        assert table[(((0, "then"),), 0)] == {"x"}
        assert table[(((0, "else"),), 0)] == set()

    def test_kill_in_only_one_if_arm_is_not_a_kill(self):
        table = live(ir.If(V("c"), then=(ir.Assign("x", C(1)),)),
                     out(V("x")))
        assert table[((), 0)] == {"c", "x"}
        assert table[(((0, "then"),), 0)] == set()
        assert table[(((0, "then"),), 1)] == {"x"}

    def test_loop_carried_use(self):
        """Written late in the body, read early in the next trip."""
        table = live(ir.For("i", C(3), (out(V("prev")),
                                        ir.Assign("prev", V("i")))))
        assert table[((), 0)] == {"prev"}        # first trip reads it
        assert table[((0,), 0)] == {"i", "prev"}
        assert table[((0,), 1)] == {"i"}
        assert table[((0,), 2)] == {"i", "prev"}  # the back-edge
        assert table[((), 1)] == set()

    def test_an_accumulator_outlives_the_loop(self):
        table = live(ir.Assign("acc", C(0)),
                     ir.For("i", C(3), (
                         ir.Assign("acc", ir.Bin("+", V("acc"), V("i"))),)),
                     out(V("acc")))
        assert table[((), 0)] == set()
        assert table[((), 1)] == {"acc"}
        assert table[((1,), 1)] == {"acc", "i"}

    def test_loop_variable_at_the_back_edge(self):
        """Unread in the body, yet the increment reads it; the count
        was evaluated on entry and is not read again."""
        table = live(ir.For("i", V("n"), (ir.HopStmt((C(0),)),)))
        assert table[((), 0)] == {"n"}
        assert table[((0,), 0)] == {"i"}
        assert table[((0,), 1)] == {"i"}

    def test_a_zero_trip_loop_kills_nothing(self):
        table = live(ir.For("i", V("n"), (ir.Assign("x", C(1)),)),
                     out(V("x")))
        assert table[((), 0)] == {"n", "x"}

    def test_hop_as_last_statement_of_a_loop_body(self):
        """Where the continuation of such a hop is parked:
        ``pc == len(body)``."""
        table = live(ir.For("i", C(3), (out(V("x")),
                                        ir.HopStmt((V("i"),)))),
                     out(V("y"), "p"))
        assert table[((0,), 2)] == {"i", "x", "y"}
        assert table[((), 1)] == {"y"}

    def test_nested_loops_reach_a_fixpoint(self):
        """``b`` feeds ``a`` feeds the store, one trip apart each: the
        inner body has to be solved more than once."""
        table = live(ir.For("i", C(2), (ir.For("j", C(2), (
            out(V("a")), ir.Assign("a", V("b")), ir.Assign("b", V("j")),
        )),)))
        assert table[((0, 0), 3)] == {"a", "b", "i", "j"}
        assert table[((0, 0), 0)] == {"a", "b", "i", "j"}
        assert table[((0,), 1)] == {"a", "b", "i"}
        assert table[((), 0)] == {"a", "b"}

    def test_inject_bindings_wait_and_signal_args_are_uses(self):
        table = live(ir.InjectStmt("child", (("p", V("x")),)),
                     ir.HopStmt((V("h"),)),
                     ir.WaitStmt("E", (V("k"),)),
                     ir.SignalStmt("F", (V("s"),), count=V("n")))
        assert table[((), 0)] == {"x", "h", "k", "s", "n"}
        assert table[((), 1)] == {"h", "k", "s", "n"}
        assert table[((), 2)] == {"k", "s", "n"}   # read only by the Wait
        assert table[((), 3)] == {"s", "n"}
        assert table[((), 4)] == set()

    def test_node_variable_names_are_not_agent_variables(self):
        table = live(ir.NodeSet("x", (V("i"),), ir.NodeGet("y", (V("j"),))))
        assert table[((), 0)] == {"i", "j"}


class TestSnapshots:
    def test_a_hop_ending_a_loop_body_resumes(self):
        prog = ir.register_program(ir.Program("live-tail-hop", (
            ir.Assign("spent", C(7)),
            ir.For("i", C(3), (out(V("x"), "seen"),
                               ir.HopStmt((V("i"),)))),
            out(V("i"), "last"),
        )), replace=True)
        interp = Interp(prog.name, {"x": 5, "unused": 1})
        node_vars: dict = {}
        hops = []
        while (action := interp.next_action(node_vars)) is not None:
            hops.append(action[1])
            snap = pickle.loads(pickle.dumps(interp.agent_snapshot()))
            assert set(snap[1]) == {"i", "x"}
            interp = Interp.from_snapshot(snap)
        assert hops == [(0,), (1,), (2,)]
        assert node_vars == {"seen": 5, "last": 3}

    def test_a_finished_continuation_carries_nothing(self):
        prog = ir.register_program(
            ir.Program("live-done", (ir.Assign("x", C(1)),)), replace=True)
        interp = Interp(prog.name, {"y": 2})
        assert interp.next_action({}) is None
        assert interp.agent_snapshot() == (prog.name, {}, [])

    def test_the_table_is_solved_once_per_program_and_only_on_demand(self):
        prog = ir.register_program(
            ir.Program("live-lazy", (out(V("x")),)), replace=True)
        Interp(prog.name).agent_snapshot()      # an empty env: no table
        assert "_live_cache" not in prog.__dict__
        assert Interp(prog.name, {"x": 1, "y": 2}).agent_snapshot()[1] == {
            "x": 1}
        table = prog.__dict__["_live_cache"]
        Interp(prog.name, {"x": 1}).agent_snapshot()
        assert prog.__dict__["_live_cache"] is table
        assert prog == ir.Program("live-lazy", (out(V("x")),))  # eq unmoved

    def test_the_static_tower_does_not_load_the_pass(self):
        """``import repro`` (lint, plan, model_check and all) leaves
        the liveness module unimported: it is a cost of snapshots."""
        code = ("import sys, repro, repro.analysis.protocol_mc, repro.plan;"
                "sys.exit('repro.analysis.liveness' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# -- (b) the shipped programs -------------------------------------------------

def hop_points(program):
    """Where a continuation of ``program`` is parked after each hop."""
    return [(path[:-1], path[-1] + 1)
            for path, stmt in walk_stmts(program.body)
            if isinstance(stmt, ir.HopStmt)]


def carried(program) -> list:
    table = live_in(program)
    return [set(table[point]) for point in hop_points(program)]


@pytest.mark.parametrize("g", [2, 3])
class TestShippedPrograms:
    def test_fig13_acarrier_carries_its_block_and_indices(self, g):
        carrier = build_fig13(g, ab=2).programs[2]
        assert carrier.name == f"fig13-acarrier-{g}"
        assert carried(carrier) == [{"mi", "mk", "mA", "mj"}]

    def test_no_matmul_hop_carries_the_spent_kernel_result(self, g):
        for build in (build_fig11, build_fig13, build_fig15,
                      build_gentleman_ir):
            for program in build(g, ab=2).programs:
                for names in carried(program):
                    assert "cnew" not in names, program.name

    def test_no_gentleman_snapshot_grows(self, g):
        """Everything its carriers hold is live: exactly the parent's
        hops, nothing added by the restriction."""
        programs = build_gentleman_ir(g, ab=2).programs
        _main, _ranker, a_carrier, b_carrier = programs
        assert carried(a_carrier) == [{"mi", "mk", "mA", "r"}]
        assert carried(b_carrier) == [{"mk", "mj", "mB", "r"}]


def test_wavefront_carrier_carries_its_edge_not_its_block():
    _main, carrier = build_wavefront_ir(4, 8, 64)
    assert carried(carrier) == [{"medge", "r", "c"}]


def test_wavefront_hops_fit_a_small_message():
    """68 482 B a hop before (``res`` and ``top`` rode along), under
    2 KiB now: n=512, b=64, p=4, one host per PE."""
    from repro.fabric.controller import Controller, Supervisor
    from repro.fabric.hosts import resolve_hosts
    from repro.fabric.topology import Grid1D
    from repro.resilience.recovery import RecoveryPolicy
    from repro.wavefront import WavefrontCase
    from repro.wavefront.navp import _layout
    from tests.test_bytes_budget import CountingLink

    class Loads(dict):
        def load(self, coord, **node_vars):
            self[tuple(coord)] = node_vars

    case = WavefrontCase(n=512, b=64)
    main, _carrier = build_wavefront_ir(4, case.nblocks, case.b)
    loads = Loads()
    _layout(loads, case, 4)
    host_of = resolve_hosts(Grid1D(4), None)
    link = CountingLink(host_of)
    for coord, node_vars in loads.items():
        link.cores[host_of[coord]].seed([("load", coord, node_vars)])
    places = Controller(
        link, "wavefront", 4, host_of, 10.0,
        sup=Supervisor(RecoveryPolicy(), 0), collect=("D",), cut=("D",),
    ).run([("m0", (0,), main.name, {})])
    assert all(len(places[(c,)]["D"]) == case.nblocks for c in range(4))
    hops, _nbytes, largest = link.received["hop"]
    assert hops == 3 * case.nblocks
    assert largest < 2048


# -- (c) generated programs ---------------------------------------------------

PLACES = 3
AGENT_VARS = ("a", "b", "c")
_SERIAL = [0]


@st.composite
def exprs(draw, names, depth=0):
    kind = draw(st.sampled_from(
        ["const", "var"] + (["bin"] if depth < 2 else [])))
    if kind == "const":
        return C(draw(st.integers(0, 5)))
    if kind == "var":
        return V(draw(st.sampled_from(names)))
    return ir.Bin(draw(st.sampled_from(["+", "-", "*"])),
                  draw(exprs(names, depth + 1)),
                  draw(exprs(names, depth + 1)))


def bounded(expr, modulus):
    """``expr`` folded into ``[0, modulus)`` whatever its sign."""
    return ir.Bin("%", ir.Bin("*", expr, expr), C(modulus))


@st.composite
def bodies(draw, names, depth):
    stmts = []
    for _ in range(draw(st.integers(1, 4 if depth == 0 else 3))):
        kind = draw(st.sampled_from(
            ["assign", "nodeset", "hop", "compute"]
            + (["for", "if"] if depth < 2 else [])))
        if kind == "assign":
            stmts.append(ir.Assign(draw(st.sampled_from(AGENT_VARS)),
                                   draw(exprs(names))))
        elif kind == "nodeset":
            stmts.append(ir.NodeSet("out", (draw(exprs(names)),),
                                    draw(exprs(names))))
        elif kind == "hop":
            stmts.append(ir.HopStmt((bounded(draw(exprs(names)), PLACES),)))
        elif kind == "compute":
            stmts.append(ir.ComputeStmt(
                "copy", (draw(exprs(names)),),
                out=draw(st.sampled_from(AGENT_VARS))))
        elif kind == "for":
            var = f"v{depth}"
            stmts.append(ir.For(
                var, bounded(draw(exprs(names)), 3),
                tuple(draw(bodies(names + (var,), depth + 1)))))
        else:
            stmts.append(ir.If(
                ir.Bin("<", bounded(draw(exprs(names)), 4), C(2)),
                tuple(draw(bodies(names, depth + 1))),
                tuple(draw(bodies(names, depth + 1)))
                if draw(st.booleans()) else ()))
    return stmts


@st.composite
def programs(draw):
    _SERIAL[0] += 1
    return ir.register_program(ir.Program(
        f"live-random-{_SERIAL[0]}", tuple(draw(bodies(AGENT_VARS, 0)))),
        replace=True)


def run(program, migrate):
    """Drive to completion; ``migrate`` is None, or when the
    continuation takes its round trip: ``"mid-effect"`` (a compute's
    result not yet bound — where a cut freezes it) or ``"after"``.
    Returns every effect performed and the final node variables."""
    places = {(j,): {} for j in range(PLACES)}
    interp = Interp(program.name, {"a": 1, "b": 2, "c": 3})
    at, effects = (0,), []

    def round_trip():
        return Interp.from_snapshot(
            pickle.loads(pickle.dumps(interp.agent_snapshot())))

    while (action := interp.next_action(places[at])) is not None:
        effects.append(action)
        if migrate == "mid-effect":
            interp = round_trip()
        if action[0] == "hop":
            at = action[1]
        else:
            _, kernel, argvals, out_var, _kind = action
            interp.env[out_var] = get_kernel(kernel).fn(*argvals)
        if migrate == "after":
            interp = round_trip()
    return effects, places


@settings(max_examples=200, deadline=None)
@given(programs(), st.sampled_from(["mid-effect", "after"]))
def test_a_round_trip_after_every_effect_changes_nothing(program, migrate):
    assert run(program, migrate) == run(program, None)


# -- (d) the catalog, cut and replayed ----------------------------------------

#: Figure 15 at g=3 is the program admission rejects (its protocol can
#: deadlock, and the order its products accumulate in depends on the
#: schedule): no fabric promises the sim fabric's bits for it
SHAPES = [(program, g) for program in program_names() for g in (2, 3)
          if (program, g) != ("navp-2d-phase", 3)]


@pytest.mark.parametrize("program, g", SHAPES)
def test_catalog_cut_and_replay_stay_on_the_sim_digest(program, g):
    """Cuts every 4 forwards freeze waiters and ready tasks through
    ``agent_snapshot``; a host lost later restores them and replays.
    The credit window is the service's 32, never full here (a marker
    that overtakes hops queued at a *full* gate is ROADMAP 1(f))."""
    from repro.fabric.controller import Controller, Supervisor
    from repro.resilience.recovery import RecoveryPolicy
    from tests.test_controller_loop import Job, assemble

    job = Job(program, g, 2)

    def drive(lose=None):
        link = job.link(lose)
        ctl = Controller(
            link, "liveness", job.hosts, job.host_of, 5.0,
            sup=Supervisor(RecoveryPolicy(), 1), window=32, coalesce=8,
            checkpoint_every=4, collect=job.written, cut=job.written)
        places = ctl.run([("m0", (0, 0), job.suite.entry.name, {})])
        return (hashlib.sha256(assemble(places, g).tobytes()).hexdigest(),
                ctl, link)

    c, _result = run_ir2d_suite(job.suite, "sim")
    want = hashlib.sha256(c.tobytes()).hexdigest()
    digest, _ctl, link = drive()
    assert digest == want
    for k in range(5, link.received, 4):
        digest, ctl, _link = drive(lose=(1, k))
        assert digest == want, f"host 1 lost at event {k}"
        assert dict(ctl.sup.restarts) == {1: 1}


@pytest.mark.parametrize("module, name", [
    ("test_spmd_cross_fabric", "test_ir_suites_identical_on_all_fabrics"),
    ("test_matmul_ir2d", "TestProcessFabric.test_correct_on_real_processes"),
    ("test_hosts", "TestProcessSemantics.test_ir2d_on_fewer_processes"),
    ("test_resilience_process",
     "TestCrashRecovery.test_matmul_survives_sigkill_of_a_worker"),
    ("test_resilience_process",
     "TestCrashRecovery.test_checkpoints_bound_the_replay"),
    ("test_socket_fabric", "TestRecovery.test_sigkill_is_detected_and_replayed"),
    ("test_controller_loop", "test_every_crash_point_recovers_bit_identical"),
    ("test_controller_loop", "test_resume_from_every_cut"),
    ("test_serve_restart", "TestDaemonSigkillRestart"),
])
def test_the_cross_fabric_guards_are_still_there(module, name):
    target = importlib.import_module(f"tests.{module}")
    for part in name.split("."):
        target = getattr(target, part)
