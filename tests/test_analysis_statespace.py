"""The explicit-state engine: trace extraction and exploration."""

import ast
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.corpus import CORPUS
from repro.analysis.protocol_mc import model_check
from repro.analysis.statespace import (
    OPAQUE,
    AbstractionError,
    Explorer,
    ThreadTrace,
    TraceSystem,
    extract_system,
    extract_traces,
    signal_totals,
)
from repro.navp import ir

from .test_statespace_oracle import _idle

V = ir.Var
C = ir.Const


def _prog(name, body, params=()):
    return ir.Program(name, tuple(body), tuple(params))


def _reg(*programs):
    return {p.name: p for p in programs}


class TestExtraction:
    def test_hops_waits_signals_become_ops(self):
        reg = _reg(_prog("t", (
            ir.HopStmt((C(1),)),
            ir.WaitStmt("E", (C(2),)),
            ir.SignalStmt("F", (), C(1)),
            ir.HopStmt((C(0),)),
        )))
        (trace,) = extract_traces("t", reg)
        kinds = [op[0] for op in trace.ops]
        assert kinds == ["hop", "wait", "signal", "hop"]
        hop0 = trace.ops[0]
        assert hop0[1] == (0,) and hop0[2] == (1,)
        # the wait key carries the host where the wait happens
        assert trace.ops[1][1] == ((1,), "E", (2,))
        assert trace.ops[3][2] == (0,)

    def test_concrete_for_loop_unrolls(self):
        reg = _reg(_prog("t", (
            ir.For("i", C(3), (
                ir.SignalStmt("E", (V("i"),), C(1)),
            )),
        )))
        (trace,) = extract_traces("t", reg)
        keys = [op[1] for op in trace.ops]
        assert [k[2] for k in keys] == [(0,), (1,), (2,)]

    def test_concrete_if_takes_one_branch(self):
        reg = _reg(_prog("t", (
            ir.If(ir.Bin("==", C(1), C(1)),
                  (ir.SignalStmt("THEN", (), C(1)),),
                  (ir.SignalStmt("ELSE", (), C(1)),)),
        )))
        (trace,) = extract_traces("t", reg)
        assert [op[1][1] for op in trace.ops] == ["THEN"]

    def test_compute_output_is_opaque_and_rejected_in_coords(self):
        # a hop coordinate fed by a compute result escapes the
        # abstraction — the checker must refuse, not guess
        reg = _reg(_prog("t", (
            ir.ComputeStmt("copy", (C(1),), out="x"),
            ir.HopStmt((V("x"),)),
        )))
        with pytest.raises(AbstractionError):
            extract_traces("t", reg)

    def test_opaque_sentinel_is_not_an_int(self):
        assert not isinstance(OPAQUE, int)

    def test_inject_spawns_child_trace(self):
        child = _prog("child", (ir.WaitStmt("GO", ()),), ())
        main = _prog("main", (
            ir.HopStmt((C(1),)),
            ir.InjectStmt("child"),
            ir.SignalStmt("DONE", (), C(1)),
        ))
        traces, roots = extract_system([("main", (0,), {})],
                                       _reg(main, child))
        assert len(traces) == 2
        assert roots == [0]
        spawn = traces[0].ops[1]
        assert spawn[0] == "spawn" and spawn[1] == 1
        assert traces[1].spawner == 0
        # the child starts where its parent stood when it injected
        assert traces[1].ops[0][1] == ((1,), "GO", ())

    def test_unbound_param_is_unsupported(self):
        reg = _reg(_prog("t", (ir.HopStmt((V("p"),)),), params=("p",)))
        with pytest.raises(AbstractionError):
            extract_traces("t", reg)

    def test_env_binds_params(self):
        reg = _reg(_prog("t", (ir.HopStmt((V("p"),)),), params=("p",)))
        (trace,) = extract_traces("t", reg, env={"p": 2})
        assert trace.ops[0][2] == (2,)


class TestOneInterpreter:
    """Extraction is the interpreter over an opaque node store."""

    @pytest.mark.parametrize("op", (
        operator.add, operator.sub, operator.mul, operator.mod,
        operator.floordiv, operator.eq, operator.ne, operator.lt,
        operator.gt))
    def test_opaque_absorbs_arithmetic_and_comparison(self, op):
        assert op(OPAQUE, 3) is OPAQUE
        assert op(3, OPAQUE) is OPAQUE
        assert op(OPAQUE, OPAQUE) is OPAQUE
        assert op(np.arange(3), OPAQUE) is OPAQUE

    def test_opaque_absorbs_subscripts_and_refuses_control(self):
        assert OPAQUE[0] is OPAQUE and OPAQUE[OPAQUE, 1] is OPAQUE
        assert {OPAQUE: 1}[OPAQUE] == 1     # hashable by identity
        with pytest.raises(AbstractionError, match="branch or loop"):
            bool(OPAQUE)
        with pytest.raises(AbstractionError, match="subscript"):
            operator.index(OPAQUE)
        with pytest.raises(AbstractionError, match="subscript"):
            (0, 1)[OPAQUE]

    def test_opaque_branch_is_unsupported_at_its_statement(self):
        reg = _reg(_prog("t", (
            ir.ComputeStmt("copy", (C(1),), out="x"),
            ir.If(ir.Bin("<", V("x"), C(2)),
                  (ir.SignalStmt("E", (), C(1)),)),
        )))
        with pytest.raises(AbstractionError,
                           match=r"t @ \[1\]: a branch or loop bound"):
            extract_traces("t", reg)

    def test_node_index_reading_an_unbound_variable_is_unsupported(self):
        # the old extractor never evaluated node indices, so it called
        # this VERIFIED; the interpreter raises here at run time
        (case,) = (c for c in CORPUS if c.name == "bad-carried-flow")
        res = model_check(case.root, case.registry)
        assert res.status == "UNSUPPORTED"
        assert "agent variable 'c' is unbound" in res.detail
        assert res.detail.startswith("bad-carried-flow @ [0, 0]: ")
        reg = _reg(_prog("w", (ir.NodeSet("D", (V("k"),), C(1)),)))
        res = model_check("w", reg)
        assert res.status == "UNSUPPORTED"
        assert "agent variable 'k' is unbound" in res.detail

    def test_interpreter_error_is_unsupported_not_a_crash(self):
        reg = _reg(_prog("z", (
            ir.ComputeStmt("copy", (ir.Bin("//", C(1), C(0)),), out="y"),
            ir.SignalStmt("E", (), C(1)),
        )))
        res = model_check("z", reg)
        assert res.status == "UNSUPPORTED"
        assert res.detail == "z @ [0]: integer division or modulo by zero"

    def test_node_data_flows_through_and_writes_are_dropped(self):
        reg = _reg(_prog("t", (
            ir.NodeSet("D", (C(0),), ir.NodeGet("D", (C(1),))),
            ir.Assign("x", ir.Index(ir.NodeGet("D"), (C(0),))),
            ir.SignalStmt("E", (), C(1)),
        )))
        (trace,) = extract_traces("t", reg)
        assert trace.ops == (("signal", ((0,), "E", ()), 1, (2,)),)

    def test_only_the_ir_and_its_interpreter_read_the_operator_table(self):
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        readers = set()
        for path in src.rglob("*.py"):
            names = {getattr(node, field, None)
                     for node in ast.walk(ast.parse(path.read_text()))
                     for field in ("attr", "id", "name")}
            if "_BIN_OPS" in names:
                readers.add(path.relative_to(src).as_posix())
        assert readers == {"navp/ir.py", "navp/interp.py"}


def _explore(registry, roots, **kw):
    traces, indices = extract_system(roots, registry)
    pending = kw.pop("initial_pending", None)
    return Explorer(TraceSystem(traces, indices, pending), **kw).explore()


class TestExplorer:
    def test_clean_handshake_completes(self):
        reg = _reg(
            _prog("p", (ir.SignalStmt("E", (), C(1)),)),
            _prog("c", (ir.WaitStmt("E", ()),)),
        )
        res = _explore(reg, [("p", (0,), {}), ("c", (0,), {})])
        assert res.complete
        assert res.deadlock is None
        assert res.terminals >= 1

    def test_never_signaled_wait_deadlocks_with_schedule(self):
        reg = _reg(_prog("w", (ir.WaitStmt("NEVER", ()),)))
        res = _explore(reg, [("w", (0,), {})])
        assert res.deadlock is not None
        assert "NEVER" in res.deadlock.describe()

    def test_exploration_is_deterministic(self):
        reg = _reg(
            _prog("a", (ir.SignalStmt("X", (), C(1)),
                        ir.WaitStmt("Y", ()),)),
            _prog("b", (ir.SignalStmt("Y", (), C(1)),
                        ir.WaitStmt("X", ()),)),
        )
        roots = [("a", (0,), {}), ("b", (0,), {})]
        r1 = _explore(reg, roots)
        r2 = _explore(reg, roots)
        assert (r1.states, r1.transitions) == (r2.states, r2.transitions)
        assert r1.deadlock is None

    def test_por_never_expands_more_than_naive(self):
        reg = _reg(
            _prog("a", (ir.SignalStmt("X", (), C(1)),)),
            _prog("b", (ir.SignalStmt("Y", (), C(1)),)),
            _prog("c", (ir.WaitStmt("X", ()), ir.WaitStmt("Y", ()))),
        )
        res = _explore(reg, [("a", (0,), {}), ("b", (0,), {}),
                             ("c", (0,), {})])
        assert res.complete
        assert res.reduction_factor >= 1.0

    def test_lazy_hosts_find_exact_mailbox_peak(self):
        # three messengers hop into host 1; with retirement lazy there,
        # all three can be in the mailbox at once
        progs = [_prog(f"m{i}", (ir.HopStmt((C(1),)),)) for i in range(3)]
        reg = _reg(*progs)
        roots = [(p.name, (0,), {}) for p in progs]
        eager = _explore(reg, roots)
        lazy = _explore(reg, roots, lazy_host=(1,))
        assert lazy.peaks.get((1,)) == 3
        # the eager pass retires immediately — it underestimates
        assert eager.peaks.get((1,), 0) <= lazy.peaks[(1,)]

    def test_gated_window_deadlock_invisible_ungated(self):
        # two hoppers each way at window=1: one send fills each window,
        # the second sender blocks its whole host worker in emit_hop,
        # and neither in-flight hop can retire into a stuck worker —
        # mutual credit starvation. Without the gate every schedule
        # completes.
        px = _prog("g-px", (ir.HopStmt((C(1),)),))
        qx = _prog("g-qx", (ir.HopStmt((C(0),)),))
        reg = _reg(px, qx)
        roots = [("g-px", (0,), {}), ("g-px", (0,), {}),
                 ("g-qx", (1,), {}), ("g-qx", (1,), {})]
        ungated = _explore(reg, roots)
        assert ungated.deadlock is None and ungated.complete
        gated = _explore(reg, roots, window=1)
        assert gated.deadlock is not None
        assert "credit window exhausted" in gated.deadlock.describe()
        # a window of 2 admits both hops at once: no starvation
        relaxed = _explore(reg, roots, window=2)
        assert relaxed.deadlock is None and relaxed.complete

    @pytest.mark.parametrize("tail", [60, 14_000])
    def test_wide_codes_pack_into_wider_keys(self, tail):
        # past 51 ops a thread's code no longer fits a byte (past 13 106
        # ops, two): the memo keys widen and the search is unchanged
        def system(n):
            key = ((0,), "K", ())
            racers = [ThreadTrace(f"r{i}", f"r{i}", (("wait", key, ()),) + (
                ("signal", ((0,), f"S{i}", ()), 1, ()),) * n)
                for i in range(2)]
            return TraceSystem(racers, [0, 1], {key: 1})

        narrow, wide = system(0), system(tail)
        assert narrow.pack is bytes and wide.pack is not bytes
        a, b = Explorer(narrow).explore(), Explorer(wide).explore()
        assert (a.states, a.terminals, a.deadlock.blocked) == \
            (b.states, b.terminals, b.deadlock.blocked)

    def test_state_cap_reports_incomplete(self):
        # distinct hoppers racing into a lazy host branch on retirement
        # order — enough states to trip a cap of 1 (idle threads keep
        # the mailbox bound from cutting them)
        progs = [_prog(f"cap{i}", (ir.HopStmt((C(0),)),
                                   ir.SignalStmt(f"S{i}", (), C(1))))
                 for i in range(3)]
        reg = _reg(*progs)
        traces, indices = extract_system(
            [(p.name, (1,), {}) for p in progs], reg)
        res = Explorer(TraceSystem(traces + _idle((0,), 4), indices),
                       lazy_host=(0,),
                       max_states=1).explore()
        assert not res.complete
        assert res.reason


class TestMailboxBound:
    """A mailbox pass stops where no descendant can beat the peaks it has
    found. Unbounded, every mailbox pass of ``navp-2d-pipeline`` g=3 ran
    past 500 000 states; hosts (2, 0) and (1, 1), run to the end, took
    1 867 751 and 1 867 782 states and found the peaks pinned here.
    Bounded, the nine take about 2 000 states together."""

    # host -> (mailbox peak, in-flight peak of each in-edge)
    PEAKS = {
        (0, 0): (6, {((2, 0), (0, 0)): 3, ((0, 2), (0, 0)): 3}),
        (0, 1): (6, {((2, 1), (0, 1)): 3, ((0, 0), (0, 1)): 3}),
        (0, 2): (6, {((1, 1), (0, 2)): 1, ((0, 2), (0, 2)): 6}),
        (1, 0): (6, {((0, 0), (1, 0)): 3, ((1, 2), (1, 0)): 3}),
        (1, 1): (6, {((2, 0), (1, 1)): 1, ((1, 1), (1, 1)): 6}),
        (1, 2): (6, {((1, 1), (1, 2)): 3, ((0, 2), (1, 2)): 3}),
        (2, 0): (6, {((0, 0), (2, 0)): 1, ((2, 0), (2, 0)): 6}),
        (2, 1): (6, {((2, 0), (2, 1)): 3, ((1, 1), (2, 1)): 3}),
        (2, 2): (6, {((2, 1), (2, 2)): 3, ((1, 2), (2, 2)): 3}),
    }

    def test_pipeline_g3_mailbox_passes_finish(self):
        from repro.analysis.protocol_mc import initial_pending
        from repro.serve.catalog import job_suite

        suite = job_suite("navp-2d-pipeline", 3)
        traces, roots = extract_system(
            [(suite.entry.name, (0, 0), {})],
            {p.name: p for p in suite.programs})
        system = TraceSystem(traces, roots,
                             initial_pending(suite.initial_signals))
        got = {}
        for host in self.PEAKS:
            res = Explorer(system, lazy_host=host,
                           max_states=20_000).explore()
            assert res.complete, (host, res.reason)
            got[host] = (res.peaks.get(host, 0),
                         {e: v for e, v in res.inflight_peaks.items()
                          if e[1] == host})
        assert got == self.PEAKS
        assert max(peak for peak, _edges in got.values()) == 6


class TestSignalTotals:
    def test_totals_net_out_waits(self):
        reg = _reg(
            _prog("p", (ir.SignalStmt("E", (), C(2)),)),
            _prog("c", (ir.WaitStmt("E", ()),)),
        )
        traces, _ = extract_system([("p", (0,), {}), ("c", (0,), {})],
                                   reg)
        totals = signal_totals(traces)
        assert totals[((0,), "E", ())] == 1


class TestParentGoldens:
    def test_every_pass_reproduces_byte_for_byte(self):
        # states, terminals, peaks and full counterexample schedules
        # per pass as recorded before the worklist closure landed, the
        # transition counters as re-recorded when sleep sets landed, the
        # mailbox passes as re-recorded when their bound landed (host
        # and in-edge peaks unchanged); the traces at the commit before
        # extraction ran the interpreter
        from . import record_mc_goldens as rec

        explored, traces = rec.record()
        assert rec.render(explored) == rec.PATH.read_text()
        assert rec.render(traces) == rec.TRACES_PATH.read_text()


# -- the worklist closure against a rescan-everything oracle -----------------

_HOSTS = ((0,), (1,), (2,))
_KEYS = tuple((host, f"K{k}", ()) for k, host in enumerate(_HOSTS + _HOSTS[:1]))
_STUCK = ThreadTrace("stuck", "stuck", (("wait", ((0,), "NEVER", ()), ()),))

_op = st.one_of(
    st.tuples(st.just("hop"), st.sampled_from(_HOSTS)),
    st.tuples(st.just("wait"), st.sampled_from(_KEYS)),
    st.tuples(st.just("signal"), st.sampled_from(_KEYS),
              st.integers(1, 2)))
# per thread: its ops, and (if it is a spawned child) who injects it where
_thread = st.tuples(st.lists(_op, max_size=5),
                    st.one_of(st.none(), st.integers(0, 4)),
                    st.integers(0, 5))


def _build_system(threads):
    """ThreadTraces from drawn skeletons; a child's parent has a lower
    index, so its start place is known by the time it is built."""
    n = len(threads)
    parent = [p if p is not None and p < j else None
              for j, (_ops, p, _at) in enumerate(threads)]
    start = [(0,)] * n
    traces = []
    for i, (skeleton, _p, _at) in enumerate(threads):
        spawns = {}
        for j in range(i + 1, n):
            if parent[j] == i:
                spawns.setdefault(min(threads[j][2], len(skeleton)),
                                  []).append(j)
        place, ops = start[i], []
        for at, op in enumerate(skeleton + [None]):
            for child in spawns.get(at, ()):
                start[child] = place
                ops.append(("spawn", child, place, ()))
            if op is None:
                break
            if op[0] == "hop":
                ops.append(("hop", place, op[1], ()))
                place = op[1]
            else:
                ops.append(op + ((),))
        traces.append(ThreadTrace(f"t{i}", "p", tuple(ops), parent[i]))
    roots = [i for i in range(n) if parent[i] is None]
    return traces + [_STUCK], roots + [n]


def _first_descent(traces, roots, lazy):
    """The oracle: close eagerly by rescanning every thread until none
    moves, take the lowest enabled branch, repeat until stuck."""
    n = len(traces)
    waiters: dict = {}
    for i, t in enumerate(traces):
        for op in t.ops:
            if op[0] == "wait":
                waiters.setdefault(op[1], set()).add(i)
    pc, transit = [0] * n, [False] * n
    spawned = [i in roots for i in range(n)]
    pending: dict = {}
    steps = []

    def op_of(i):
        return traces[i].ops[pc[i]] \
            if spawned[i] and pc[i] < len(traces[i].ops) else None

    def eager(i):
        op = op_of(i)
        if op is None:
            return False
        if op[0] == "hop":
            return not transit[i] or op[2] != lazy
        if op[0] == "wait":
            return pending.get(op[1], 0) > 0 and len(waiters[op[1]]) == 1
        return True

    def enabled(i):     # at a closed state
        op = op_of(i)
        return op is not None and (
            transit[i] or (op[0] == "wait" and pending.get(op[1], 0) > 0))

    def step(i):
        op = op_of(i)
        action = {"spawn": "inject"}.get(op[0], op[0])
        if op[0] == "hop":
            action = "retire" if transit[i] else "send"
            transit[i] = not transit[i]
        elif op[0] == "wait":
            pending[op[1]] -= 1
        elif op[0] == "signal":
            pending[op[1]] = pending.get(op[1], 0) + op[2]
        else:
            spawned[op[1]] = True
        if not transit[i]:
            pc[i] += 1
        steps.append((traces[i].label, action))

    while True:
        progress = True
        while progress:
            progress = False
            for i in range(n):
                if eager(i):
                    step(i)
                    progress = True
        branch = next((i for i in range(n) if enabled(i)), None)
        if branch is None:
            return steps
        step(branch)


class TestWorklistClosure:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_thread, min_size=1, max_size=5),
           st.sampled_from((None,) + _HOSTS))
    def test_takes_the_rescan_oracles_steps_in_order(self, threads, lazy):
        # the sentinel thread never finishes, so the first DFS descent
        # ends in a recorded deadlock whose schedule is every step taken;
        # idle threads keep a lazy pass's bound from cutting the descent
        traces, roots = _build_system(threads)
        if lazy is not None:
            traces += _idle(lazy, len(threads) + 1)
        res = Explorer(TraceSystem(traces, roots),
                       lazy_host=lazy).explore()
        assert [(label, action) for label, action, _detail
                in res.deadlock.steps] == _first_descent(traces, roots, lazy)
        assert res.closure_visits <= len(traces) + 2 * res.transitions

    @pytest.mark.parametrize("program, g", [("mpi-gentleman", 3),
                                            ("navp-2d-pipeline", 2)])
    def test_closure_work_is_linear_in_steps(self, program, g):
        # rescanning every thread cost ~13 probes per step on these
        from repro.analysis.protocol_mc import initial_pending
        from repro.serve.catalog import build_job_suite

        suite, _a, _b = build_job_suite(program, g, seed=0, ab=1)
        traces, roots = extract_system(
            [(suite.entry.name, (0, 0), {})],
            {p.name: p for p in suite.programs})
        system = TraceSystem(traces, roots,
                             initial_pending(suite.initial_signals))
        for lazy in (None, (0, 0)):
            res = Explorer(system, lazy_host=lazy).explore()
            assert res.complete
            assert 0 < res.closure_visits <= 3 * res.transitions
