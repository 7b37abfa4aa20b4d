"""The may-happen-in-parallel thread-segment graph (analysis.mhp).

A small hand-built closure exercises each primitive the race detector
relies on: thread-class replication, segment construction at wait /
signal / inject cut points, injection-order edges, usable signal→wait
edges, and the two-copy rule for a replicated class queried against
itself.
"""

import pytest

from repro.analysis.mhp import build_mhp
from repro.navp import ir

V = ir.Var
C = ir.Const


def _registry():
    waiter = ir.Program("mhp-waiter", (
        ir.WaitStmt("GO"),
        ir.NodeSet("wout", (C(0),), C(1)),
    ))
    signaler = ir.Program("mhp-signaler", (
        ir.NodeSet("sout", (C(0),), C(1)),
        ir.SignalStmt("GO"),
    ))
    carrier = ir.Program("mhp-carrier", (
        ir.NodeSet("z", (V("mi"),), C(1)),
    ), params=("mi",))
    main = ir.Program("mhp-main", (
        ir.HopStmt((C(0),)),
        ir.NodeSet("x", (C(0),), C(0)),
        ir.InjectStmt(waiter.name),
        ir.InjectStmt(signaler.name),
        ir.For("i", C(3), (
            ir.InjectStmt(carrier.name, bindings=(("mi", V("i")),)),
        )),
    ))
    return {p.name: p for p in (waiter, signaler, carrier, main)}


@pytest.fixture(scope="module")
def analysis():
    registry = _registry()
    return build_mhp(registry["mhp-main"], registry)


def _pos(analysis, thread, var):
    """Pre-order position of the write to ``var`` in ``thread``."""
    for s in analysis.summaries[thread]:
        if any(acc.var == var for acc in s.node_writes):
            return s.pos
    raise AssertionError(f"no write of {var!r} in {thread}")


class TestThreadClasses:
    def test_root_is_singleton(self, analysis):
        root = analysis.threads["mhp-main"]
        assert root.parent is None
        assert not root.replicated
        assert root.depth == 0

    def test_straight_line_children_are_singletons(self, analysis):
        for name in ("mhp-waiter", "mhp-signaler"):
            child = analysis.threads[name]
            assert child.parent == "mhp-main"
            assert not child.replicated

    def test_loop_injection_replicates(self, analysis):
        carrier = analysis.threads["mhp-carrier"]
        assert carrier.replicated
        assert carrier.repl_params == frozenset({"mi"})

    def test_unknown_child_recorded_missing(self):
        main = ir.Program("mhp-lonely", (ir.InjectStmt("mhp-nowhere"),))
        analysis = build_mhp(main, {main.name: main})
        assert analysis.missing == {"mhp-nowhere"}


class TestSegments:
    def test_injects_close_segments(self, analysis):
        closers = [seg.closer for seg in analysis.segments["mhp-main"]]
        assert closers == [
            ("inject", "mhp-waiter"),
            ("inject", "mhp-signaler"),
            ("inject", "mhp-carrier"),
            None,
        ]

    def test_wait_opens_a_segment(self, analysis):
        segments = analysis.segments["mhp-waiter"]
        assert segments[-1].opener == ("wait", "GO")

    def test_signal_closes_a_segment(self, analysis):
        closers = [seg.closer for seg in analysis.segments["mhp-signaler"]]
        assert ("signal", "GO") in closers


class TestOrdered:
    def test_injection_orders_parent_past_before_child(self, analysis):
        a = _pos(analysis, "mhp-main", "x")
        b = _pos(analysis, "mhp-waiter", "wout")
        assert analysis.ordered("mhp-main", a, "mhp-waiter", b)

    def test_child_never_precedes_parent_past(self, analysis):
        a = _pos(analysis, "mhp-main", "x")
        b = _pos(analysis, "mhp-waiter", "wout")
        assert not analysis.ordered("mhp-waiter", b, "mhp-main", a)

    def test_usable_signal_edge_orders_across_siblings(self, analysis):
        a = _pos(analysis, "mhp-signaler", "sout")
        b = _pos(analysis, "mhp-waiter", "wout")
        assert analysis.ordered(
            "mhp-signaler", a, "mhp-waiter", b,
            usable_events=frozenset({"GO"}))

    def test_unusable_event_carries_no_edge(self, analysis):
        a = _pos(analysis, "mhp-signaler", "sout")
        b = _pos(analysis, "mhp-waiter", "wout")
        assert not analysis.ordered("mhp-signaler", a, "mhp-waiter", b)

    def test_replicated_class_not_ordered_with_itself(self, analysis):
        # program order inside one instance must not be mistaken for an
        # ordering between instances: the path must cross an inject or
        # signal edge, and the carrier has neither
        pos = _pos(analysis, "mhp-carrier", "z")
        assert not analysis.ordered("mhp-carrier", pos, "mhp-carrier", pos)


class TestUsableEvents:
    """Which events the race pass lets carry signal→wait edges: a single
    signal site, not primed, and not in a signal cycle that no
    unguarded signal breaks."""

    @staticmethod
    def _cycle(with_source: bool):
        w1 = ir.Program("ue-w1", (ir.WaitStmt("A"), ir.SignalStmt("B")))
        w2 = ir.Program("ue-w2", (ir.WaitStmt("B"), ir.SignalStmt("A")))
        body = [ir.InjectStmt(w1.name), ir.InjectStmt(w2.name)]
        if with_source:
            body.insert(0, ir.SignalStmt("A"))
        root = ir.Program("ue-cycle", tuple(body))
        return root, {p.name: p for p in (root, w1, w2)}

    @pytest.mark.parametrize("name, usable", [
        ("fig11-main-3", ["EP"]),
        ("fig13-main-3", []),
        ("fig15-main-3", ["EP"]),
        ("mm-seq-3-dsc-phase-2d-k", []),
        ("mm-seq-3-dsc-phase-2d-k-phase", []),
        ("wf-pipe-3x4b4", []),
    ], ids=lambda v: v if isinstance(v, str) else ",".join(v) or "none")
    def test_paper_roots(self, name, usable):
        from repro.analysis.lint import seed_paper_programs
        from repro.analysis.races import analyze_races

        seed_paper_programs(3)
        got = analyze_races(ir.get_program(name)).usable_events
        assert sorted(got) == usable

    @pytest.mark.parametrize("with_source, usable", [
        (False, []),     # each signal waits on the other: a closed cycle
        (True, ["B"]),   # the unguarded signal A opens it; A has 2 sites
    ], ids=["closed", "sourced"])
    def test_two_waiter_cycle(self, with_source, usable):
        from repro.analysis.races import analyze_races

        root, registry = self._cycle(with_source)
        got = analyze_races(root, registry=registry).usable_events
        assert sorted(got) == usable
