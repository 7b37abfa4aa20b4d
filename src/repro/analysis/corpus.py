"""A corpus of known-bad (and deliberately-clean) programs.

These are the analyzer's controls. The *negative* controls are small
navigational programs each seeded with exactly one class of defect,
together with the check that must flag it and the category it must be
flagged under. The *positive* controls (``expect_clean=True``) are
programs a naive syntactic key-equality test would reject but the
affine dependence engine proves safe — they pin down the precision the
engine buys, so a future change that regresses it to syntax matching
fails fast too. ``repro lint --corpus`` (and the tier-1 test) runs
every case and fails if any defect goes undetected, is misclassified,
or any clean case draws a false positive.

Each case carries its *own* registry: corpus programs are never
installed in :data:`repro.navp.ir.REGISTRY`, so they can never leak
into ``repro lint --all`` or a fabric run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from ..navp import ir
from .deps import carried_write_diagnostics, loop_diagnostics
from .diagnostics import DiagnosticReport
from .locality import LayoutSpec, check_locality, key_home
from .races import race_diagnostics

__all__ = ["CorpusCase", "CORPUS", "RACY_CORPUS", "LIVENESS_CORPUS",
           "run_case", "verify_corpus", "installed"]

V = ir.Var
C = ir.Const


@dataclass(frozen=True)
class CorpusCase:
    """One known-bad program plus how to catch it.

    check:
        ``"loop"`` (:func:`~repro.analysis.deps.loop_diagnostics`),
        ``"carries"`` (:func:`carried_write_diagnostics`),
        ``"locality"`` (:func:`check_locality`), ``"races"``
        (:func:`~repro.analysis.races.race_diagnostics`) or
        ``"protocol_mc"``
        (:func:`~repro.analysis.protocol_mc.mc_diagnostics`).
    category:
        The diagnostic category the case must be flagged under.

    The ``"races"`` cases are also *runnable*: the schedule fuzzer
    (:mod:`repro.fabric.fuzz`) executes them with the dynamic
    happens-before checker on and cross-validates its findings against
    the static report. ``places``/``entry``/``initial_signals`` are the
    runtime setup that makes that possible; ``racy_vars`` names the
    node variables whose accesses must be flagged. Events in
    ``initial_signals`` are exactly the statically-``primed`` set.
    """

    name: str
    category: str
    registry: dict
    root: str
    check: str
    expect_clean: bool = False     # positive control: must NOT be flagged
    loop: str | None = None
    carried: tuple = ()
    layout: LayoutSpec | None = None
    places: int = 1                # 1-D topology size for dynamic runs
    entry: tuple = (0,)            # where the root program is injected
    initial_signals: tuple = ()    # (event, args, count) primed per place
    racy_vars: tuple = ()          # node variables expected to race
    window: int | None = None      # credit window for "protocol_mc" cases

    @property
    def primed(self) -> frozenset:
        """Events receiving setup-time signals (see ``analyze_races``)."""
        return frozenset(ev for ev, _args, _count in self.initial_signals)


def _case_write_collision() -> CorpusCase:
    # every iteration writes acc[()] — a classic reduction race once
    # the loop is distributed
    prog = ir.Program("bad-write-collision", (
        ir.For("i", C(4), (
            ir.ComputeStmt("copy", (ir.NodeGet("X", (V("i"),)),),
                           out="t"),
            ir.NodeSet("acc", (), V("t")),
        )),
    ))
    return CorpusCase(
        name=prog.name, category="write-collision",
        registry={prog.name: prog}, root=prog.name,
        check="loop", loop="i")


def _case_stale_carry() -> CorpusCase:
    # the carried row A is overwritten mid-tour: the agent copy mA
    # picked up at the start no longer matches the node data
    prog = ir.Program("bad-stale-carry", (
        ir.Assign("mA", ir.NodeGet("A")),
        ir.For("i", C(4), (
            ir.HopStmt((V("i"),)),
            ir.NodeSet("A", (V("i"),), V("mA")),
            ir.NodeSet("out", (V("i"),), ir.Index(V("mA"), (V("i"),))),
        )),
    ))
    return CorpusCase(
        name=prog.name, category="stale-carry",
        registry={prog.name: prog}, root=prog.name,
        check="carries", loop="i", carried=("A",))


def _case_remote_access() -> CorpusCase:
    # hops to node(i) but reads R's entry homed at node(i+1): the
    # off-by-one tour that works on data that is not there
    prog = ir.Program("bad-remote-access", (
        ir.For("i", C(4), (
            ir.HopStmt((V("i"),)),
            ir.ComputeStmt(
                "copy",
                (ir.NodeGet("R", (ir.Bin("+", V("i"), C(1)),)),),
                out="t"),
            ir.NodeSet("out", (V("i"),), V("t")),
        )),
    ))
    layout = LayoutSpec(
        homes={"R": key_home(0), "out": key_home(0)},
        entry=(C(0),))
    return CorpusCase(
        name=prog.name, category="remote-access",
        registry={prog.name: prog}, root=prog.name,
        check="locality", layout=layout)


def _case_unmatched_wait() -> CorpusCase:
    # main injects a waiter on "go", but nothing in the closure ever
    # signals it: every schedule deadlocks
    waiter = ir.Program("bad-waiter", (
        ir.WaitStmt("go"),
        ir.NodeSet("out", (C(0),), C(1)),
    ))
    main = ir.Program("bad-unmatched-wait", (
        ir.HopStmt((C(0),)),
        ir.InjectStmt(waiter.name),
    ))
    return CorpusCase(
        name=main.name, category="protocol-deadlock",
        registry={waiter.name: waiter, main.name: main},
        root=main.name, check="protocol_mc")


def _case_signal_cycle() -> CorpusCase:
    # worker1 signals B only after waiting A; worker2 signals A only
    # after waiting B; nobody signals unguarded
    w1 = ir.Program("bad-cycle-w1", (
        ir.WaitStmt("A"),
        ir.SignalStmt("B"),
    ))
    w2 = ir.Program("bad-cycle-w2", (
        ir.WaitStmt("B"),
        ir.SignalStmt("A"),
    ))
    main = ir.Program("bad-signal-cycle", (
        ir.HopStmt((C(0),)),
        ir.InjectStmt(w1.name),
        ir.InjectStmt(w2.name),
    ))
    return CorpusCase(
        name=main.name, category="protocol-deadlock",
        registry={w1.name: w1, w2.name: w2, main.name: main},
        root=main.name, check="protocol_mc")


def _case_carried_flow() -> CorpusCase:
    # the wavefront row from the deps docstring: D[r-1, c] read
    # against a D[r, c] write aliases the previous iteration
    prog = ir.Program("bad-carried-flow", (
        ir.For("r", C(4), (
            ir.ComputeStmt(
                "copy",
                (ir.NodeGet("D", (ir.Bin("-", V("r"), C(1)), V("c"))),),
                out="up"),
            ir.NodeSet("D", (V("r"), V("c")), V("up")),
        )),
    ), params=("c",))
    return CorpusCase(
        name=prog.name, category="carried-dependence",
        registry={prog.name: prog}, root=prog.name,
        check="loop", loop="r")


def _case_unsignaled_write() -> CorpusCase:
    # pipelined producer/consumer with the handshake simply left out:
    # the writer fills the slot but never signals, so the reader's copy
    # races the write (the Figure 11 protocol minus its signal/wait)
    writer = ir.Program("bad-race-writer", (
        ir.NodeSet("slot", (), C(7)),
    ))
    reader = ir.Program("bad-race-reader", (
        ir.ComputeStmt("copy", (ir.NodeGet("slot"),), out="t"),
        ir.NodeSet("out", (C(0),), V("t")),
    ))
    main = ir.Program("bad-unsignaled-write", (
        ir.HopStmt((C(0),)),
        ir.NodeSet("slot", (), C(0)),
        ir.InjectStmt(writer.name),
        ir.InjectStmt(reader.name),
    ))
    return CorpusCase(
        name=main.name, category="data-race",
        registry={p.name: p for p in (writer, reader, main)},
        root=main.name, check="races",
        racy_vars=("slot",))


def _case_dropped_wait() -> CorpusCase:
    # the Figure 13 producer/consumer handshake with the consumer's
    # wait(EP) dropped. The producer still waits EC before writing —
    # but EC is primed everywhere at setup, so that wait consumes a
    # token carrying no ordering and the consumer's read is unprotected.
    producer = ir.Program("bad-race-producer", (
        ir.For("i", C(3), (
            ir.HopStmt((V("i"),)),
            ir.WaitStmt("EC"),
            ir.NodeSet("slot", (), V("i")),
            ir.SignalStmt("EP"),
        )),
    ))
    consumer = ir.Program("bad-race-consumer", (
        ir.For("i", C(3), (
            ir.HopStmt((V("i"),)),
            # wait(EP) belongs here; its absence is the seeded defect
            ir.ComputeStmt("copy", (ir.NodeGet("slot"),), out="t"),
            ir.NodeSet("out", (V("i"),), V("t")),
            ir.SignalStmt("EC"),
        )),
    ))
    main = ir.Program("bad-dropped-wait", (
        ir.For("i", C(3), (
            ir.HopStmt((V("i"),)),
            ir.NodeSet("slot", (), C(0)),
        )),
        ir.HopStmt((C(0),)),
        ir.InjectStmt(producer.name),
        ir.InjectStmt(consumer.name),
    ))
    return CorpusCase(
        name=main.name, category="data-race",
        registry={p.name: p for p in (producer, consumer, main)},
        root=main.name, check="races",
        places=3, initial_signals=(("EC", (), 1),),
        racy_vars=("slot",))


def _case_key_alias() -> CorpusCase:
    # two writers address X[k+1] and X[1+k]: syntactically different
    # keys, the same entry once commutative normalization is applied —
    # the alias must not be mistaken for disjointness
    w1 = ir.Program("bad-race-alias-w1", (
        ir.NodeSet("X", (ir.Bin("+", V("k"), C(1)),), C(1)),
    ), params=("k",))
    w2 = ir.Program("bad-race-alias-w2", (
        ir.NodeSet("X", (ir.Bin("+", C(1), V("k")),), C(2)),
    ), params=("k",))
    main = ir.Program("bad-key-alias", (
        ir.HopStmt((C(0),)),
        ir.InjectStmt(w1.name, bindings=(("k", C(2)),)),
        ir.InjectStmt(w2.name, bindings=(("k", C(2)),)),
    ))
    return CorpusCase(
        name=main.name, category="data-race",
        registry={p.name: p for p in (w1, w2, main)},
        root=main.name, check="races",
        racy_vars=("X",))


def _case_reduction_order() -> CorpusCase:
    # one adder per loop iteration, each read-modify-writing acc[()]:
    # the key pins no replication parameter, so instances collide — and
    # the final value depends on injection-arrival interleaving
    adder = ir.Program("bad-race-adder", (
        ir.HopStmt((C(0),)),
        ir.Assign("t", ir.Bin("+", ir.NodeGet("acc"), V("mi"))),
        ir.NodeSet("acc", (), V("t")),
    ), params=("mi",))
    main = ir.Program("bad-reduction-order", (
        ir.HopStmt((C(0),)),
        ir.NodeSet("acc", (), C(0)),
        ir.For("i", C(3), (
            ir.InjectStmt(adder.name, bindings=(("mi", V("i")),)),
        )),
    ))
    return CorpusCase(
        name=main.name, category="data-race",
        registry={adder.name: adder, main.name: main},
        root=main.name, check="races",
        racy_vars=("acc",))


def _case_affine_offset() -> CorpusCase:
    # write X[(1+i)-1], read X[i]: syntactically different keys, the
    # same entry in the same iteration. A key-equality test sees two
    # distinct expressions and reports a (phantom) carried dependence;
    # the affine solver reduces both to coefficient 1, constant 0 and
    # proves distance 0 — iteration-local, legal to distribute
    prog = ir.Program("good-affine-offset", (
        ir.For("i", C(4), (
            ir.ComputeStmt("copy", (ir.NodeGet("X", (V("i"),)),),
                           out="t"),
            ir.NodeSet(
                "X",
                (ir.Bin("-", ir.Bin("+", C(1), V("i")), C(1)),),
                V("t")),
        )),
    ))
    return CorpusCase(
        name=prog.name, category="carried-dependence",
        registry={prog.name: prog}, root=prog.name,
        check="loop", loop="i", expect_clean=True)


def _case_gcd_disjoint() -> CorpusCase:
    # write X[2i], read X[2i+1]: evens vs odds. 2d = 1 has no integer
    # solution, so the GCD test proves the accesses disjoint across
    # *all* iteration pairs — no dependence at all
    prog = ir.Program("good-gcd-disjoint", (
        ir.For("i", C(4), (
            ir.ComputeStmt(
                "copy",
                (ir.NodeGet(
                    "X",
                    (ir.Bin("+", ir.Bin("*", C(2), V("i")), C(1)),)),),
                out="t"),
            ir.NodeSet("X", (ir.Bin("*", C(2), V("i")),), V("t")),
        )),
    ))
    return CorpusCase(
        name=prog.name, category="carried-dependence",
        registry={prog.name: prog}, root=prog.name,
        check="loop", loop="i", expect_clean=True)


def _case_coupled_infeasible() -> CorpusCase:
    # write X[i+1, i], read X[i, i]: the first subscript demands
    # distance +1, the second distance 0 — coupled subscripts whose
    # per-dimension solutions contradict, so no iteration pair can
    # touch one entry. Dimension-by-dimension equality matching cannot
    # see the contradiction; solving each dimension and intersecting
    # the pinned distances can
    prog = ir.Program("good-coupled-infeasible", (
        ir.For("i", C(4), (
            ir.ComputeStmt(
                "copy", (ir.NodeGet("X", (V("i"), V("i"))),), out="t"),
            ir.NodeSet(
                "X", (ir.Bin("+", V("i"), C(1)), V("i")), V("t")),
        )),
    ))
    return CorpusCase(
        name=prog.name, category="carried-dependence",
        registry={prog.name: prog}, root=prog.name,
        check="loop", loop="i", expect_clean=True)


def _case_nonaffine_mod_write() -> CorpusCase:
    # every iteration writes acc[i % m] with m a runtime parameter:
    # the modulus is not a literal, the key is not affine, and the
    # engine must conservatively assume iterations can collide
    prog = ir.Program("bad-nonaffine-mod-write", (
        ir.For("i", C(4), (
            ir.ComputeStmt("copy", (ir.NodeGet("X", (V("i"),)),),
                           out="t"),
            ir.NodeSet("acc", (ir.Bin("%", V("i"), V("m")),), V("t")),
        )),
    ), params=("m",))
    return CorpusCase(
        name=prog.name, category="write-collision",
        registry={prog.name: prog}, root=prog.name,
        check="loop", loop="i")


def _case_scaled_read() -> CorpusCase:
    # write X[2i], read X[i]: iteration 2 writes the entry iteration 4
    # reads — a carried flow dependence whose distance *varies* with i,
    # so no constant-distance handshake can order it
    prog = ir.Program("bad-scaled-read", (
        ir.For("i", C(4), (
            ir.ComputeStmt("copy", (ir.NodeGet("X", (V("i"),)),),
                           out="t"),
            ir.NodeSet("X", (ir.Bin("*", C(2), V("i")),), V("t")),
        )),
    ))
    return CorpusCase(
        name=prog.name, category="carried-dependence",
        registry={prog.name: prog}, root=prog.name,
        check="loop", loop="i")


def _case_nonaffine_alias() -> CorpusCase:
    # two unordered writers address X[(k*k) % 3] and X[0]; with k = 3
    # those are the same entry. The key is not affine, so the static
    # analyzer cannot prove disjointness and must report the race —
    # and the dynamic happens-before checker confirms it actually
    # fires (the schedule fuzzer cross-validates this case)
    w1 = ir.Program("bad-race-nonaffine-w1", (
        ir.NodeSet(
            "X",
            (ir.Bin("%", ir.Bin("*", V("k"), V("k")), C(3)),),
            C(1)),
    ), params=("k",))
    w2 = ir.Program("bad-race-nonaffine-w2", (
        ir.NodeSet("X", (C(0),), C(2)),
    ))
    main = ir.Program("bad-nonaffine-alias", (
        ir.HopStmt((C(0),)),
        ir.InjectStmt(w1.name, bindings=(("k", C(3)),)),
        ir.InjectStmt(w2.name),
    ))
    return CorpusCase(
        name=main.name, category="data-race",
        registry={p.name: p for p in (w1, w2, main)},
        root=main.name, check="races",
        racy_vars=("X",))


# -- liveness cases for the protocol model checker -------------------------

def _case_credit_starvation() -> CorpusCase:
    # Under a credit window of 1 there is a schedule where host 0 and
    # host 1 each block in emit_hop toward the other while both
    # in-flight hops wait for the blocked destination worker to
    # dequeue them: a mutual credit-starvation deadlock. Without the
    # gate (SimFabric) every schedule completes, so only the gated
    # model-checker pass can find it.
    px = ir.Program("bad-credit-px", (ir.HopStmt((C(1),)),))
    qx = ir.Program("bad-credit-qx", (ir.HopStmt((C(0),)),))
    main = ir.Program("bad-credit-window", (
        ir.HopStmt((C(0),)),
        ir.InjectStmt(px.name),
        ir.InjectStmt(px.name),
        ir.HopStmt((C(2),)),
        ir.HopStmt((C(1),)),
        ir.InjectStmt(qx.name),
        ir.InjectStmt(qx.name),
    ))
    return CorpusCase(
        name=main.name, category="credit-deadlock",
        registry={px.name: px, qx.name: qx, main.name: main},
        root=main.name, check="protocol_mc",
        places=3, entry=(2,), window=1)


def _case_token_steal() -> CorpusCase:
    # Two racers compete for one GO token; only the role-0 racer
    # re-signals it (closing the cycle) before signaling DONE. If role
    # 1 reaches its wait first it steals the token: role 0 and main
    # starve. Which racer registers its wait first is a pure
    # same-instant tie — exactly what coalesced batch delivery and the
    # schedule fuzzer reorder — so the deadlock is reachable but not
    # inevitable: only exploring the interleavings decides it.
    racer = ir.Program("bad-steal-racer", (
        ir.WaitStmt("GO"),
        ir.If(ir.Bin("==", V("role"), C(0)), (
            ir.SignalStmt("GO"),
            ir.SignalStmt("DONE"),
        ), ()),
    ), params=("role",))
    main = ir.Program("bad-token-steal", (
        ir.InjectStmt(racer.name, bindings=(("role", C(0)),)),
        ir.InjectStmt(racer.name, bindings=(("role", C(1)),)),
        ir.SignalStmt("GO"),
        ir.WaitStmt("DONE"),
    ))
    return CorpusCase(
        name=main.name, category="protocol-deadlock",
        registry={racer.name: racer, main.name: main},
        root=main.name, check="protocol_mc")


def _case_hidden_cycle() -> CorpusCase:
    # A wait/signal cycle laundered through injection: each waiter
    # would spawn the program that signals the *other* waiter's event,
    # so neither signal is ever performed. Both signal sites look
    # unguarded (each is the first statement of its own program), so
    # no wait-before-signal cycle shows in any one program — but every
    # schedule deadlocks, which the model checker proves.
    sa = ir.Program("bad-hidden-sa", (ir.SignalStmt("A"),))
    sb = ir.Program("bad-hidden-sb", (ir.SignalStmt("B"),))
    w1 = ir.Program("bad-hidden-w1", (
        ir.WaitStmt("B"),
        ir.InjectStmt(sa.name),
    ))
    w2 = ir.Program("bad-hidden-w2", (
        ir.WaitStmt("A"),
        ir.InjectStmt(sb.name),
    ))
    main = ir.Program("bad-hidden-cycle", (
        ir.InjectStmt(w1.name),
        ir.InjectStmt(w2.name),
    ))
    return CorpusCase(
        name=main.name, category="protocol-deadlock",
        registry={p.name: p for p in (sa, sb, w1, w2, main)},
        root=main.name, check="protocol_mc")


def _case_orphan_leak() -> CorpusCase:
    # Producer signals SLOT four times, consumer only ever waits three:
    # one token leaks on a key the consumer demonstrably knows how to
    # consume. Runs to completion everywhere — only the token
    # arithmetic over the verified-deadlock-free space can flag it.
    producer = ir.Program("bad-orphan-producer", (
        ir.For("i", C(4), (ir.SignalStmt("SLOT"),)),
    ))
    consumer = ir.Program("bad-orphan-consumer", (
        ir.For("i", C(3), (ir.WaitStmt("SLOT"),)),
    ))
    main = ir.Program("bad-orphan-signal", (
        ir.InjectStmt(producer.name),
        ir.InjectStmt(consumer.name),
    ))
    return CorpusCase(
        name=main.name, category="orphan-signal",
        registry={p.name: p for p in (producer, consumer, main)},
        root=main.name, check="protocol_mc")


def _case_mc_clean() -> CorpusCase:
    # A fig13-style primed handshake: EP and EC alternate, with EC
    # primed once at setup. Every signal follows a wait, a cycle only
    # the primed token starts; the model checker explores the space
    # under that token and proves every schedule terminates with EC
    # back in its rest state.
    producer = ir.Program("good-hs-producer", (
        ir.For("i", C(3), (
            ir.WaitStmt("EC"),
            ir.SignalStmt("EP"),
        )),
    ))
    consumer = ir.Program("good-hs-consumer", (
        ir.For("i", C(3), (
            ir.WaitStmt("EP"),
            ir.SignalStmt("EC"),
        )),
    ))
    main = ir.Program("good-mc-clean", (
        ir.InjectStmt(producer.name),
        ir.InjectStmt(consumer.name),
    ))
    return CorpusCase(
        name=main.name, category="protocol-deadlock",
        registry={p.name: p for p in (producer, consumer, main)},
        root=main.name, check="protocol_mc",
        expect_clean=True, initial_signals=(("EC", (), 1),))


CORPUS: tuple = (
    _case_write_collision(),
    _case_stale_carry(),
    _case_remote_access(),
    _case_unmatched_wait(),
    _case_signal_cycle(),
    _case_carried_flow(),
    _case_unsignaled_write(),
    _case_dropped_wait(),
    _case_key_alias(),
    _case_reduction_order(),
    _case_affine_offset(),
    _case_gcd_disjoint(),
    _case_coupled_infeasible(),
    _case_nonaffine_mod_write(),
    _case_scaled_read(),
    _case_nonaffine_alias(),
    _case_credit_starvation(),
    _case_token_steal(),
    _case_hidden_cycle(),
    _case_orphan_leak(),
    _case_mc_clean(),
)

RACY_CORPUS: tuple = tuple(c for c in CORPUS if c.check == "races")

LIVENESS_CORPUS: tuple = tuple(c for c in CORPUS
                               if c.check == "protocol_mc")


def run_case(case: CorpusCase) -> DiagnosticReport:
    """Run the case's designated check, returning its diagnostics."""
    root = case.registry[case.root]
    if case.check == "loop":
        return loop_diagnostics(root, case.loop)
    if case.check == "carries":
        return carried_write_diagnostics(root, case.loop, case.carried)
    if case.check == "locality":
        return check_locality(root, case.layout, registry=case.registry)
    if case.check == "races":
        return race_diagnostics(root, registry=case.registry,
                                primed=case.primed)
    if case.check == "protocol_mc":
        from .protocol_mc import DEFAULT_WINDOW, mc_diagnostics
        return mc_diagnostics(
            root, registry=case.registry, entry=case.entry,
            places=case.places, initial_signals=case.initial_signals,
            window=case.window if case.window is not None
            else DEFAULT_WINDOW)
    raise ValueError(f"unknown corpus check {case.check!r}")


@contextmanager
def installed(case: CorpusCase):
    """Temporarily install a case's programs in the global registry.

    The interpreter resolves programs by name from
    :data:`repro.navp.ir.REGISTRY`, so *running* a corpus case (the
    schedule fuzzer does) needs its registry visible for the duration
    of the run. Entries are removed again on exit, preserving the
    corpus's never-leaks-into-lint guarantee.
    """
    added = []
    for name, prog in case.registry.items():
        if name not in ir.REGISTRY:
            ir.REGISTRY[name] = prog
            added.append(name)
    try:
        yield
    finally:
        for name in added:
            ir.REGISTRY.pop(name, None)


def verify_corpus() -> list:
    """``(case, report, hit)`` for every corpus case.

    For a negative control, ``hit`` is True when the case's defect was
    flagged under the expected category at error-or-warning severity.
    For a positive control (``expect_clean``), ``hit`` is True when
    the analysis raised *no* error or warning — a finding there is a
    false positive.
    """
    results = []
    for case in CORPUS:
        report = run_case(case)
        findings = [d for d in report
                    if d.severity in ("error", "warning")]
        if case.expect_clean:
            hit = not findings
        else:
            hit = any(d.category == case.category for d in findings)
        results.append((case, report, hit))
    return results
