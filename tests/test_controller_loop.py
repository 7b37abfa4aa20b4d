"""The one controller loop, driven in-process over a scripted link.

:class:`~repro.fabric.controller.Controller` talks to the world
through a four-verb :class:`~repro.fabric.controller.Link`, so a test
can be the transport: :class:`ScriptedLink` keeps the
:class:`~repro.fabric.controller.WorkerCore` hosts in this process,
delivers their reports in one deterministic order, and "loses" host
*h* when the *k*-th event is received. That turns crash testing from
sampling (SIGKILL and see which interleaving the OS picks) into
enumeration: every (*h*, *k*) of the run and collect phases, and a
resume from every cut bundle. Every core — the first and each
replacement — is seeded before its first command, from its job header
with :func:`~repro.serve.worker.seed_job` (the path a pool worker
takes) or from a setup image of ``load`` / ``signal0`` commands (the
path a forked fabric worker takes), and every cut carries only the
written variables, as a served job's and a fabric run's do. A host
seeded from its header holds its blocks' check shares too, so every
recovered served drive is also ``ok`` by the daemon's check.

Also here: the structural tests that keep it *one* loop, with one way
to start a host.
"""

import ast
import hashlib
import pickle
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from repro.errors import FabricError
from repro.fabric.controller import (Controller, Link, Supervisor,
                                     WorkerCore, written_names)
from repro.fabric.hosts import cyclic_hosts, resolve_hosts
from repro.fabric.topology import Grid2D
from repro.navp import ir
from repro.resilience.faults import COUNTERS, FaultPlan, PlanRuntime
from repro.resilience.recovery import RecoveryPolicy
from repro.serve import build_job_suite
from repro.serve.catalog import CHECK_SHARES, shares_ok
from repro.serve.worker import seed_job

AB = 4
#: (program, g, hosts): the shape ISSUE 13 names, then a denser one
SHAPES = [("navp-2d-pipeline", 2, 2), ("navp-2d-dsc", 3, 3)]


def wire(obj):
    """What crossing a process boundary does to a message."""
    return pickle.loads(pickle.dumps(obj))


class ScriptedLink(Link):
    """In-process workers behind the four verbs.

    Every core — the first and each replacement — is handed to
    ``setup`` before it reads a command, as a worker seeds itself
    before its first frame. ``receive`` first runs every live host to
    quiescence (ready tasks, then queued commands, like a real worker's
    main loop), then hands out the oldest report. When the
    ``lose=(h, k)``-th event is due, host ``h`` is destroyed instead —
    core and inbox gone — and ``("lost", h, how)`` is delivered; with
    ``stale="dropped"`` the reports it had already emitted vanish too
    (a fenced-off socket), with ``"kept"`` they still arrive (a shared
    report queue).
    """

    def __init__(self, host_of, setup, lose=None, stale="kept"):
        self.host_of = host_of
        self.setup = setup              # (core) -> None
        self.lose = lose
        self.stale = stale
        self.reports: deque = deque()   # (host, report), emission order
        self.cores: dict = {}
        self.inboxes: dict = {}
        self.received = 0
        self.collect_at = None          # events received before `collect`
        for h in sorted(set(host_of.values())):
            self.replace(h)

    def send(self, host, cmd):
        if cmd[0] == "collect" and self.collect_at is None:
            self.collect_at = self.received
        if host in self.cores:          # silently dropped toward a dead one
            self.inboxes[host].append(wire(cmd))

    def replace(self, host):
        def emit(msg):
            self.reports.append((host, wire(msg)))

        coords = [c for c, h in self.host_of.items() if h == host]
        self.cores[host] = WorkerCore(
            host, coords, self.host_of,
            lambda dst, task: emit(("hop", host, dst, task)), emit,
            dedup=True)
        self.inboxes[host] = deque()
        self.setup(self.cores[host])

    def _work(self):
        for host, core in self.cores.items():
            inbox = self.inboxes[host]
            while core.ready or inbox:
                if core.ready:
                    core.step()
                    continue
                cmd = inbox.popleft()
                if cmd[0] not in ("run", "runs"):
                    core.handle(cmd)
                    continue
                for task in [cmd[1]] if cmd[0] == "run" else cmd[1]:
                    core.emit_report(("credit", host))
                    core.handle(("run", task))

    def receive(self, timeout):
        self._work()
        if not self.reports:
            return None
        self.received += 1
        if self.lose is not None and self.lose[1] == self.received:
            host = self.lose[0]
            del self.cores[host], self.inboxes[host]
            if self.stale == "dropped":
                self.reports = deque(
                    r for r in self.reports if r[0] != host)
            return ("lost", host, "scripted loss")
        return self.reports.popleft()[1]


def assemble(places, g):
    c = np.empty((g * AB, g * AB))
    for (i, j), node_vars in places.items():
        c[i * AB:(i + 1) * AB, j * AB:(j + 1) * AB] = node_vars["C"]
    return c


class Job:
    """One catalog job and the pieces a drive needs."""

    def __init__(self, program, g, hosts):
        self.shape = (program, g, 3, AB)
        self.g, self.hosts = g, hosts
        self.suite, self.a, self.b = build_job_suite(*self.shape)
        topology = Grid2D(g)
        self.host_of = resolve_hosts(topology,
                                     cyclic_hosts(topology, hosts))
        #: what a run collects and cuts
        self.written = written_names(self.suite.programs)
        #: the tail of each host's ("job", ...) header, as JobRun sends it
        self.headers = {
            h: ([s for s in self.suite.initial_signals
                 if self.host_of[s[0]] == h], *self.shape)
            for h in range(hosts)}
        #: each host's setup, as a fabric forks it
        self.image = {h: [("load", c, node_vars)
                          for c, node_vars in self.suite.layout.items()
                          if self.host_of[c] == h]
                      + [("signal0", s) for s in self.suite.initial_signals
                         if self.host_of[s[0]] == h]
                      for h in range(hosts)}

    def seed(self, core):
        """What a pool worker does with its job header."""
        seed_job(core, *wire(self.headers[core.host]))

    def seed_image(self, core):
        """What a forked fabric worker does with its setup image."""
        core.seed(wire(self.image[core.host]))

    def link(self, lose=None, stale="kept", image=False):
        return ScriptedLink(self.host_of,
                            self.seed_image if image else self.seed,
                            lose, stale)

    def controller(self, link, max_restarts=2, every=2, on_cut=None,
                   cut=None, runtime=None):
        return Controller(
            link, "scripted", self.hosts, self.host_of, 5.0,
            sup=Supervisor(RecoveryPolicy(), max_restarts), runtime=runtime,
            window=2, coalesce=2, checkpoint_every=every, on_cut=on_cut,
            collect=self.written + (CHECK_SHARES,), cut=cut or self.written)

    def drive(self, lose=None, stale="kept", resume=None, every=2,
              on_cut=None, cut=None, image=False):
        """Hosts seeded from their headers, or (``image``) from their
        setup images; collect and cuts by written name (or cuts by
        ``cut``). A drive seeded from headers is also ``ok`` by the
        check shares its hosts hold at the end, re-seeded by every
        replacement."""
        link = self.link(lose, stale, image)
        ctl = self.controller(link, every=every, on_cut=on_cut, cut=cut)
        places = ctl.run([("m0", (0, 0), self.suite.entry.name, {})],
                         resume=resume)
        c = assemble(places, self.g)
        if not image:
            assert shares_ok(c, places, self.g, self.shape[2])
        return hashlib.sha256(c.tobytes()).hexdigest(), ctl, link


@pytest.fixture(scope="module", params=SHAPES,
                ids=lambda shape: f"{shape[0]}-g{shape[1]}")
def job(request):
    return Job(*request.param)


@pytest.fixture(scope="module")
def clean(job):
    """The fault-free drive: its digest, event count, and cut bundles."""
    cuts = []
    digest, ctl, link = job.drive(
        on_cut=lambda cid, bundle: cuts.append(wire(bundle)))
    assert ctl.known == ctl.done and len(ctl.known) > 1
    assert sum(ctl.sup.restarts.values()) == 0
    return {"digest": digest, "events": link.received, "cuts": cuts,
            "collect_at": link.collect_at}


def test_clean_drive_matches_the_sim_golden(job, clean):
    from repro.fabric.sim import SimFabric
    from repro.navp.interp import IRMessenger

    suite, a, b = build_job_suite(*job.shape)
    fabric = SimFabric(Grid2D(job.g), trace=False)
    for coord, node_vars in suite.layout.items():
        fabric.load(coord, **node_vars)
    for coord, event, args, count in suite.initial_signals:
        fabric.signal_initial(coord, event, *args, count=count)
    fabric.inject((0, 0), IRMessenger(suite.entry.name))
    c = assemble(fabric.run().places, job.g)
    assert np.allclose(c, a @ b)
    assert hashlib.sha256(c.tobytes()).hexdigest() == clean["digest"]


@pytest.mark.parametrize("every", [2, None], ids=["ckpt2", "nockpt"])
@pytest.mark.parametrize("stale", ["kept", "dropped"])
def test_every_crash_point_recovers_bit_identical(job, clean, stale, every):
    """Lose each host at each event index of the whole drive — run
    phase and collect phase — and recover to the same bits. Each
    replacement seeds from its header again and ``restore`` lays the
    cut, which carries only the written variables, over that setup.
    Without checkpoints the journal reaches back to start-up, so a late
    replay is longer than the credit window (2) and `collect` has to
    wait for it to drain."""
    _digest, ctl, link = job.drive(every=every)
    events, collect_at = link.received, link.collect_at
    # the enumeration is not vacuous, and reaches into the collect phase
    assert 15 < collect_at < events
    if every is not None:
        # cuts were taken, and there were loads for them to leave out
        assert ctl.sup.ckpt_state
        assert {name for node_vars in job.suite.layout.values()
                for name in node_vars} - set(job.written)
        for node_vars, *_rest in ctl.sup.ckpt_state.values():
            for held in node_vars.values():
                assert set(held) <= set(job.written), set(held)
    for k in range(1, events + 1):
        for h in range(job.hosts):
            digest, ctl, link = job.drive(lose=(h, k), stale=stale,
                                          every=every)
            where = f"host {h} lost at event {k} ({stale}, ckpt {every})"
            # bit-identical C blocks: no replayed delivery and no
            # repeated `done` was applied to node variables twice
            assert digest == clean["digest"], where
            assert dict(ctl.sup.restarts) == {h: 1}, where
            assert ctl.known == ctl.done, where
            for core in link.cores.values():    # the replacement too
                for coord, held in core.node_vars.items():
                    assert job.suite.layout[coord].keys() <= held.keys(), \
                        f"{where}: {coord} lost a load"


@pytest.mark.parametrize("stale", ["kept", "dropped"])
def test_every_crash_point_recovers_over_the_image(job, clean, stale):
    """Drive as a fabric does: each host — a replacement too — starts
    from its setup image of ``load`` and ``signal0`` commands, and a cut
    carries only the variables some ``NodeSet`` of the closure writes.
    Losing each host at each event index still reaches the same bits,
    because ``restore`` lays the cut over the image: a replacement
    keeps the loads the cut left out."""
    _digest, ctl, link = job.drive(image=True)
    events, collect_at = link.received, link.collect_at
    assert 15 < collect_at < events
    # cuts were taken, and there were loads for them to leave out
    assert ctl.sup.ckpt_state
    assert {name for node_vars in job.suite.layout.values()
            for name in node_vars} - set(job.written)
    for node_vars, *_rest in ctl.sup.ckpt_state.values():
        for held in node_vars.values():
            assert set(held) <= set(job.written), set(held)
    for k in range(1, events + 1):
        for h in range(job.hosts):
            digest, ctl, link = job.drive(lose=(h, k), stale=stale,
                                          image=True)
            where = f"host {h} lost at event {k} ({stale})"
            assert digest == clean["digest"], where
            assert dict(ctl.sup.restarts) == {h: 1}, where
            assert ctl.known == ctl.done, where
            for core in link.cores.values():    # the replacement too
                for coord, held in core.node_vars.items():
                    assert job.suite.layout[coord].keys() <= held.keys(), \
                        f"{where}: {coord} lost a load"


@pytest.mark.parametrize("stale", ["kept", "dropped"])
def test_a_cut_never_overtakes_hops_held_at_the_gate(stale):
    """g=3 on 2 hosts fills the credit window (2), so cuts open while
    hops sit journaled but unsent at the gate. A marker that covered
    them retired hops the host never saw: losing it after that cut
    deadlocked (from event 41) or returned a wrong product (later)."""
    job = Job("mpi-gentleman", 3, 2)
    digest, _ctl, link = job.drive(every=4)
    events = link.received
    assert events > 100       # long enough to cut many times
    for k in range(1, events + 1):
        for h in range(job.hosts):
            got, ctl, _link = job.drive(lose=(h, k), stale=stale, every=4)
            where = f"host {h} lost at event {k} ({stale})"
            assert got == digest, where
            assert ctl.known == ctl.done, where


def test_resume_from_every_cut(job, clean):
    """A fresh controller over fresh workers, started from any
    committed cut bundle, finishes with the same digest."""
    assert len(clean["cuts"]) >= 2
    for bundle in clean["cuts"]:
        digest, ctl, _link = job.drive(resume=bundle)
        assert digest == clean["digest"], f"resume from cut {bundle['cid']}"
        assert ctl.known == ctl.done


def test_resume_from_a_whole_state_bundle(job, clean):
    """A bundle whose states hold every node variable — the loads too,
    as a daemon that cut whole wrote it — still resumes to the same
    digest: ``restore`` overlays it on the seeded hosts."""
    every_name = tuple(sorted(
        {name for node_vars in job.suite.layout.values()
         for name in node_vars} | set(job.written)))
    cuts = []
    job.drive(on_cut=lambda cid, bundle: cuts.append(wire(bundle)),
              cut=every_name)
    assert len(cuts) >= 2
    for bundle in cuts:
        for node_vars, *_rest in bundle["states"].values():
            for coord, held in node_vars.items():
                assert job.suite.layout[coord].keys() <= held.keys()
        digest, ctl, _link = job.drive(resume=bundle)
        assert digest == clean["digest"], f"resume from cut {bundle['cid']}"
        assert ctl.known == ctl.done


def test_exhausted_budget_fails_the_drive(job):
    from repro.errors import ResilienceError

    ctl = job.controller(job.link(lose=(1, 5)), max_restarts=0)
    with pytest.raises(ResilienceError, match="respawn budget"):
        ctl.run([("m0", (0, 0), job.suite.entry.name, {})])


# -- a missing output ---------------------------------------------------------------

def suite_without_c_at(coord, g=2):
    """A do-nothing tour over a layout that omits ``C`` at ``coord``."""
    from repro.matmul.ir2d import IR2DSuite

    entry = ir.register_program(ir.Program("tour-without-c", (
        ir.For("i", ir.Const(g), (ir.For("j", ir.Const(g), (
            ir.HopStmt((ir.Var("i"), ir.Var("j"))),)),)),)), replace=True)
    layout = {(i, j): {"C": np.zeros((AB, AB)), "A": np.ones((AB, AB))}
              for i in range(g) for j in range(g)}
    del layout[coord]["C"]
    return IR2DSuite("no-c", g, entry, layout, programs=(entry,))


def test_a_missing_output_is_a_typed_error():
    """`collect` by name: a PE that does not hold ``C`` replies without
    it, and the assembly says which PE, which variable, which program
    — not ``KeyError: 'C'``."""
    from repro.matmul.ir2d import assemble_product

    suite = suite_without_c_at((1, 0))
    topology = Grid2D(2)
    host_of = resolve_hosts(topology, cyclic_hosts(topology, 2))

    def setup(core):
        core.seed([("load", c, wire(node_vars))
                   for c, node_vars in suite.layout.items()
                   if c in core.node_vars])

    places = Controller(
        ScriptedLink(host_of, setup), "scripted", 2, host_of, 5.0,
        sup=Supervisor(RecoveryPolicy(), 0), collect=("C",), cut=("C",),
    ).run([("m0", (0, 0), suite.entry.name, {})])
    assert places[(1, 0)] == {}                  # asked for, not held
    assert set(places[(0, 0)]) == {"C"}          # and nothing unasked
    with pytest.raises(FabricError,
                       match=r"PE \(1, 0\) holds no node variable 'C' "
                             r"after tour-without-c"):
        assemble_product(suite, places)


def test_a_respawn_counts_once_its_replacement_is_up(job):
    """A replacement that never comes up (a pool's hello timeout is a
    ``FabricError``) fails the run and masks nothing; the same loss with
    a replacement that does come up counts one masked respawn."""
    def hello_timeout(host):
        raise FabricError(f"worker {host}: no hello within 5 s")

    for fails in (False, True):
        link = job.link(lose=(1, 5))
        if fails:
            link.replace = hello_timeout
        runtime = PlanRuntime(FaultPlan(), Grid2D(job.g), job.host_of)
        ctl = job.controller(link, runtime=runtime)
        entries = [("m0", (0, 0), job.suite.entry.name, {})]
        if fails:
            with pytest.raises(FabricError, match="no hello"):
                ctl.run(entries)
        else:
            ctl.run(entries)
        assert runtime.counts == {"fired": 0, "masked": int(not fails),
                                  "lost": 0}


# -- keep it one loop --------------------------------------------------------------

def _callers(name: str) -> set:
    """Modules under src/repro that *call* ``name`` (any receiver)."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    out = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                called = (fn.attr if isinstance(fn, ast.Attribute)
                          else getattr(fn, "id", None))
                if called == name:
                    out.add(path.relative_to(src).as_posix())
    return out


@pytest.mark.parametrize("name", [
    "authorize_respawn", "recovery_script", "begin_checkpoint",
    "commit_checkpoint"])
def test_the_loop_exists_once(name):
    """A second restatement of the controller loop has to call these;
    only fabric/controller.py may."""
    assert _callers(name) == {"fabric/controller.py"}


def test_a_message_fault_is_decided_once():
    """Matching a transfer against the plan is the verdict's job: a
    fabric that calls ``message_action`` is deciding a fault itself."""
    assert _callers("message_action") == {"resilience/faults.py"}


def test_a_fault_is_counted_in_one_place():
    """Only the outcome table's ``PlanRuntime.count`` adds to a fault
    counter: a fabric that writes ``counts["fired"]`` (or any other
    counter) is keeping its own tally."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    writers = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(
                           node, ast.AugAssign) else [])
            for target in targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and target.slice.value in COUNTERS):
                    writers.add(path.relative_to(src).as_posix())
    assert writers == set(), writers


def test_a_host_starts_one_way():
    """``load`` and ``signal0`` commands are built only in the setup
    lists a worker seeds itself with — a fabric's fork image and a
    pool worker's job header — so none is ever sent over a link."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    built = set()
    for path in src.rglob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Tuple) and node.elts
                        and isinstance(node.elts[0], ast.Constant)
                        and node.elts[0].value in ("load", "signal0")):
                    built.add((path.relative_to(src).as_posix(), fn.name))
    assert built == {("fabric/controller.py", "_setup"),
                     ("serve/worker.py", "seed_job")}


def test_a_finished_controller_is_freed_without_the_cycle_collector(job):
    """The journal and the collected blocks die with the drive: a
    controller <-> gate cycle would park them (megabytes per serve job)
    until a full collection."""
    import gc
    import weakref

    gc.disable()
    try:
        _digest, ctl, _link = job.drive()
        ref = weakref.ref(ctl)
        del ctl
        assert ref() is None
    finally:
        gc.enable()
