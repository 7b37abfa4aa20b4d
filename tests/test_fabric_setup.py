"""A forked worker starts with its data and redoes nothing the parent did.

``ProcessFabric`` and ``SocketFabric`` hand each worker its host's setup
(programs, loads, initial signals) in the fork image instead of sending
it — liveness tables solved and loads in wire form, once, in the parent
— and collect and checkpoint only the node variables some ``NodeSet``
of the injection closure can write; every other variable of
``FabricResult.places`` is the load. Pinned here:

* the contract that makes the second half sound — no kernel mutates its
  arguments (IR values are immutable);
* no setup command crosses the wire, plain or resilient, and ``collect``
  names exactly the closure's ``NodeSet`` targets;
* ``places`` — every key and every value, not just ``C`` — is
  bit-identical to the sim fabric's for every catalog program;
* a replacement worker, forked from the same image, recovers a crash
  before the first committed cut and after the first and the second;
* a fabric run twice is right twice;
* nothing twice: no worker solves a liveness table, a strided load is
  made contiguous in the parent (a contiguous one is kept as given),
  and a cut carries the written variables alone — a fabric's, and a
  served job's, whose pool worker seeds from the job header.
"""

import os
from functools import lru_cache

import numpy as np
import pytest

from repro.analysis import liveness
from repro.analysis.visitor import walk_stmts
from repro.fabric import Grid2D, make_fabric
from repro.fabric.controller import Supervisor
from repro.fabric.hosts import cyclic_hosts
from repro.navp import ir
from repro.navp.interp import IRMessenger
from repro.navp.kernels import KERNELS
from repro.resilience import Crash, FaultPlan
from repro.serve import build_job_suite
from repro.serve.catalog import program_names
from repro.wavefront.irprog import WF_KERNEL

AB = 4
MODES = {"plain": {}, "resilient": {"checkpoint_every": 4}}


# -- the kernel contract -----------------------------------------------------------

def _kernel_samples() -> dict:
    rng = np.random.default_rng(26)
    block = rng.standard_normal((4, 4))
    strided = rng.standard_normal((4, 8))[:, ::2]    # a column-block view
    w = rng.standard_normal((6, 3))
    return {
        "zeros_from": [(block,), (strided,)],
        "copy": [(block,), (strided,)],
        "gemm_acc": [(block.copy(), strided, block),
                     (strided, block, strided)],
        WF_KERNEL: [(w, rng.standard_normal(3), rng.standard_normal(2), 1, 2),
                    (w, None, None, 0, 3)],
    }


def _snapshot(value):
    if isinstance(value, np.ndarray):
        return ("array", value.dtype, value.shape, value.tobytes())
    return ("value", value)


def test_no_kernel_mutates_its_arguments():
    """Every kernel the package registers (the wavefront kernel
    included), on real operands — contiguous and strided: afterwards
    each argument is bit-identical to what it was. A kernel without a
    sample here fails the test rather than escaping it."""
    shipped = {name for name, kernel in KERNELS.items()
               if kernel.fn.__module__.startswith("repro.")}
    samples = _kernel_samples()
    assert shipped == set(samples)
    for name, calls in samples.items():
        for args in calls:
            before = [_snapshot(arg) for arg in args]
            KERNELS[name].fn(*args)
            assert [_snapshot(arg) for arg in args] == before, name


# -- the wire carries no setup -----------------------------------------------------

def _fabric(kind, program, g, seed=3, **options):
    """One catalog job on ``kind``, folded onto 2 hosts, ready to run."""
    suite, _a, _b = build_job_suite(program, g, seed, AB)
    topology = Grid2D(g)
    extra = ({} if kind == "sim" else
             {"timeout": 60.0, "hosts": cyclic_hosts(topology, 2)})
    fabric = make_fabric(kind, topology, **{"trace": False, **extra,
                                            **options})
    for coord, node_vars in suite.layout.items():
        fabric.load(coord, **node_vars)
    for coord, event, args, count in suite.initial_signals:
        fabric.signal_initial(coord, event, *args, count=count)
    fabric.inject((0, 0), IRMessenger(suite.entry.name))
    return fabric, suite


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ["process", "socket"])
def test_no_setup_command_crosses_the_wire(kind, mode):
    fabric, suite = _fabric(kind, "navp-2d-pipeline", 3, **MODES[mode])
    sent = []
    send = fabric.send

    def recording_send(host, cmd):
        sent.append(cmd)
        send(host, cmd)

    fabric.send = recording_send
    fabric.run()
    ops = {cmd[0] for cmd in sent}
    assert not ops & {"load", "signal0", "register", "sync"}, ops
    assert {"run", "collect", "stop"} <= ops
    written = {stmt.name for program in suite.programs
               for _path, stmt in walk_stmts(program.body)
               if isinstance(stmt, ir.NodeSet)}
    asked = {cmd[1] for cmd in sent if cmd[0] == "collect"}
    assert asked == {tuple(sorted(written))}
    assert written == {"C", "Bslot"}     # Arow, Bcol: loaded, only read


# -- every variable, bit for bit ---------------------------------------------------

def _assert_bit_identical(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_bit_identical(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_bit_identical(g, w, f"{where}[{i}]")
    else:
        assert _snapshot(got) == _snapshot(want), where


@lru_cache(maxsize=None)
def _sim_places(program, g):
    fabric, _suite = _fabric("sim", program, g)
    return fabric.run().places


#: The Figure 15 g=3 handshake lets a wrong-k B-carrier take the one
#: ``EC``/``EP[k]`` slot (ROADMAP item 1, a protocol bug older than this
#: file): on real workers the k order differs from the sim fabric's, so
#: ``Bslot`` ends holding another block and ``C`` is the same product
#: summed in another order. Every other variable still matches bit for
#: bit.
DIVERGENT = {("navp-2d-phase", 3): ("Bslot", "C")}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ["process", "socket"])
@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("program", program_names())
def test_every_variable_matches_the_sim_fabric(program, g, kind, mode):
    """Written variables come back from the workers; the rest are the
    loads. Either way ``places`` is what the sim fabric returns."""
    fabric, _suite = _fabric(kind, program, g, **MODES[mode])
    got, want = fabric.run().places, _sim_places(program, g)
    where = f"{program} g={g} on {kind} ({mode})"
    divergent = DIVERGENT.get((program, g), ())
    if divergent:
        assert got.keys() == want.keys(), where
        for coord in want:
            assert got[coord].keys() == want[coord].keys(), where
            assert np.allclose(got[coord]["C"], want[coord]["C"],
                               rtol=1e-12, atol=1e-12), where
        got, want = ({coord: {k: v for k, v in held.items()
                              if k not in divergent}
                      for coord, held in places.items()}
                     for places in (got, want))
    _assert_bit_identical(got, want, where)


# -- recovery over the image -------------------------------------------------------

@pytest.mark.parametrize("commits", [0, 1, 2], ids=[
    "before-first-commit", "after-first-commit", "after-second-commit"])
@pytest.mark.parametrize("kind", ["process", "socket"])
def test_a_replacement_forks_with_the_image(kind, commits, monkeypatch):
    """Before the first commit a replacement has only its image and the
    journal; after one, ``restore`` lays the cut — the written
    variables alone — over the image's node variables and replaces its
    event counts. Every case finishes with the sim product.

    Host 1 dies at the first forwarded hop (no cut is open yet), or the
    moment its first or its second cut commits."""
    plan = None if commits else FaultPlan(
        faults=(Crash(place=1, at_hop=1),))
    fabric, _suite = _fabric(kind, "navp-2d-pipeline", 3, faults=plan,
                             checkpoint_every=8, trace=True)
    if commits:
        committed, crashed = [], []
        commit = Supervisor.commit_checkpoint

        def commit_then_crash(sup, host, cid, state):
            commit(sup, host, cid, state)
            if host == 1 and not crashed:
                committed.append(cid)
                if len(committed) == commits:
                    crashed.append(fabric.crash(1))

        monkeypatch.setattr(Supervisor, "commit_checkpoint",
                            commit_then_crash)
    result = fabric.run()
    assert fabric.restarts[1] == 1
    # how many cuts had host 1 committed when it was respawned? (a reply
    # it sent before the SIGKILL landed may still commit one more)
    seen = [(event.kind, event.place) for event in result.trace.events]
    restored = seen[:seen.index(("respawn", 1))].count(("checkpoint", 1))
    assert restored >= commits if commits else restored == 0
    _assert_bit_identical(result.places, _sim_places("navp-2d-pipeline", 3),
                          f"{kind}, host 1 lost after {commits} commit(s)")


# -- a fabric run twice ------------------------------------------------------------

@pytest.mark.parametrize("crash", [False, True], ids=["plain", "crashing"])
@pytest.mark.parametrize("kind", ["process", "socket"])
def test_a_fabric_run_twice_is_right_twice(kind, crash):
    """Each run has its own supervisor, reports and failure detectors.
    When they outlived the run, the second run restored the first one's
    cuts (a wrong product on ``process``), counted its restarts against
    the respawn budget, and read its workers' EOFs and silent
    heartbeats as losses (``socket``)."""
    options = ({"checkpoint_every": 4,
                "faults": FaultPlan([Crash(1, at_hop=3)])} if crash else {})
    fabric, _suite = _fabric(kind, "navp-2d-pipeline", 3, **options)
    for run in (1, 2):
        places = fabric.run().places
        _assert_bit_identical(places, _sim_places("navp-2d-pipeline", 3),
                              f"{kind}, run {run}")
        assert dict(fabric.restarts) == ({1: 1} if crash else {}), run


# -- nothing twice -----------------------------------------------------------------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ["process", "socket"])
def test_no_worker_solves_a_liveness_table(kind, mode, monkeypatch):
    """The parent solves every program's table before it forks; a
    worker that solved one would fail its run here."""
    parent, solved = os.getpid(), []
    solve = liveness.live_in

    def parent_only(program):
        if os.getpid() != parent:
            raise AssertionError(f"a worker solved {program.name}'s table")
        solved.append(program.name)
        return solve(program)

    monkeypatch.setattr(liveness, "live_in", parent_only)
    fabric, suite = _fabric(kind, "navp-2d-pipeline", 3, **MODES[mode])
    for program in suite.programs:      # no table left by an earlier test
        ir.get_program(program.name).__dict__.pop("_live_cache", None)
    _assert_bit_identical(fabric.run().places,
                          _sim_places("navp-2d-pipeline", 3), f"{kind}")
    assert sorted(solved) == sorted(p.name for p in suite.programs)


@pytest.mark.parametrize("kind", ["process", "socket"])
def test_loads_are_in_wire_form_after_run(kind):
    """A C-contiguous load stays the object given; any other load is
    copied into its contiguous wire form once, in the parent."""
    fabric, _suite = _fabric(kind, "navp-2d-pipeline", 3)
    base = np.arange(64.0).reshape(8, 8)
    strided, contiguous = base[:, ::2], base[2:4]
    fabric.load((1, 1), S=strided, K=contiguous)
    held = fabric.run().places[(1, 1)]
    assert held["K"] is contiguous
    assert held["S"] is not strided and held["S"].flags.c_contiguous
    assert np.array_equal(held["S"], strided)


@pytest.mark.parametrize("kind", ["process", "socket"])
def test_a_fabric_cut_carries_only_the_written_variables(kind, monkeypatch):
    states = []
    commit = Supervisor.commit_checkpoint

    def recording_commit(sup, host, cid, state):
        states.append(state)
        commit(sup, host, cid, state)

    monkeypatch.setattr(Supervisor, "commit_checkpoint", recording_commit)
    fabric, _suite = _fabric(kind, "navp-2d-pipeline", 3, checkpoint_every=4)
    fabric.run()
    assert states
    for node_vars, *_rest in states:
        for held in node_vars.values():
            assert set(held) <= {"C", "Bslot"}, set(held)


def test_a_serve_cut_carries_only_the_written_variables(tmp_path):
    """A pool worker seeds its whole setup from the job header, so a
    serve cut (and the bundle a restarted daemon resumes from) carries
    what the closure writes and leaves out ``A`` and ``B``, which no
    hop of the job writes."""
    from repro.resilience.checkpoint import DiskStore
    from repro.serve import ServeClient
    from tests.test_serve_service import serving

    with serving(pool_size=2, mc_admission=False,
                 state_dir=str(tmp_path)) as service:
        with ServeClient(service.addr) as client:
            jid = client.submit("mpi-gentleman", g=3, ab=4, workers=2)
            assert client.wait(jid, timeout=60.0)["state"] == "completed"
    bundle = DiskStore(str(tmp_path / "ckpt")).load(f"cut:{jid}")
    for node_vars, *_rest in bundle["states"].values():
        for held in node_vars.values():
            assert "C" in held and set(held) <= {"Aslot", "Bslot", "C"}, \
                set(held)
