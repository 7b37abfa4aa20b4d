"""End-to-end coverage of the serve daemon over real TCP + processes.

The acceptance bar for the subsystem: a daemon completes 100
concurrent submissions across two tenants with bit-exact golden
outputs (sim-fabric digests — cross-fabric parity is established),
survives a worker SIGKILL mid-stream via checkpoint/restart, enforces
admission control, resizes its pool mid-stream, and shuts down
without orphaning a single process.

Scale stays modest per job (g=2..3, tiny blocks): the point is the
*service* machinery, not the numerics.
"""

import hashlib
import json
import multiprocessing as mp
import threading
import time
from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.errors import AdmissionError, ServeError
from repro.matmul import run_ir2d_suite
from repro.serve import ServeClient, ServeService, build_job_suite


def _sim_digest(program, g, seed, ab) -> str:
    """The golden: the same (program, shape, seed) run on virtual
    time. Every fabric reproduces it bit-exactly."""
    suite, _a, _b = build_job_suite(program, g, seed, ab)
    c, _res = run_ir2d_suite(suite, "sim")
    return hashlib.sha256(c.tobytes()).hexdigest()


def _assert_no_children(deadline_s: float = 15.0) -> None:
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        if not mp.active_children():
            return
        time.sleep(0.05)
    raise AssertionError(
        f"orphaned process(es) after daemon shutdown: "
        f"{[k.name for k in mp.active_children()]}")


@contextmanager
def serving(**kw):
    kw.setdefault("heartbeat_s", 0.02)
    kw.setdefault("job_timeout_s", 60.0)
    service = ServeService(**kw)
    service.start()
    try:
        yield service
    finally:
        service.shutdown(drain=False)
        _assert_no_children()


@pytest.fixture(scope="module")
def goldens():
    shapes = ([("navp-2d-dsc", 2, s, 4) for s in (0, 1, 2)]
              + [("navp-2d-pipeline", 2, s, 4) for s in (3, 4, 5)])
    return {shape: _sim_digest(*shape) for shape in shapes}


class TestHundredJobsTwoTenants:
    def test_converges_bit_exact_through_chaos(self, goldens):
        """100 submissions, 2 tenants, one SIGKILL mid-stream: every
        job converges to its sim-fabric golden digest."""
        shapes = list(goldens)
        with serving(pool_size=6, chaos=True, max_depth=128,
                     tenant_cap=64) as service:
            with ServeClient(service.addr) as client:
                submitted = []   # (jid, shape)
                for i in range(100):
                    program, g, seed, ab = shapes[i % len(shapes)]
                    jid = client.submit(
                        program, g=g, seed=seed, ab=ab, workers=2,
                        tenant=("alice" if i % 2 else "bob"),
                        priority=i % 3)
                    submitted.append((jid, (program, g, seed, ab)))
                # chaos mid-stream: SIGKILL a (preferably leased)
                # worker while the queue is still deep
                assert client.status()["queue"]["depth"] > 0
                client.kill_worker()
                records = {jid: client.wait(jid, timeout=90.0)
                           for jid, _shape in submitted}
                status = client.status()
            for jid, shape in submitted:
                record = records[jid]
                assert record["state"] == "completed", record
                assert record["ok"] is True
                assert record["digest"] == goldens[shape], (
                    f"{jid} {shape}: digest drifted")
            assert status["completed"] == 100
            assert status["failed"] == 0
            assert status["pool"]["respawns"] >= 1   # the kill was real
            assert set(status["tenants_running"]) <= {"alice", "bob"}


class TestMissingOutput:
    def test_a_pe_without_c_fails_the_job_with_a_typed_reason(
            self, monkeypatch):
        """The job's failure reason names the PE, the variable and the
        program; it used to be ``KeyError: 'C'``. The workers generate
        their own data, so it is their ``job_loads`` that leaves ``C``
        out at (1, 1) — patched before the pool forks — while the
        daemon's per-job builder gives the do-nothing tour over it."""
        from tests.test_controller_loop import suite_without_c_at

        suite = suite_without_c_at((1, 1))
        monkeypatch.setattr("repro.serve.scheduler.job_suite",
                            lambda program, g: suite)
        monkeypatch.setattr(
            "repro.serve.worker.job_loads",
            lambda program, g, seed, ab, coords: {
                c: suite.layout[c] for c in coords})
        with serving(pool_size=2, mc_admission=False) as service:
            with ServeClient(service.addr) as client:
                jid = client.submit("navp-2d-dsc", g=2, workers=2)
                record = client.wait(jid, timeout=30.0)
        assert record["state"] == "failed"
        assert record["reason"].startswith(
            "FabricError: PE (1, 1) holds no node variable 'C' after "
            "tour-without-c"), record["reason"]


class TestTimeout:
    def test_a_timed_out_job_says_why(self):
        """A served job's timeout carries the model checker's verdict on
        the closure it ran, as every fabric's ``DeadlockError`` does —
        not only "job jN timed out"."""
        with serving(pool_size=1, mc_admission=False,
                     job_timeout_s=0) as service:
            with ServeClient(service.addr) as client:
                jid = client.submit("navp-2d-dsc", g=2, workers=1)
                record = client.wait(jid, timeout=30.0)
        assert record["state"] == "failed"
        reason = record["reason"]
        assert reason.startswith(f"DeadlockError: job {jid} timed out"), \
            reason
        assert "protocol model checker" in reason, reason


class TestSigkillRecovery:
    def test_checkpoint_restart_completes_the_job(self):
        """Kill the worker leased to a running job; the job must
        complete *recovered* — restored from its checkpoint and
        replayed, not restarted from scratch silently. Retries the
        race where the job finishes before the kill lands."""
        golden = _sim_digest("navp-2d-dsc", 3, 42, 6)
        with serving(pool_size=3, chaos=True) as service:
            with ServeClient(service.addr) as client:
                for _attempt in range(8):
                    jid = client.submit("navp-2d-dsc", g=3, seed=42,
                                        ab=6, workers=3)
                    # find a worker actually leased to this job
                    wid = None
                    for _spin in range(200):
                        leases = client.status()["pool"]["leases"]
                        wids = [w for w, j in leases.items() if j == jid]
                        if wids:
                            wid = wids[0]
                            break
                    if wid is not None:
                        try:
                            client.kill_worker(wid)
                        except ServeError:
                            pass   # finished + respawned under us
                    record = client.wait(jid, timeout=60.0)
                    assert record["state"] == "completed", record
                    assert record["ok"] is True, record
                    assert record["digest"] == golden
                    if record["restarts"] > 0:
                        assert record["recovered"] is True
                        return   # recovery demonstrated
        raise AssertionError(
            "no attempt recovered: every kill raced job completion")

    def test_a_lost_worker_says_how_it_died(self):
        """With no respawn budget the kill fails the job — and the
        reason names the signal, not just "lost"."""
        with serving(pool_size=2, chaos=True, max_restarts=0,
                     mc_admission=False) as service:
            with ServeClient(service.addr) as client:
                for _attempt in range(8):
                    jid = client.submit("navp-2d-dsc", g=3, seed=7,
                                        ab=6, workers=2)
                    try:
                        client.kill_worker()   # prefers a leased one
                    except ServeError:
                        pass
                    record = client.wait(jid, timeout=60.0)
                    if record["state"] == "failed":
                        assert "lost (killed by SIGKILL)" in \
                            record["reason"], record
                        # let the failed job's workers be recycled
                        # before the daemon goes down under them
                        deadline = time.monotonic() + 20.0
                        while client.status()["pool"]["free"] < 2:
                            assert time.monotonic() < deadline
                            time.sleep(0.02)
                        return
        raise AssertionError(
            "no attempt failed: every kill raced job completion")


class TestAdmissionControl:
    def test_queue_depth_bound(self):
        with serving(pool_size=1, max_depth=1, tenant_cap=50,
                     mc_admission=False) as service:
            with ServeClient(service.addr) as client:
                # big enough to still hold the one worker when the
                # third submit arrives
                first = client.submit("navp-2d-dsc", g=3, ab=128,
                                      workers=1)
                # the queue holds one job: until the dispatcher has
                # taken the first, the second would itself be refused
                deadline = time.monotonic() + 30.0
                while client.status(first)["state"] == "pending":
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                client.submit("navp-2d-dsc", workers=1)   # pending
                with pytest.raises(AdmissionError, match="queue full"):
                    client.submit("navp-2d-dsc", workers=1)
                client.wait(first, timeout=30.0)

    def test_tenant_cap(self):
        with serving(pool_size=1, max_depth=50, tenant_cap=2,
                     mc_admission=False) as service:
            with ServeClient(service.addr) as client:
                client.submit("navp-2d-dsc", workers=1, tenant="a")
                client.submit("navp-2d-dsc", workers=1, tenant="a")
                with pytest.raises(AdmissionError,
                                   match="in-flight cap"):
                    client.submit("navp-2d-dsc", workers=1, tenant="a")
                # another tenant is unaffected
                client.submit("navp-2d-dsc", workers=1, tenant="b")

    def test_unknown_program_and_oversized_lease(self):
        with serving(pool_size=2, mc_admission=False) as service:
            with ServeClient(service.addr) as client:
                with pytest.raises(AdmissionError,
                                   match="unknown program"):
                    client.submit("nonesuch")
                with pytest.raises(AdmissionError, match="pool has 2"):
                    client.submit("navp-2d-dsc", g=2, workers=4)

    def test_static_deadlock_rejected_at_admission(self):
        """The Figure 15 g=3 protocol deadlock (PR 8's find) is
        refused before it can burn a lease on a timeout."""
        with serving(pool_size=2) as service:
            with ServeClient(service.addr) as client:
                with pytest.raises(AdmissionError,
                                   match="statically rejected"):
                    client.submit("navp-2d-phase", g=3, ab=2)
                assert client.status()["rejected"] == 1


class TestElasticity:
    def test_resize_unlocks_wider_leases(self):
        with serving(pool_size=2, mc_admission=False) as service:
            with ServeClient(service.addr) as client:
                with pytest.raises(AdmissionError):
                    client.submit("navp-2d-dsc", g=2, workers=4)
                assert client.resize(4) == 4
                jid = client.submit("navp-2d-dsc", g=2, workers=4)
                record = client.wait(jid, timeout=30.0)
                assert record["state"] == "completed"
                assert client.resize(2) == 2   # shrink back, idle pool


class TestProtocolEdges:
    def test_unknown_job_and_programs_verb(self):
        with serving(pool_size=1, mc_admission=False) as service:
            with ServeClient(service.addr) as client:
                assert client.programs() == [
                    "mpi-gentleman", "navp-2d-dsc", "navp-2d-phase",
                    "navp-2d-pipeline"]
                with pytest.raises(ServeError, match="unknown job"):
                    client.status("j999")
                with pytest.raises(ServeError, match="unknown job"):
                    client.wait("j999", timeout=0.1)

    def test_chaos_verb_gated(self):
        with serving(pool_size=1, chaos=False,
                     mc_admission=False) as service:
            with ServeClient(service.addr) as client:
                with pytest.raises(ServeError, match="chaos"):
                    client.kill_worker()

    def test_shutdown_cancels_pending(self):
        with serving(pool_size=1, mc_admission=False) as service:
            with ServeClient(service.addr) as client:
                jids = [client.submit("navp-2d-dsc", workers=1)
                        for _ in range(3)]
                summary = client.shutdown(drain=True)
            assert summary["cancelled"] >= 1
            states = {service.jobs[j].state for j in jids}
            assert states <= {"completed", "failed"}
            cancelled = [j for j in jids
                         if service.jobs[j].reason
                         == "cancelled at shutdown"]
            assert len(cancelled) == summary["cancelled"]
        _assert_no_children()

    def test_second_shutdown_returns_after_a_failed_first(self):
        """ROADMAP 1(a): the first shutdown's exception is its
        caller's; a later one must not wait — holding the service lock
        a finishing job needs — for an event nobody will set."""
        service = ServeService(pool_size=1, heartbeat_s=0.02,
                               mc_admission=False)
        service.start()
        stop_all = service.pool.stop_all

        def failing_once():
            service.pool.stop_all = stop_all
            raise RuntimeError("injected pool failure")

        service.pool.stop_all = failing_once
        try:
            service.submit({"program": "navp-2d-dsc", "workers": 1})
            deadline = time.monotonic() + 10.0
            while not service.runs and not service.completed:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            runs = list(service.runs.values())
            with pytest.raises(RuntimeError, match="injected"):
                service.shutdown(drain=False)
            second = threading.Thread(target=service.shutdown, daemon=True)
            second.start()
            second.join(timeout=1.0)
            assert not second.is_alive()
            for run in runs:    # through on_job_done, not parked in it
                run.join(timeout=30.0)
                assert not run.is_alive()
        finally:
            stop_all()
        _assert_no_children()


class TestCLI:
    def test_variants_json_matches_the_catalog(self, capsys):
        from repro.serve.catalog import program_names
        assert main(["variants", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        serveable = {v["name"] for v in out["variants"]
                     if v["serveable"]}
        assert serveable == set(program_names())
        for v in out["variants"]:
            assert v["fabrics"] == (
                ["sim", "thread", "process", "socket"]
                if v["ir"] else ["sim"])

    def test_submit_without_addr_is_usage_error(self, capsys):
        assert main(["submit", "navp-2d-dsc"]) == 2
        assert "--addr" in capsys.readouterr().err

    def test_run_fabric_validates_against_catalog(self, capsys):
        assert main(["run", "doall-naive", "--fabric", "socket"]) == 2
        assert "IR form" in capsys.readouterr().err
