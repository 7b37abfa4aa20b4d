"""The durable control plane, unit level: ledger edge cases (torn
tails, rotation, compaction, group commit), replay semantics, the
structured error-reply classification, the stale addr-file
probe, and in-process daemon restarts on one state dir (terminal
history recovered, idempotent submit deduped across the restart,
abandoned jobs re-run to the same golden digest).

The full out-of-process story — SIGKILL the daemon binary mid-stream,
restart it, SIGTERM drain — lives in tests/test_serve_restart.py.
"""

import json
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.errors import AdmissionError, LedgerError, ServeError
from repro.serve import JobLedger, ServeService, replay_ledger
from repro.serve.client import _classify, resolve_addr
from repro.serve.jobs import JobSpec


def _adm(jid, seq, key=None, **spec):
    spec = {"program": "navp-2d-dsc", "g": 2, "seed": seq, "ab": 4,
            "workers": 1, "tenant": "t", "priority": 0, "key": key,
            **spec}
    return {"t": "admitted", "jid": jid, "seq": seq, "spec": spec,
            "key": key}


def _done(jid, state="completed", **kw):
    return {"t": "done", "jid": jid, "state": state, "reason": "",
            "digest": "d" * 64, "ok": True, "wall_s": 0.1,
            "restarts": 0, **kw}


class TestLedgerRoundtrip:
    def test_lifecycle_replay(self, tmp_path):
        led = JobLedger(str(tmp_path))
        first = led.open()
        assert first.jobs == {}
        assert first.clean_close is True   # nothing to recover = clean
        led.append(_adm("j0", 0, key="k0"))
        led.append({"t": "dispatched", "jid": "j0"})
        led.append({"t": "ckpt", "jid": "j0", "cid": 3})
        led.append(_adm("j1", 1))
        led.append(_done("j0"))
        led.close()

        replay = replay_ledger(str(tmp_path))
        assert replay.clean_close is True
        assert replay.torn_records == 0
        assert replay.max_seq == 1
        j0, j1 = replay.jobs["j0"], replay.jobs["j1"]
        assert j0.terminal and j0.state == "completed"
        assert j0.digest == "d" * 64 and j0.ok is True
        assert j0.last_cid == 3 and j0.key == "k0"
        assert not j1.terminal and j1.state == "pending"
        assert replay.by_key() == {"k0": "j0"}

    def test_unclean_session_detected_and_recovered(self, tmp_path):
        led = JobLedger(str(tmp_path))
        led.open()
        led.append(_adm("j0", 0))
        # no close(): the daemon was SIGKILLed
        led2 = JobLedger(str(tmp_path))
        replay = led2.open()
        assert replay.clean_close is False
        assert replay.sessions == 1
        assert replay.jobs["j0"].state == "pending"
        led2.close()
        assert replay_ledger(str(tmp_path)).clean_close is True

    def test_closed_ledger_drops_appends(self, tmp_path):
        led = JobLedger(str(tmp_path))
        led.open()
        led.close()
        assert led.append(_adm("j9", 9)) is False
        assert led.stats()["dropped_after_close"] == 1
        assert "j9" not in replay_ledger(str(tmp_path)).jobs

    def test_bad_records_raise(self, tmp_path):
        led = JobLedger(str(tmp_path))
        led.open()
        led.append({"t": "dispatched", "jid": "never-admitted"})
        led.close()
        with pytest.raises(LedgerError, match="never-admitted"):
            replay_ledger(str(tmp_path))


class TestTornTail:
    def _segment(self, tmp_path):
        paths = sorted(p for p in os.listdir(tmp_path)
                       if p.startswith("wal-"))
        return os.path.join(tmp_path, paths[-1])

    def test_torn_final_record_dropped(self, tmp_path):
        led = JobLedger(str(tmp_path))
        led.open()
        led.append(_adm("j0", 0))
        led.close()
        with open(self._segment(tmp_path), "a", encoding="utf-8") as fh:
            fh.write('{"t":"admitted","jid":"j1","se')   # crash mid-write
        replay = replay_ledger(str(tmp_path))
        assert replay.torn_records == 1
        assert list(replay.jobs) == ["j0"]
        # the torn tail also cost us the close record's finality?
        # no — the close was complete; only the half record is dropped
        assert replay.clean_close is True

    def test_torn_tail_in_an_old_segment_tolerated(self, tmp_path):
        led = JobLedger(str(tmp_path))
        led.open()
        led.append(_adm("j0", 0))
        with open(self._segment(tmp_path), "a", encoding="utf-8") as fh:
            fh.write('{"t":"adm')    # session 1 died mid-append
        led2 = JobLedger(str(tmp_path))
        replay = led2.open()         # session 2 opens a NEW segment
        assert replay.torn_records == 1
        led2.append(_adm("j1", 1))
        led2.close()
        replay = replay_ledger(str(tmp_path))
        assert replay.torn_records == 1
        assert set(replay.jobs) == {"j0", "j1"}

    def test_torn_tail_in_a_sealed_segment_raises(self, tmp_path):
        """A rotated-away segment was fsync'd before its session moved
        on — a half line at its end is corruption (the successor starts
        with an ordinary record, not a new session's open), not a
        forgivable crash tail."""
        led = JobLedger(str(tmp_path), segment_max=2)
        led.open()
        for i in range(4):
            led.append(_adm(f"j{i}", i))
        led.close()
        segs = sorted(p for p in os.listdir(tmp_path)
                      if p.startswith("wal-"))
        assert len(segs) >= 3
        with open(os.path.join(tmp_path, segs[1]), "a",
                  encoding="utf-8") as fh:
            fh.write('{"t":"adm')
        with pytest.raises(LedgerError, match="sealed segment"):
            replay_ledger(str(tmp_path))

    def test_interior_corruption_raises(self, tmp_path):
        led = JobLedger(str(tmp_path))
        led.open()
        led.append(_adm("j0", 0))
        led.close()
        with open(self._segment(tmp_path), "a", encoding="utf-8") as fh:
            fh.write("GARBAGE NOT JSON\n")
            fh.write(json.dumps(_adm("j1", 1)) + "\n")
        with pytest.raises(LedgerError, match="not a torn tail"):
            replay_ledger(str(tmp_path))


class TestRotationAndCompaction:
    def test_rotation_seals_segments(self, tmp_path):
        led = JobLedger(str(tmp_path), segment_max=4)
        led.open()
        for i in range(10):
            led.append(_adm(f"j{i}", i))
        led.close()
        assert led.rotations >= 2
        assert replay_ledger(str(tmp_path)).segments >= 3
        assert len(replay_ledger(str(tmp_path)).jobs) == 10

    def test_compaction_replays_identically(self, tmp_path):
        # two sessions, rotation, a mixed population: terminal jobs,
        # a pending one, a running one with a committed checkpoint
        led = JobLedger(str(tmp_path), segment_max=3)
        led.open()
        for i in range(4):
            led.append(_adm(f"j{i}", i, key=f"k{i}"))
        led.append({"t": "dispatched", "jid": "j0"})
        led.append(_done("j0"))
        led.append({"t": "dispatched", "jid": "j1"})
        led.append(_done("j1", state="failed", reason="boom", ok=False))
        led.close()
        led2 = JobLedger(str(tmp_path), segment_max=3)
        led2.open()
        led2.append({"t": "dispatched", "jid": "j2"})
        led2.append({"t": "ckpt", "jid": "j2", "cid": 7})
        led2.close()

        full = replay_ledger(str(tmp_path))
        compactor = JobLedger(str(tmp_path))
        wrote = compactor.compact()
        compacted = replay_ledger(str(tmp_path))

        assert compacted.jobs == full.jobs          # the contract
        assert compacted.clean_close == full.clean_close
        assert compacted.sessions == full.sessions
        assert compacted.segments == 1
        assert wrote == compacted.records < full.records

    def test_open_autocompacts_old_sessions(self, tmp_path):
        for session in range(6):
            led = JobLedger(str(tmp_path), compact_segments=3)
            led.open()
            led.append(_adm(f"j{session}", session))
            led.close()
        led = JobLedger(str(tmp_path), compact_segments=3)
        replay = led.open()
        assert len(replay.jobs) == 6
        led.close()
        # steady state: at most compact_segments closed + 1 live
        assert replay_ledger(str(tmp_path)).segments <= 4
        assert len(replay_ledger(str(tmp_path)).jobs) == 6


class TestGroupCommit:
    def test_concurrent_appends_share_fsyncs(self, tmp_path):
        """With a deliberately slow fsync, threads appending during
        another thread's fsync get covered by the next one — strictly
        fewer fsyncs than appends, every record still durable."""
        calls = []

        def slow_fsync(fd):
            calls.append(fd)
            os.fsync(fd)
            time.sleep(0.002)

        led = JobLedger(str(tmp_path), _fsync_fn=slow_fsync)
        led.open()

        def worker(tid):
            for i in range(10):
                led.append(_adm(f"j{tid}-{i}", tid * 10 + i))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        led.close()
        stats = led.stats()
        assert stats["appends"] == 8 * 10 + 2      # + open + close
        assert stats["fsyncs"] < stats["appends"]
        assert stats["group_committed"] > 0
        assert len(replay_ledger(str(tmp_path)).jobs) == 80

    def test_group_commit_across_rotation(self, tmp_path):
        """Committers racing a rotation must not fsync a recycled fd
        (spurious EBADF, or syncing the wrong file) — the dup'd
        descriptor keeps the sealed segment alive for the straggler."""
        def slow_fsync(fd):
            os.fsync(fd)
            time.sleep(0.001)

        led = JobLedger(str(tmp_path), segment_max=5,
                        _fsync_fn=slow_fsync)
        led.open()

        def worker(tid):
            for i in range(20):
                led.append(_adm(f"j{tid}-{i}", tid * 20 + i))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        led.close()
        assert led.rotations > 0
        assert len(replay_ledger(str(tmp_path)).jobs) == 120

    def test_fsync_disabled_never_syncs_in_append(self, tmp_path):
        calls = []
        led = JobLedger(str(tmp_path), fsync=False,
                        _fsync_fn=lambda fd: calls.append(fd))
        led.open()
        led.append(_adm("j0", 0))
        assert calls == []          # append path skipped fsync entirely
        led.close()
        assert calls != []          # close still makes the tail durable


class TestReplyClassification:
    def test_structured_codes(self):
        assert isinstance(_classify(("err", "admission", "queue full")),
                          AdmissionError)
        assert isinstance(_classify(("err", "serve", "unknown job")),
                          ServeError)
        assert isinstance(_classify(("err", "internal", "KeyError: x")),
                          ServeError)
        # classification is by code, never by wording: an admission
        # reason reworded beyond recognition still classifies right
        assert isinstance(_classify(("err", "admission", "nope")),
                          AdmissionError)

    @pytest.mark.parametrize("reply", [
        ("err", "queue full (64)"),     # the pre-structured 2-tuple
        ("err",), ("okay", 1), None, "err"])
    def test_malformed_replies_are_loud(self, reply):
        exc = _classify(reply)
        assert type(exc) is ServeError
        assert "malformed reply" in str(exc)


class TestAddrFile:
    def test_stale_pid_fails_fast(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        path = tmp_path / "addr"
        path.write_text(f"{proc.pid}:127.0.0.1:45678\n")
        with pytest.raises(ServeError, match="stale addr file"):
            resolve_addr(None, str(path))

    def test_live_pid_resolves(self, tmp_path):
        path = tmp_path / "addr"
        path.write_text(f"{os.getpid()}:127.0.0.1:45678\n")
        assert resolve_addr(None, str(path)) == ("127.0.0.1", 45678)

    @pytest.mark.parametrize("text", [
        "127.0.0.1:45678", "", "pid:127.0.0.1:45678", "1:2:3:4"])
    def test_malformed_file_is_rejected(self, tmp_path, text):
        path = tmp_path / "addr"
        path.write_text(text + "\n")
        with pytest.raises(ServeError, match="malformed addr file"):
            resolve_addr(None, str(path))


class TestSpecKey:
    def test_key_round_trips(self):
        spec = JobSpec.from_dict({"program": "p", "key": "abc"})
        assert spec.key == "abc"
        assert JobSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("bad", ["", 7, b"x"])
    def test_bad_keys_rejected(self, bad):
        with pytest.raises(AdmissionError, match="idempotency key"):
            JobSpec.from_dict({"program": "p", "key": bad})


@contextmanager
def durable_serving(state_dir, **kw):
    kw.setdefault("heartbeat_s", 0.02)
    kw.setdefault("mc_admission", False)
    service = ServeService(state_dir=str(state_dir), **kw)
    service.start()
    try:
        yield service
    finally:
        if not service._stopped_evt.is_set():
            service.shutdown(drain=False)


class TestInProcessRestart:
    def test_history_and_dedup_survive_restart(self, tmp_path):
        """Session 1 completes a keyed job and drains; session 2 on the
        same state dir answers status/wait for it and dedups a
        resubmission of the same key instead of running it again."""
        spec = {"program": "navp-2d-dsc", "g": 2, "seed": 0, "ab": 4,
                "workers": 1, "key": "idem-1"}
        with durable_serving(tmp_path, pool_size=1) as svc:
            out = svc.submit(dict(spec))
            jid = out["job"]
            rec = svc.wait_job(jid, timeout=60.0)
            assert rec["state"] == "completed"
            digest = rec["digest"]
            svc.shutdown(drain=True)

        with durable_serving(tmp_path, pool_size=1) as svc2:
            assert svc2.recovery_summary["terminal"] == 1
            assert svc2.recovery_summary["unclean"] is False
            again = svc2.submit(dict(spec))
            assert again == {"job": jid, "state": "completed",
                             "deduped": True}
            rec2 = svc2.status(jid)
            assert rec2["state"] == "completed"
            assert rec2["digest"] == digest
            assert svc2.completed == 1   # recovered, not re-run

    def test_dispatch_gated_on_durable_admitted_record(self, tmp_path):
        """Until the admitted record's fsync returns, the dispatcher
        cannot see the job — so a ``dispatched`` ledger record can
        never land ahead of its ``admitted``, which would poison the
        next boot's replay."""
        with durable_serving(tmp_path, pool_size=1) as svc:
            takeable = []
            orig = svc.ledger.append

            def probing_append(record):
                if record.get("t") == "admitted":
                    with svc._lock:
                        takeable.append(svc.queue.take(99, {}))
                return orig(record)

            svc.ledger.append = probing_append
            out = svc.submit({"program": "navp-2d-dsc", "g": 2,
                              "seed": 0, "ab": 4, "workers": 1})
            assert takeable == [None]   # invisible mid-append
            # acknowledged => already on disk: the ack follows the append
            assert out["job"] in replay_ledger(str(tmp_path / "wal")).jobs
            rec = svc.wait_job(out["job"], timeout=60.0)
            assert rec["state"] == "completed"

    def test_key_reuse_with_different_spec_rejected(self, tmp_path):
        with durable_serving(tmp_path, pool_size=1) as svc:
            svc.submit({"program": "navp-2d-dsc", "workers": 1,
                        "key": "K", "seed": 1})
            with pytest.raises(AdmissionError, match="different spec"):
                svc.submit({"program": "navp-2d-dsc", "workers": 1,
                            "key": "K", "seed": 2})

    def test_a_job_resumes_from_its_last_cut(self, tmp_path):
        """The daemon died after a job's last committed cut and before
        its ``done`` record: session 2 resumes it from the bundle. The
        workers seed their blocks and check shares from the job
        header, the bundle (the written variables only, no shares) is
        restored over that, ``ok`` holds, and the digest is the one
        session 1 computed, the sim digest."""
        from repro.serve.catalog import CHECK_SHARES
        from tests.test_serve_service import _sim_digest

        spec = {"program": "mpi-gentleman", "g": 3, "seed": 4, "ab": 4,
                "workers": 2}
        with durable_serving(tmp_path, pool_size=2) as svc:
            jid = svc.submit(dict(spec))["job"]
            first = svc.wait_job(jid, timeout=60.0)
            assert first["state"] == "completed"
            svc.shutdown(drain=True)
        for segment in (tmp_path / "wal").iterdir():
            kept = [line for line in segment.read_text().splitlines()
                    if json.loads(line)["t"] != "done"]
            segment.write_text("".join(line + "\n" for line in kept))

        with durable_serving(tmp_path, pool_size=2) as svc2:
            assert svc2.recovery_summary["resumed"] == 1
            bundle = svc2.store.try_load(f"cut:{jid}")
            again = svc2.wait_job(jid, timeout=60.0)
        assert bundle is not None
        for node_vars, *_rest in bundle["states"].values():
            for held in node_vars.values():
                assert not {"A", "B", CHECK_SHARES} & set(held), set(held)
        assert first["ok"] is True
        assert again["state"] == "completed" and again["ok"] is True
        assert again["digest"] == first["digest"] == _sim_digest(
            "mpi-gentleman", 3, 4, 4)

    def test_abandoned_jobs_rerun_to_golden(self, tmp_path):
        """Session 1 is torn down without draining (running + pending
        jobs abandoned); session 2 re-admits them from the ledger and
        completes every one bit-exact."""
        from tests.test_serve_service import _sim_digest

        golden = {s: _sim_digest("navp-2d-dsc", 2, s, 4)
                  for s in (0, 1, 2)}
        with durable_serving(tmp_path, pool_size=1, tenant_cap=16) as svc:
            jids = {}
            for s in (0, 1, 2):
                out = svc.submit({"program": "navp-2d-dsc", "g": 2,
                                  "seed": s, "ab": 4, "workers": 1,
                                  "key": f"k{s}"})
                jids[s] = out["job"]
            svc.shutdown(drain=False)   # abandon whatever is in flight

        with durable_serving(tmp_path, pool_size=1, tenant_cap=16,
                             job_timeout_s=60.0) as svc2:
            summary = svc2.recovery_summary
            assert (summary["requeued"] + summary["resumed"]
                    + summary["terminal"]) == 3
            for s, jid in jids.items():
                rec = svc2.wait_job(jid, timeout=90.0)
                assert rec["state"] == "completed", rec
                assert rec["digest"] == golden[s], (s, jid)
            status = svc2.status()
            assert status["durability"]["recovered"] == summary
            svc2.shutdown(drain=True)

        # three sessions of history, cleanly closed, all terminal
        replay = replay_ledger(str(tmp_path / "wal"))
        assert replay.clean_close is True
        assert all(j.terminal for j in replay.jobs.values())
