"""Dynamic happens-before race checking (fabric.hb).

Unit tests pin each merge point of the NavP execution model — inject,
hop, signal→wait, resource handoff — as an edge the vector clocks must
(or, for primed tokens, must *not*) carry. Integration tests run real
fabrics with ``race_check=True``: the racy corpus must be caught, the
golden Figure-13 pipeline and the served Gentleman IR must come back
clean under perturbed schedules, and a deadlocked run
must explain itself with the static protocol prediction.
"""

import pytest

from repro.analysis.corpus import CORPUS, RACY_CORPUS, installed
from repro.errors import DeadlockError
from repro.fabric.fuzz import run_corpus_case
from repro.fabric.hb import HBTracker, RaceAccess
from repro.fabric.sim import SimFabric
from repro.fabric.topology import Grid1D
from repro.machine import FAST_TEST_MACHINE
from repro.navp.interp import IRMessenger

from .record_interp_goldens import race_checked_run


def _meta(actor, write):
    return RaceAccess(actor=actor, program=None, site=None, write=write)


def _write(hb, tid, var="x", key=None, place=0):
    hb.on_access(tid, place, var, key, True, _meta(f"t{tid}", True))


class TestMergePoints:
    def test_unrelated_writes_race(self):
        hb = HBTracker()
        t0, t1 = hb.new_thread(), hb.new_thread()
        _write(hb, t0)
        _write(hb, t1)
        assert len(hb.races) == 1
        assert hb.races[0].kind == "write-write"

    def test_injection_establishes_order(self):
        hb = HBTracker()
        t0 = hb.new_thread()
        _write(hb, t0)
        t1 = hb.new_thread(parent=t0)  # child born with parent's clock
        _write(hb, t1)
        assert hb.races == []

    def test_signal_wait_establishes_order(self):
        hb = HBTracker()
        t0, t1 = hb.new_thread(), hb.new_thread()
        key = (0, "E", ())
        _write(hb, t0)
        hb.on_signal(t0, key)
        hb.on_wait(t1, key)
        _write(hb, t1)
        assert hb.races == []

    def test_hop_carries_the_clock(self):
        # the clock travels with the continuation: an access made
        # *before* the hop is covered by a signal sent *after* it
        hb = HBTracker()
        t0, t1 = hb.new_thread(), hb.new_thread()
        _write(hb, t0, place=0)
        hb.on_hop(t0)  # arrive somewhere else
        hb.on_signal(t0, (1, "E", ()))
        hb.on_wait(t1, (1, "E", ()))
        _write(hb, t1, place=0)
        assert hb.races == []

    def test_hop_opens_a_fresh_epoch(self):
        hb = HBTracker()
        t0 = hb.new_thread()
        before = hb._clocks[t0][t0]
        hb.on_hop(t0)
        assert hb._clocks[t0][t0] == before + 1

    def test_primed_token_carries_no_order(self):
        # a setup-time signal enqueues the empty clock *ahead* of any
        # in-program snapshot, so the waiter learns nothing — exactly
        # the bad-dropped-wait corpus defect
        hb = HBTracker()
        key = (0, "E", ())
        hb.prime(key)
        t0, t1 = hb.new_thread(), hb.new_thread()
        _write(hb, t0)
        hb.on_signal(t0, key)  # queued behind the primed token
        hb.on_wait(t1, key)    # consumes the primed (empty) token
        _write(hb, t1)
        assert len(hb.races) == 1

    def test_resource_handoff_establishes_order(self):
        hb = HBTracker()
        t0, t1 = hb.new_thread(), hb.new_thread()
        _write(hb, t0)
        hb.on_release(t0, "cpu@host0")
        hb.on_acquire(t1, "cpu@host0")
        _write(hb, t1)
        assert hb.races == []

    def test_whole_variable_conflicts_with_every_entry(self):
        hb = HBTracker()
        t0, t1 = hb.new_thread(), hb.new_thread()
        hb.on_access(t0, 0, "x", (3,), True, _meta("a", True))
        hb.on_access(t1, 0, "x", None, False, _meta("b", False))
        assert len(hb.races) == 1
        assert hb.races[0].kind == "read-write"

    def test_disjoint_entries_do_not_conflict(self):
        hb = HBTracker()
        t0, t1 = hb.new_thread(), hb.new_thread()
        hb.on_access(t0, 0, "x", (3,), True, _meta("a", True))
        hb.on_access(t1, 0, "x", (4,), True, _meta("b", True))
        assert hb.races == []

    def test_duplicate_pairs_reported_once(self):
        hb = HBTracker()
        t0, t1 = hb.new_thread(), hb.new_thread()
        meta_a, meta_b = _meta("a", True), _meta("b", False)
        hb.on_access(t0, 0, "x", None, True, meta_a)
        hb.on_access(t1, 0, "x", None, False, meta_b)
        hb.on_access(t1, 0, "x", None, False, meta_b)
        assert len(hb.races) == 1


class TestFabricRuns:
    def test_corpus_race_found_dynamically(self):
        case = next(c for c in RACY_CORPUS
                    if c.name == "bad-unsignaled-write")
        found = set()
        for seed in range(8):
            for race in run_corpus_case(case, perturb_seed=seed):
                found.add(race.var)
            if set(case.racy_vars) <= found:
                break
        assert set(case.racy_vars) <= found

    def test_golden_pipeline_runs_clean(self):
        # Figure 13's full handshake (with its primed EC events) must
        # produce zero dynamic findings
        from repro.matmul.ir2d import build_fig13
        assert race_checked_run(build_fig13(3)) == []

    @pytest.mark.parametrize("g", [2, 3])
    def test_served_gentleman_runs_clean(self, g):
        # the ranker reads its round's keyed slot entry; reading the
        # whole Aslot/Bslot dictionary raced the next round's carriers
        from repro.serve import build_job_suite
        suite, _a, _b = build_job_suite("mpi-gentleman", g, seed=0, ab=2)
        for seed in (None, *range(8)):
            assert race_checked_run(suite, seed) == [], seed

    def test_deadlock_error_cites_static_prediction(self):
        case = next(c for c in CORPUS if c.name == "bad-unmatched-wait")
        with installed(case):
            fabric = SimFabric(Grid1D(1), machine=FAST_TEST_MACHINE,
                               trace=False)
            fabric.inject((0,), IRMessenger(case.root))
            with pytest.raises(DeadlockError) as exc:
                fabric.run()
        message = str(exc.value)
        assert "static protocol analysis" in message
        assert "unmatched-wait" in message
