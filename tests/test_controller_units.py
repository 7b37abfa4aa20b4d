"""Unit coverage for the controller seams the serve daemon reuses.

The job service leans on three pieces of :mod:`repro.fabric.
controller` / :mod:`repro.resilience.recovery` machinery that until
now were only exercised through whole-fabric runs. Pin their contracts
directly: ``CreditGate.reset`` (reconnect semantics), ``RecoveryPolicy.
jittered_delays`` (bounds and reproducibility), and
``Supervisor.authorize_respawn`` (budget exhaustion).
"""

from types import SimpleNamespace

import pytest

from repro.errors import ResilienceError
from repro.fabric.controller import CreditGate, Supervisor, exit_cause
from repro.resilience.recovery import RecoveryPolicy


class TestCreditGateReset:
    def _gate(self, window=2, coalesce=8):
        sent = []
        gate = CreditGate(window, coalesce,
                          lambda dst, batch: sent.append((dst, batch)))
        return gate, sent

    def test_reset_forgets_outstanding_and_pending(self):
        """After a respawn the replacement worker owes nothing: the
        window reopens and queued payloads vanish (they are all in the
        journal, which the caller replays)."""
        gate, sent = self._gate(window=2)
        for p in ("p0", "p1", "p2", "p3"):
            gate.push(0, p)
        assert gate.outstanding[0] == 2          # window exhausted
        assert list(gate.pending[0]) == ["p2", "p3"]
        gate.reset(0)
        assert gate.outstanding[0] == 0
        assert not gate.pending[0]
        # the reopened window accepts a full replay immediately
        gate.push(0, "r0", flush=False)
        gate.push(0, "r1", flush=False)
        gate.pump(0)
        assert [b for _d, b in sent][-1] == ["r0", "r1"]

    def test_reset_is_per_destination(self):
        gate, _sent = self._gate(window=1)
        gate.push(0, "a")
        gate.push(1, "b")
        gate.push(1, "c")        # queued: window 1 exhausted toward 1
        gate.reset(1)
        assert gate.outstanding[0] == 1          # untouched
        assert gate.outstanding[1] == 0
        assert not gate.pending[1]

    def test_credit_after_reset_does_not_go_negative(self):
        """A stale credit from the dead worker's generation must not
        open the window wider than ``window``."""
        gate, sent = self._gate(window=1)
        gate.push(0, "a")
        gate.reset(0)
        gate.credit(0)                           # stale: already 0
        assert gate.outstanding[0] == 0
        gate.push(0, "b")
        gate.push(0, "c")
        assert gate.outstanding[0] == 1          # window still 1
        assert len(sent) == 2                    # "a" then "b", not "c"


class TestJitteredDelays:
    def test_bounds_and_growth(self):
        """Every jittered delay stays within (0, ceiling] while the
        ceilings grow exponentially."""
        policy = RecoveryPolicy(max_retries=6, backoff_s=0.02,
                                backoff_factor=2.0)
        ceilings = policy.delays()
        assert ceilings == [0.02 * 2.0 ** i for i in range(6)]
        for seed in range(20):
            jittered = policy.jittered_delays(seed)
            assert len(jittered) == 6
            for got, ceiling in zip(jittered, ceilings):
                assert 0.0 < got <= ceiling
                assert got >= 0.1 * ceiling      # full-jitter floor

    def test_seed_reproducible_and_decorrelated(self):
        policy = RecoveryPolicy(max_retries=4)
        assert policy.jittered_delays(7) == policy.jittered_delays(7)
        assert policy.jittered_delays(7) != policy.jittered_delays(8)

    def test_zero_retries_is_empty(self):
        assert RecoveryPolicy(max_retries=0).jittered_delays(1) == []


@pytest.mark.parametrize("exitcode, how", [
    (-9, "killed by SIGKILL"), (-11, "killed by SIGSEGV"),
    (1, "exit code 1"), (0, "exit code 0"),
    (None, "heartbeat timeout, still running")])
def test_exit_cause_words_an_exit_code(exitcode, how):
    assert exit_cause(SimpleNamespace(exitcode=exitcode)) == how


class TestRespawnBudget:
    def test_budget_exhaustion_raises(self):
        sup = Supervisor(RecoveryPolicy(), max_restarts=2)
        assert sup.authorize_respawn(0, "exit code 1") == 1
        assert sup.authorize_respawn(0, "exit code 1") == 2
        with pytest.raises(ResilienceError, match="exhausted"):
            sup.authorize_respawn(0, "exit code 1")

    def test_budget_is_per_host(self):
        sup = Supervisor(RecoveryPolicy(), max_restarts=1)
        assert sup.authorize_respawn(0, "exit code 1") == 1
        assert sup.authorize_respawn(1, "exit code 1") == 1   # unaffected
        with pytest.raises(ResilienceError):
            sup.authorize_respawn(0, "exit code 1")

    def test_disabled_recovery_refuses_any_respawn(self):
        sup = Supervisor(RecoveryPolicy(enabled=False), max_restarts=5)
        with pytest.raises(ResilienceError, match="disabled"):
            sup.authorize_respawn(0, "exit code 1")

    def test_checkpoint_truncates_replay(self):
        """The recovery script replays only journal entries newer than
        the committed checkpoint."""
        sup = Supervisor(RecoveryPolicy(), max_restarts=1)
        sup.journal(0, ("run", "old"))
        cid = sup.begin_checkpoint({0: 0})
        sup.commit_checkpoint(0, cid, {"state": 1})
        sup.journal(0, ("run", "new"))
        state, replay = sup.recovery_script(0)
        assert state == {"state": 1}
        assert replay == [("run", "new")]

    def test_a_cut_does_not_retire_what_the_gate_still_holds(self):
        """Journaled, still queued at a full credit gate: the hop
        reaches the host behind the marker, so the host's state reply
        does not hold it and the commit must leave it to replay."""
        sup = Supervisor(RecoveryPolicy(), max_restarts=1)
        sup.journal(0, ("run", "sent"))
        sup.journal(0, ("run", "held"))
        cid = sup.begin_checkpoint({0: 1})
        sup.commit_checkpoint(0, cid, "s")
        assert sup.recovery_script(0) == ("s", [("run", "held")])

    def test_overlapping_cuts_truncate_by_position(self):
        """A cut may open before the previous one commits (a fast
        forwarder, a slow worker). Its mark is a position in the whole
        journal: committing the older cut first must not make the
        newer one retire entries forwarded after its marker."""
        sup = Supervisor(RecoveryPolicy(), max_restarts=1)
        sup.journal(0, ("run", "a"))
        first = sup.begin_checkpoint({0: 0})
        sup.journal(0, ("run", "b"))
        second = sup.begin_checkpoint({0: 0})
        sup.journal(0, ("run", "c"))
        sup.commit_checkpoint(0, first, "s1")
        assert sup.recovery_script(0) == ("s1", [("run", "b"),
                                                 ("run", "c")])
        sup.commit_checkpoint(0, second, "s2")
        assert sup.recovery_script(0) == ("s2", [("run", "c")])

    def test_a_stale_commit_is_ignored(self):
        sup = Supervisor(RecoveryPolicy(), max_restarts=1)
        sup.journal(0, ("run", "a"))
        first = sup.begin_checkpoint({0: 0})
        sup.journal(0, ("run", "b"))
        second = sup.begin_checkpoint({0: 0})
        sup.commit_checkpoint(0, second, "s2")
        sup.commit_checkpoint(0, first, "s1")    # older state, too late
        assert sup.recovery_script(0) == ("s2", [])
