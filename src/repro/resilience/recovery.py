"""Recovery policy: retries, backoff, and replay ledgers.

The pieces the fabrics share when they mask faults:

* :class:`RecoveryPolicy` — how hard to try. On ``SimFabric`` retries
  are *modeled* (``retry_cost_s`` of virtual time per attempt — zero by
  default so golden tables stay bit-exact under masked faults); on the
  thread/process fabrics ``backoff_s``/``backoff_factor`` are real
  sleeps between redelivery attempts.
* :class:`ReplayLedger` — the controller-side journal of everything
  sent to each failure domain since its last checkpoint, so a respawned
  worker can be replayed deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["RecoveryPolicy", "ReplayLedger"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a fabric responds to injected (or real) delivery failures."""

    enabled: bool = True
    max_retries: int = 3
    backoff_s: float = 0.01
    backoff_factor: float = 2.0
    retry_cost_s: float = 0.0  # virtual seconds per retry on SimFabric

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_s < 0 or self.retry_cost_s < 0:
            raise ConfigurationError("backoff/retry costs must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1.0")

    def delays(self) -> list:
        """Real-time sleeps before each retry attempt."""
        out, delay = [], self.backoff_s
        for _ in range(self.max_retries):
            out.append(delay)
            delay *= self.backoff_factor
        return out

    def jittered_delays(self, seed=None) -> list:
        """Exponential backoff with full jitter, for reconnection.

        Retrying peers that fail together also back off together; the
        classic fix is to draw each sleep uniformly from (0, ceiling]
        while the ceiling grows exponentially ("full jitter"). Seeded,
        so a fabric can make its reconnect schedule reproducible.
        """
        import random
        rng = random.Random(seed)
        return [d * rng.uniform(0.1, 1.0) for d in self.delays()]

    @classmethod
    def coerce(cls, value) -> "RecoveryPolicy":
        """Accept a policy, a bool, or None (-> default-enabled)."""
        if value is None or value is True:
            return cls()
        if value is False:
            return cls(enabled=False)
        if isinstance(value, cls):
            return value
        raise ConfigurationError(
            f"recovery must be a RecoveryPolicy or bool, got {value!r}")


class ReplayLedger:
    """Per-domain journal of deliveries since the last checkpoint.

    The controller appends every command it routes to a worker host; on
    respawn it replays the journal to the fresh worker, whose ``(mid,
    hops)`` delivery dedup — rebuilt from the checkpoint — keeps
    replayed-but-already-processed work from running twice. A commit
    truncates the entries its checkpoint covers (:meth:`truncate`).
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: dict = {}

    def append(self, domain, payload) -> None:
        self._entries.setdefault(domain, []).append(payload)

    def entries(self, domain) -> list:
        return list(self._entries.get(domain, ()))

    def truncate(self, domain, n: int) -> None:
        """Drop the first ``n`` entries — the ones a just-committed
        checkpoint now covers — keeping everything journaled since."""
        kept = self._entries.get(domain)
        if kept is not None:
            del kept[:n]
