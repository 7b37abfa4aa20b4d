"""Chaos soak: both worker-process fabrics converge under randomized faults.

Each seed derives a deterministic :meth:`FaultPlan.random` mix — a real
``SIGKILL``, wire-level frame drops, a duplicated frame — and runs the
IR wavefront pipeline under it, over real TCP (``socket``) and over
pre-fork socketpairs (``process``). The run must still converge to the
golden answer within the respawn budget: crashes are detected (heartbeat
loss; a dead process), the journal replays the destroyed state on a
fresh worker, ``(mid, hop)`` dedup masks the duplicates, and drops are
retransmitted.

Fault specs that never come due on a given run (a drop ordinal beyond
the hop count, a crash after completion) are intentionally inert —
the sweep asserts convergence, not that every fault fired.
"""

import numpy as np
import pytest

from repro.fabric import Grid1D, make_fabric
from repro.navp.interp import IRMessenger
from repro.resilience.faults import FaultPlan
from repro.wavefront.irprog import build_wavefront_ir
from repro.wavefront.navp import _gather, _layout
from repro.wavefront.problem import WavefrontCase

P = 2
MAX_RESTARTS = 2
CI_SEEDS = (7, 23, 101, 404)


def _chaos_run(seed: int, kind: str = "socket"):
    case = WavefrontCase(n=16, b=4)
    main, _carrier = build_wavefront_ir(P, case.nblocks, case.b)
    plan = FaultPlan.random(seed, places=P, crashes=1, drops=2,
                            duplicates=1, dup_kind="hop", horizon=0.3)
    fabric = make_fabric(kind, Grid1D(P), timeout=90.0, faults=plan,
                         checkpoint_every=4, max_restarts=MAX_RESTARTS,
                         trace=True)
    _layout(fabric, case, P)
    fabric.inject((0,), IRMessenger(main.name))
    result = fabric.run()
    return case, fabric, result


@pytest.mark.parametrize("kind,seed", [
    pytest.param(kind, seed,
                 id=str(seed) if kind == "socket" else f"{seed}-{kind}")
    for kind in ("socket", "process") for seed in CI_SEEDS])
def test_wavefront_converges_under_chaos(kind, seed):
    case, fabric, result = _chaos_run(seed, kind)
    d = _gather(result, case, P)
    assert np.allclose(d, case.reference()), (
        f"{kind} seed {seed}: wavefront diverged from golden under faults")
    assert sum(fabric.restarts.values()) <= MAX_RESTARTS * P
    assert not fabric.lost, "recovery was on; nothing may be lost"


def test_chaos_run_is_observable(recwarn):
    """The trace tells the recovery story for a seed that crashes."""
    case, fabric, result = _chaos_run(CI_SEEDS[0])
    kinds = {e.kind for e in result.trace.events}
    # every chaos run records hops; runs whose crash came due also
    # record the fault and the respawn that healed it
    assert "hop" in kinds
    if sum(fabric.restarts.values()):
        assert "respawn" in kinds
        notes = " ".join(e.note for e in result.trace.events)
        assert "SIGKILLed" in notes
        assert "respawned" in notes
