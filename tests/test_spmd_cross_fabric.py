"""Cross-fabric parity: same numerics on every execution substrate.

Two layers:

* the SPMD generator baselines run on real threads (generator frames
  can't cross address spaces, so thread is as far as they go);
* the IR suites — the Table 3 NavP program (fig 11) and the Gentleman
  schedule restated as carriers — run on *all four* fabrics, and must
  produce bit-identical matrices and identical logical-transfer counts
  whether the hop is a virtual-time event, a queue put, or a
  length-prefixed wire frame over a unix socketpair or TCP.
"""

import numpy as np
import pytest

from repro.fabric import FABRIC_KINDS
from repro.matmul import (
    MatmulCase,
    build_fig11,
    build_gentleman_ir,
    run_cannon,
    run_doall,
    run_doall_replicated,
    run_gentleman,
    run_gentleman_tuned,
    run_ir2d_suite,
    run_summa,
)
from repro.util.validation import assert_allclose
from repro.wavefront import WavefrontCase, run_mpi_wavefront


@pytest.mark.parametrize("runner", [
    run_gentleman, run_gentleman_tuned, run_cannon, run_summa,
    run_doall, run_doall_replicated,
])
def test_matmul_spmd_on_threads(runner):
    case = MatmulCase(n=24, ab=4, seed=31)
    result = runner(case, 2, fabric="thread")
    assert_allclose(result.c, case.reference(),
                    what=f"{result.variant} on threads")


def test_gentleman_3x3_on_threads():
    case = MatmulCase(n=36, ab=3, seed=32)
    result = run_gentleman(case, 3, fabric="thread")
    assert_allclose(result.c, case.reference())


@pytest.mark.parametrize("build", [build_fig11, build_gentleman_ir],
                         ids=["navp-fig11", "gentleman-ir"])
def test_ir_suites_identical_on_all_fabrics(build):
    """Table 3 pairing: bit-identical results + transfer counts."""
    g = 2
    golden = None
    counts = {}
    for kind in FABRIC_KINDS:
        suite = build(g)
        c, result = run_ir2d_suite(suite, kind, trace=True)
        if golden is None:
            golden = c
        else:
            assert np.array_equal(c, golden), (
                f"{suite.name} on {kind} differs bitwise from sim")
        counts[kind] = result.trace.message_count()
    assert len(set(counts.values())) == 1, (
        f"logical transfer counts diverge across fabrics: {counts}")


def test_wavefront_mpi_runs_on_sim_only_api():
    """The wavefront MPI baseline keeps its own signature (sim)."""
    case = WavefrontCase(n=16, b=4)
    result = run_mpi_wavefront(case, 2)
    import numpy as np

    assert np.allclose(result.d, case.reference())
