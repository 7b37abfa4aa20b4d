"""The methodology on a second problem: wavefront dynamic programming.

Matrix multiplication never needed synchronization in one dimension;
this example applies the same incremental steps to a problem with real
loop-carried dependences — the lattice shortest-path recurrence
D[i][j] = w[i][j] + min(D[i-1][j], D[i][j-1]) — and shows:

* DSC works unchanged (a single thread preserves program order);
* pipelining needs the events the paper warns about ("synchronization
  may be necessary"): the pipelining transformation derives one
  carrier per row from the DSC program, and because row R reads the
  bottom boundary row R-1 published, it puts a wait for
  bottom-done(R-1) before that read and a signal of bottom-done(R)
  after the write — the example prints the derived carrier;
* phase shifting is impossible here, and the transformation framework
  *refuses it mechanically*: reordering a carrier's tour over the PEs
  needs the tour's stops to be independent, but each stop reads the
  right edge (``medge``) the previous stop carried over, and every
  stop writes the same D[R] and bottom[R] entries.

Run:  python examples/wavefront_pipeline.py
"""

from repro.errors import TransformError
from repro.navp import ir
from repro.transform import PhaseShiftSpec, PipelinedSuite, phase_shift
from repro.viz.irprint import format_program
from repro.wavefront import (
    WavefrontCase,
    build_wavefront_ir,
    pipeline_time_model,
    run_dsc_wavefront,
    run_mpi_wavefront,
    run_pipelined_wavefront,
    run_sequential_wavefront,
)

V, Cn = ir.Var, ir.Const


def main() -> None:
    # -- correctness at small scale -------------------------------------
    case = WavefrontCase(n=32, b=4)
    reference = case.reference()
    for label, run in [
        ("sequential", lambda: run_sequential_wavefront(case)),
        ("DSC (4 PEs)", lambda: run_dsc_wavefront(case, 4)),
        ("pipelined (4 PEs)", lambda: run_pipelined_wavefront(case, 4)),
        ("MPI baseline (4 PEs)", lambda: run_mpi_wavefront(case, 4)),
    ]:
        result = run()
        import numpy as np

        assert np.allclose(result.d, reference)
        print(f"  {label:<22} verified, modeled {result.time:.4f} s")

    # -- timing at scale (shadow mode) ------------------------------------
    big = WavefrontCase(n=8192, b=128, shadow=True)
    seq = run_sequential_wavefront(big, trace=False).time
    print(f"\nn={big.n}, block {big.b} "
          f"({big.nblocks} block rows); sequential {seq:.2f} s")
    print(f"{'PEs':>4} {'DSC':>8} {'pipelined':>10} {'fill model':>11} "
          f"{'speedup':>8} {'R*p/(R+p-1)':>12}")
    r_blocks = big.nblocks
    for p in (2, 4, 8, 16):
        dsc = run_dsc_wavefront(big, p, trace=False).time
        pipe = run_pipelined_wavefront(big, p, trace=False).time
        model = pipeline_time_model(big, p)
        print(f"{p:4d} {dsc:8.2f} {pipe:10.2f} {model:11.2f} "
              f"{seq / pipe:8.2f} {r_blocks * p / (r_blocks + p - 1):12.2f}")

    # -- the derived synchronization and the mechanical refusal -----------
    main_ir, carrier = build_wavefront_ir(4, case.nblocks, case.b)
    print("\nthe carrier pipelining derived from the DSC program "
          "(note the bottom-done wait and signal):")
    derived = format_program(carrier)
    print(derived)
    assert "waitEvent(bottom-done" in derived
    assert "signalEvent(bottom-done" in derived
    pes = Cn(4)
    print("\nasking the transformation framework to phase-shift the "
          "carriers' tour:")
    try:
        phase_shift(PipelinedSuite(main_ir, carrier), PhaseShiftSpec(
            start_place=(ir.Bin("%", V("r"), pes),),
            schedule=ir.Bin("%", ir.Bin("+", V("r"), V("c")), pes),
            tour="c",
        ))
    except TransformError as exc:
        print(f"  refused, as it must: {exc}")
    else:
        raise SystemExit("phase shifting the wavefront was not refused")


if __name__ == "__main__":
    main()
