"""The methodology on a second problem: wavefront dynamic programming.

Matrix multiplication never needed synchronization in one dimension;
this example applies the same incremental steps to a problem with real
loop-carried dependences — the lattice shortest-path recurrence
D[i][j] = w[i][j] + min(D[i-1][j], D[i][j-1]) — and shows:

* DSC works unchanged (a single thread preserves program order);
* pipelining needs the events the paper warns about ("synchronization
  may be necessary"): keyed pipelining derives one carrier per row
  from the DSC program, and carrier R waits for bottom-done(R-1) at
  every PE;
* phase shifting is impossible here, and the transformation framework
  *refuses it mechanically* — carrier R's first block depends on
  carrier R-1's block at the same PE.

Run:  python examples/wavefront_pipeline.py
"""

from repro.errors import TransformError
from repro.navp import ir
from repro.transform import check_loop_independent
from repro.wavefront import (
    WavefrontCase,
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

    # -- the mechanical refusal ---------------------------------------------
    wavefront_ir = ir.register_program(ir.Program("wavefront-demo-ir", (
        ir.For("r", Cn(8), (
            ir.For("c", Cn(8), (
                ir.ComputeStmt("copy", (
                    ir.NodeGet("D", (ir.Bin("-", V("r"), Cn(1)), V("c"))),),
                    out="up"),
                ir.NodeSet("D", (V("r"), V("c")), V("up")),
            )),
        )),
    )), replace=True)
    print("\nasking the transformation framework to pipeline the row loop:")
    try:
        check_loop_independent(wavefront_ir, "r")
    except TransformError as exc:
        print(f"  refused, as it must: {exc}")
    print("(the hand derivation adds the BDONE events instead; phase "
          "shifting stays impossible)")


if __name__ == "__main__":
    main()
