"""A second case study: wavefront dynamic programming.

Demonstrates the NavP methodology on a problem whose dependences make
synchronization *necessary* for pipelining and make phase shifting
*illegal* — the regime the paper's Section 2 describes but the matmul
case study never enters.
"""

from .mpi import run_mpi_wavefront, wavefront_rank
from .irprog import build_wavefront_ir
from .navp import (
    WavefrontResult,
    pipeline_time_model,
    run_dsc_wavefront,
    run_pipelined_wavefront,
    run_sequential_wavefront,
    run_wavefront_program,
)
from .problem import (
    CELL_FLOPS,
    WavefrontCase,
    block_flops,
    reference_solve,
    solve_block,
)

__all__ = [
    "WavefrontCase",
    "reference_solve",
    "solve_block",
    "block_flops",
    "CELL_FLOPS",
    "WavefrontResult",
    "run_sequential_wavefront",
    "run_dsc_wavefront",
    "run_pipelined_wavefront",
    "build_wavefront_ir",
    "run_wavefront_program",
    "run_mpi_wavefront",
    "pipeline_time_model",
    "wavefront_rank",
]
