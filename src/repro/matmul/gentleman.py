"""Gentleman's algorithm (Figure 16) on the MPI-like substrate.

This is the paper's message-passing baseline: the classical SPMD
matrix multiplication in which A shifts west and B shifts north every
round while C stays put, modified exactly as the paper describes
(Sections 4-5):

* **block partitioning** — each rank holds an ``a x a`` tile of
  algorithmic blocks per matrix (``a = (n/G)/ab``), kept as nested
  lists of block views so that local shifts are *pointer swaps*, never
  element copies;
* **single-step initial staggering** — the network is fully connected,
  so each algorithmic block of A (global block row ``gi``) is shipped
  directly to column ``(gj - gi) mod nb`` (and B transposed likewise)
  in one communication step instead of ``N-1`` ring steps;
* **non-blocking receives with blocking sends** — each round posts
  ``MPI_Irecv`` for the incoming A and B edge columns/rows, sends its
  own edges, ``MPI_Wait``s, then computes;
* **the straightforward loop order** — all local block products of a
  round run after both edges arrived, in a fixed order. This is the
  "artificial sequential order" the paper blames for MPI losing to
  NavP (Section 5 item 1): nothing overlaps the edge exchange.

The cache model charges these rounds at the "mpi" rate (fresh A-B-C
triplets; Section 5 item 2).
"""

from __future__ import annotations

from functools import partial

from ..fabric.topology import Grid2D
from ..machine.presets import SUN_BLADE_100
from ..machine.spec import MachineSpec
from ..mpi.comm import Comm, run_spmd
from ..util.blocks import check_divides, tile_gemm_acc, to_block_grid
from .kinds import MatmulCase, RunResult
from .layouts import gather_c_2d, layout_2d_natural

__all__ = ["run_gentleman", "run_gentleman_tuned", "gentleman_rank",
           "gentleman_tuned_rank", "stagger_single_step"]


def stagger_single_step(comm: Comm, grid: list, a: int, g: int, which: str,
                        block_row_shift: bool):
    """Single-step initial staggering of one operand's block tile.

    ``block_row_shift=False`` staggers columns (A: block (gi, gj) moves
    to column ``(gj - gi) mod nb``); ``True`` staggers rows (B: block
    (gi, gj) moves to row ``(gi - gj) mod nb``). Returns the restaggered
    ``a x a`` tile. Generator — drive with ``yield from``.
    """
    i, j = comm.coord
    nb = a * g
    outgoing: dict = {}
    for x in range(a):
        for y in range(a):
            gi, gj = i * a + x, j * a + y
            if block_row_shift:
                gi2, gj2 = (gi - gj) % nb, gj
                dst = (gi2 // a, j)
                pos = (gi2 % a, y)
            else:
                gi2, gj2 = gi, (gj - gi) % nb
                dst = (i, gj2 // a)
                pos = (x, gj2 % a)
            outgoing.setdefault(dst, []).append((pos, grid[x][y]))

    fresh = [[None] * a for _ in range(a)]
    placed = 0
    for dst, items in sorted(outgoing.items()):
        if dst == comm.coord:
            for pos, blk in items:
                fresh[pos[0]][pos[1]] = blk
            placed += len(items)
        else:
            yield comm.send(dst, ("stag", which), items)
    while placed < a * a:
        msg = yield comm.recv(tag=("stag", which))
        for pos, blk in msg.payload:
            fresh[pos[0]][pos[1]] = blk
        placed += len(msg.payload)
    return fresh


def gentleman_rank(case: MatmulCase, g: int):
    """Build the per-rank generator for Gentleman's algorithm."""
    ab = case.ab
    a = (case.n // g) // ab
    nb = case.nblocks
    flops_round = a * a * 2.0 * ab**3

    def program(comm: Comm):
        i, j = comm.coord
        ablocks = to_block_grid(comm.vars["A"], ab)
        bblocks = to_block_grid(comm.vars["B"], ab)
        cblocks = to_block_grid(comm.vars["C"], ab)

        # -- initial staggering, one step over the switch ---------------
        ablocks = yield from stagger_single_step(
            comm, ablocks, a, g, "A", block_row_shift=False)
        bblocks = yield from stagger_single_step(
            comm, bblocks, a, g, "B", block_row_shift=True)

        west = (i, (j - 1) % g)
        east = (i, (j + 1) % g)
        north = ((i - 1) % g, j)
        south = ((i + 1) % g, j)

        def round_update():
            tile_gemm_acc(cblocks, ablocks, bblocks)

        # first multiply (Figure 16 lines 11-13)
        yield comm.compute(round_update, flops=flops_round, kind="mpi",
                           note="round 0")

        # N-1 shift-and-multiply rounds (Figure 16 lines 14-20),
        # at algorithmic-block granularity: one block step per round.
        for r in range(1, nb):
            req_a = yield comm.irecv(src=east, tag=("A", r))
            req_b = yield comm.irecv(src=south, tag=("B", r))
            out_a = [ablocks[x][0] for x in range(a)]  # west edge column
            out_b = list(bblocks[0])                   # north edge row
            yield comm.send(west, ("A", r), out_a)
            yield comm.send(north, ("B", r), out_b)
            msg_a = yield comm.wait(req_a)
            msg_b = yield comm.wait(req_b)
            # pointer-swap local shift + splice in the received edges
            for x in range(a):
                ablocks[x] = ablocks[x][1:] + [msg_a.payload[x]]
            bblocks = bblocks[1:] + [msg_b.payload]
            yield comm.compute(round_update, flops=flops_round, kind="mpi",
                               note=f"round {r}")

    return program


def gentleman_tuned_rank(case: MatmulCase, g: int):
    """The fine-tuned variant the paper concedes is possible.

    "It would be possible to improve the performance of the MPI code by
    subtle fine-tuning at a cost of considerably more programming
    effort" (Section 5) — this is that effort: each round computes the
    *interior* blocks (whose operands were pointer-swapped locally)
    while the incoming edge column/row is still in flight, and only the
    boundary blocks wait for ``MPI_Wait``. The communication disappears
    behind computation, which is exactly the scheduling freedom the
    MESSENGERS daemon gives NavP for free.
    """
    ab = case.ab
    a = (case.n // g) // ab
    nb = case.nblocks
    block_flops = 2.0 * ab**3

    def program(comm: Comm):
        i, j = comm.coord
        ablocks = to_block_grid(comm.vars["A"], ab)
        bblocks = to_block_grid(comm.vars["B"], ab)
        cblocks = to_block_grid(comm.vars["C"], ab)

        ablocks = yield from stagger_single_step(
            comm, ablocks, a, g, "A", block_row_shift=False)
        bblocks = yield from stagger_single_step(
            comm, bblocks, a, g, "B", block_row_shift=True)

        west = (i, (j - 1) % g)
        east = (i, (j + 1) % g)
        north = ((i - 1) % g, j)
        south = ((i + 1) % g, j)

        def update(cells):
            # binds this round's grids: ``bblocks`` is rebound below
            return partial(tile_gemm_acc, cblocks, ablocks, bblocks, cells)

        yield comm.compute(update(None), flops=a * a * block_flops,
                           kind="mpi", note="round 0")

        interior = [(x, y) for x in range(a) for y in range(a)
                    if x < a - 1 and y < a - 1]
        boundary = [(x, y) for x in range(a) for y in range(a)
                    if x == a - 1 or y == a - 1]

        for r in range(1, nb):
            req_a = yield comm.irecv(src=east, tag=("A", r))
            req_b = yield comm.irecv(src=south, tag=("B", r))
            out_a = [ablocks[x][0] for x in range(a)]
            out_b = list(bblocks[0])
            yield comm.isend(west, ("A", r), out_a)
            yield comm.isend(north, ("B", r), out_b)
            # shift the interior by pointer swap and compute it NOW,
            # overlapping the in-flight edges
            for x in range(a):
                ablocks[x] = ablocks[x][1:] + [None]
            bblocks = bblocks[1:] + [None]
            if interior:
                yield comm.compute(update(interior),
                                   flops=len(interior) * block_flops,
                                   kind="mpi", note=f"round {r} interior")
            msg_a = yield comm.wait(req_a)
            msg_b = yield comm.wait(req_b)
            for x in range(a):
                ablocks[x][a - 1] = msg_a.payload[x]
            bblocks[a - 1] = msg_b.payload
            yield comm.compute(update(boundary),
                               flops=len(boundary) * block_flops,
                               kind="mpi", note=f"round {r} boundary")

    return program


def run_gentleman_tuned(case: MatmulCase, g: int,
                        machine: MachineSpec | None = None,
                        trace: bool = True, fabric: str = "sim") -> RunResult:
    """Run the communication-overlapping Gentleman variant."""
    machine = machine if machine is not None else SUN_BLADE_100
    check_divides(case.n, g, "grid order")
    check_divides(case.n // g, case.ab, "algorithmic block order")
    result = run_spmd(
        Grid2D(g), gentleman_tuned_rank(case, g), machine=machine,
        setup=lambda fabric: layout_2d_natural(fabric, case, g),
        trace=trace, fabric=fabric,
    )
    return RunResult(
        variant="mpi-gentleman-tuned", case=case, time=result.time,
        c=gather_c_2d(result, case, g), trace=result.trace,
        details={"grid": g, "rounds": case.nblocks},
    )


def run_gentleman(case: MatmulCase, g: int,
                  machine: MachineSpec | None = None,
                  trace: bool = True, fabric: str = "sim") -> RunResult:
    """Run Gentleman's algorithm on a ``g x g`` grid."""
    machine = machine if machine is not None else SUN_BLADE_100
    check_divides(case.n, g, "grid order")
    check_divides(case.n // g, case.ab, "algorithmic block order")
    result = run_spmd(
        Grid2D(g), gentleman_rank(case, g), machine=machine,
        setup=lambda fabric: layout_2d_natural(fabric, case, g),
        trace=trace, fabric=fabric,
    )
    return RunResult(
        variant="mpi-gentleman", case=case, time=result.time,
        c=gather_c_2d(result, case, g), trace=result.trace,
        details={"grid": g, "rounds": case.nblocks},
    )
