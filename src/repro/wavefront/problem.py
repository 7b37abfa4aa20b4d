"""The wavefront case study: a lattice shortest-path dynamic program.

The paper presents matrix multiplication, whose iterations are
embarrassingly independent once data is placed — no events are needed
until the second dimension. Its Section 2, however, is explicit that
pipelining in general needs synchronization: "Synchronization may be
necessary to ensure that the data dependencies among the DSC threads
are not violated." This package exercises exactly that regime with the
classic wavefront recurrence

    D[i][j] = w[i][j] + min(D[i-1][j], D[i][j-1]),     D[0][0] = w[0][0]

(the cost of the cheapest monotone lattice path), block-decomposed over
a chain of PEs holding column strips. Block (R, C) depends on
(R-1, C) — produced *at the same PE* by the previous carrier — and on
(R, C-1) — whose right edge the carrier itself brings along. So:

* DSC needs no events (one thread, program order);
* pipelined carriers need a per-node event ``bottom-done(R-1)`` before
  computing block (R, C) — the paper's "synchronization may be
  necessary" made concrete;
* phase shifting is *illegal*: carrier R cannot enter the pipeline at
  PE q > 0 before carrier R-1 has passed q. The transformation
  framework's dependence check refuses mechanically (see the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..util.blocks import check_divides
from ..util.shadow import ShadowArray, is_shadow

__all__ = ["WavefrontCase", "reference_solve", "solve_block",
           "block_flops", "CELL_FLOPS"]

# modeled work per cell: one add, one min, plus index overheads folded in
CELL_FLOPS = 6.0


@dataclass(frozen=True)
class WavefrontCase:
    """An ``n x n`` lattice with block order ``b``."""

    n: int
    b: int
    shadow: bool = False
    seed: int = 2024

    def __post_init__(self) -> None:
        check_divides(self.n, self.b, "block order")

    @property
    def nblocks(self) -> int:
        return self.n // self.b

    def weights(self):
        if self.shadow:
            return ShadowArray((self.n, self.n), np.float32)
        rng = np.random.default_rng(self.seed)
        return rng.random((self.n, self.n))

    def reference(self, w=None):
        if self.shadow:
            raise ConfigurationError("no reference in shadow mode")
        return reference_solve(self.weights() if w is None else w)


def reference_solve(w):
    """Whole-table solve (vectorized row sweep with a scan-free inner
    loop kept in NumPy where possible; exact, used for verification)."""
    n, m = w.shape
    out = np.empty_like(w, dtype=float)
    out[0, :] = np.cumsum(w[0, :])
    for i in range(1, n):
        out[i, 0] = out[i - 1, 0] + w[i, 0]
        row = out[i]
        up = out[i - 1]
        for j in range(1, m):
            row[j] = w[i, j] + min(up[j], row[j - 1])
    return out


def solve_block(w_block, top=None, left=None):
    """Solve one block given its incoming boundaries.

    ``top`` is the row directly above the block (length = block width)
    or None at the global top edge; ``left`` the column directly to the
    block's left or None at the global left edge. Returns the solved
    block; shadow inputs yield a shadow output of the same shape.
    """
    if is_shadow(w_block):
        return ShadowArray(w_block.shape, w_block.dtype)
    bi, bj = w_block.shape
    out = np.empty((bi, bj), dtype=float)
    inf = np.inf
    for i in range(bi):
        for j in range(bj):
            up = out[i - 1, j] if i > 0 else (
                top[j] if top is not None else inf)
            lf = out[i, j - 1] if j > 0 else (
                left[i] if left is not None else inf)
            base = min(up, lf)
            if base == inf:  # the global origin cell only
                base = 0.0
            out[i, j] = w_block[i, j] + base
    return out


def block_flops(bi: int, bj: int) -> float:
    """Modeled flop charge for solving a ``bi x bj`` block."""
    return CELL_FLOPS * bi * bj
