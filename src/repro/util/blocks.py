"""Block partitioning helpers.

The paper distinguishes two nested levels of blocking (Section 3.6):

* **distribution blocks** — the unit of data distribution: with a
  ``G x G`` processor grid and matrix order ``n``, each distribution
  block is ``(n/G) x (n/G)`` and lives on one PE;
* **algorithmic blocks** — the unit of computation and of carrier
  payloads: each distribution block is further decomposed into
  ``ab x ab`` algorithmic blocks so that carriers can "spread out their
  computations to the entire network earlier" (Section 5).

These helpers compute the index arithmetic for both levels and expose
views (never copies) of NumPy arrays for a given block, following the
scientific-Python guidance to prefer views over copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from ..errors import PartitionError
from .shadow import ShadowArray

__all__ = [
    "Blocking",
    "block_view",
    "block_slices",
    "check_divides",
    "strip_rows",
    "strip_cols",
    "to_block_grid",
    "from_block_grid",
    "tile_gemm_acc",
]


def check_divides(n: int, b: int, what: str = "block order") -> None:
    """Raise :class:`PartitionError` unless ``b`` evenly divides ``n``."""
    if b <= 0 or n <= 0:
        raise PartitionError(f"orders must be positive, got n={n}, {what}={b}")
    if n % b != 0:
        raise PartitionError(f"{what} {b} does not divide matrix order {n}")


def block_slices(i: int, j: int, b: int) -> tuple[slice, slice]:
    """Slices selecting block ``(i, j)`` of a matrix with block order ``b``."""
    return slice(i * b, (i + 1) * b), slice(j * b, (j + 1) * b)


def block_view(a, i: int, j: int, b: int):
    """A view of block ``(i, j)`` (block order ``b``) of array-like ``a``.

    Works for both :class:`numpy.ndarray` and
    :class:`repro.util.shadow.ShadowArray` since both support 2-D slicing.
    """
    si, sj = block_slices(i, j, b)
    return a[si, sj]


def strip_rows(a, i: int, b: int):
    """A view of the ``i``-th horizontal strip of height ``b``."""
    return a[i * b : (i + 1) * b, :]


def strip_cols(a, j: int, b: int):
    """A view of the ``j``-th vertical strip of width ``b``."""
    return a[:, j * b : (j + 1) * b]


def to_block_grid(a, b: int) -> list:
    """Split a 2-D array into a nested list of ``b x b`` block views.

    The nested-list representation is what makes "pointer swapping"
    (Section 4 of the paper) natural: shifting a row or column of
    algorithmic blocks is list rotation, no element copies.
    """
    rows, cols = a.shape
    check_divides(rows, b)
    check_divides(cols, b)
    if a.__class__ is ShadowArray:
        # every b x b view of a shadow is the same value object: take
        # one, share it, but keep the row lists distinct (they rotate)
        blk = block_view(a, 0, 0, b)
        return [[blk] * (cols // b) for _ in range(rows // b)]
    return [
        [block_view(a, i, j, b) for j in range(cols // b)]
        for i in range(rows // b)
    ]


def from_block_grid(grid: list, out) -> None:
    """Write a nested list of blocks back into a full matrix ``out``."""
    if not grid or not grid[0]:
        raise PartitionError("empty block grid")
    b = grid[0][0].shape[0]
    for i, row in enumerate(grid):
        for j, blk in enumerate(row):
            out[i * b : (i + 1) * b, j * b : (j + 1) * b] = blk


def tile_gemm_acc(c: list, a: list, b: list, cells=None) -> None:
    """``C[x][y] += A[x][y] @ B[x][y]`` over three block grids.

    Covers the whole grid in row-major order, or the ``(x, y)`` pairs of
    ``cells`` in the order given; blocks accumulate in place. Real
    arrays see exactly those products in exactly that order. Shadow
    blocks are immutable value objects whose ``@`` / ``+=`` only check
    shapes, so each *distinct* ``(C, A, B)`` triple is checked once:
    interned blocks make that one triple per tile, and blocks the full
    intern pool no longer shares are all distinct, hence all checked.
    """
    if cells is None:
        widths = list(map(len, c))
        if list(map(len, a)) != widths or list(map(len, b)) != widths:
            raise PartitionError("block grids differ in shape")

    def triples():
        if cells is None:
            return chain.from_iterable(map(zip, c, a, b))
        return ((c[x][y], a[x][y], b[x][y]) for x, y in cells)

    try:
        todo = set(triples())
        shadows = all(blk.__class__ is ShadowArray
                      for triple in todo for blk in triple)
    except TypeError:  # ndarrays do not hash: real blocks share nothing
        shadows = False
    if not shadows:
        todo = triples()
    for cblk, ablk, bblk in todo:
        cblk += ablk @ bblk


@dataclass(frozen=True)
class Blocking:
    """Two-level blocking of an ``n x n`` matrix over a ``G``-sized grid axis.

    Parameters
    ----------
    n:
        Matrix order.
    grid:
        Number of PEs along the axis (``P`` for 1-D, ``G`` for one axis
        of a 2-D grid). The distribution block order is ``n // grid``.
    ab:
        Algorithmic block order; must divide the distribution block
        order.

    Attributes (derived)
    --------------------
    db:
        Distribution block order, ``n // grid``.
    blocks_per_db:
        Algorithmic blocks per distribution block along one axis.
    nblocks:
        Total algorithmic blocks along one axis, ``n // ab``.
    """

    n: int
    grid: int
    ab: int

    def __post_init__(self) -> None:
        check_divides(self.n, self.grid, "grid order")
        db = self.n // self.grid
        check_divides(db, self.ab, "algorithmic block order")

    @property
    def db(self) -> int:
        return self.n // self.grid

    @property
    def blocks_per_db(self) -> int:
        return self.db // self.ab

    @property
    def nblocks(self) -> int:
        return self.n // self.ab

    def owner(self, block_index: int) -> int:
        """Grid coordinate owning algorithmic block index ``block_index``."""
        if not 0 <= block_index < self.nblocks:
            raise PartitionError(
                f"block index {block_index} out of range [0, {self.nblocks})"
            )
        return block_index // self.blocks_per_db

    def local_index(self, block_index: int) -> int:
        """Index of the algorithmic block within its distribution block."""
        if not 0 <= block_index < self.nblocks:
            raise PartitionError(
                f"block index {block_index} out of range [0, {self.nblocks})"
            )
        return block_index % self.blocks_per_db

    def global_index(self, grid_coord: int, local: int) -> int:
        """Inverse of (:meth:`owner`, :meth:`local_index`)."""
        if not 0 <= grid_coord < self.grid:
            raise PartitionError(f"grid coord {grid_coord} out of range")
        if not 0 <= local < self.blocks_per_db:
            raise PartitionError(f"local index {local} out of range")
        return grid_coord * self.blocks_per_db + local
