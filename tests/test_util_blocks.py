"""Unit and property tests for block partitioning helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.util.blocks import (
    Blocking,
    block_slices,
    block_view,
    check_divides,
    from_block_grid,
    strip_cols,
    strip_rows,
    tile_gemm_acc,
    to_block_grid,
)
from repro.util.shadow import ShadowArray


class TestCheckDivides:
    def test_accepts_divisible(self):
        check_divides(128, 32)

    def test_rejects_nondivisible(self):
        with pytest.raises(PartitionError):
            check_divides(100, 32)

    @pytest.mark.parametrize("n,b", [(0, 4), (4, 0), (-8, 2), (8, -2)])
    def test_rejects_nonpositive(self, n, b):
        with pytest.raises(PartitionError):
            check_divides(n, b)


class TestBlockViews:
    def test_block_slices(self):
        si, sj = block_slices(2, 1, 8)
        assert (si.start, si.stop) == (16, 24)
        assert (sj.start, sj.stop) == (8, 16)

    def test_block_view_is_a_view(self):
        a = np.arange(64.0).reshape(8, 8)
        blk = block_view(a, 1, 1, 4)
        assert np.shares_memory(blk, a)
        blk[0, 0] = -1.0
        assert a[4, 4] == -1.0

    def test_strip_rows_and_cols(self):
        a = np.arange(36.0).reshape(6, 6)
        assert np.array_equal(strip_rows(a, 1, 2), a[2:4, :])
        assert np.array_equal(strip_cols(a, 2, 2), a[:, 4:6])

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 5),
           st.integers(0, 5))
    def test_blocks_tile_the_matrix(self, bi, bj, i, j):
        """Every element belongs to exactly the block its indices say."""
        n = 6 * max(bi, bj)
        a = np.arange(float(n * n)).reshape(n, n)
        b = n // 6
        blk = block_view(a, i, j, b)
        assert blk.shape == (b, b)
        assert blk[0, 0] == a[i * b, j * b]


class TestBlockGrid:
    def test_roundtrip(self):
        a = np.arange(144.0).reshape(12, 12)
        grid = to_block_grid(a, 4)
        out = np.zeros_like(a)
        from_block_grid(grid, out)
        assert np.array_equal(out, a)

    def test_rotation_is_pointer_swap(self):
        """Shifting the nested-list representation copies no elements."""
        a = np.arange(64.0).reshape(8, 8)
        grid = to_block_grid(a, 4)
        first = grid[0][0]
        grid[0] = grid[0][1:] + [grid[0][0]]
        assert grid[0][-1] is first

    def test_rejects_nondivisible(self):
        with pytest.raises(PartitionError):
            to_block_grid(np.zeros((10, 10)), 4)

    def test_from_empty_grid_rejected(self):
        with pytest.raises(PartitionError):
            from_block_grid([], np.zeros((4, 4)))


class TestBlocking:
    def test_derived_quantities(self):
        blocking = Blocking(n=1536, grid=3, ab=128)
        assert blocking.db == 512
        assert blocking.blocks_per_db == 4
        assert blocking.nblocks == 12

    def test_invalid_combinations(self):
        with pytest.raises(PartitionError):
            Blocking(n=100, grid=3, ab=10)
        with pytest.raises(PartitionError):
            Blocking(n=96, grid=3, ab=10)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    def test_owner_local_global_roundtrip(self, grid, per_db, ab):
        blocking = Blocking(n=grid * per_db * ab, grid=grid, ab=ab)
        for idx in range(blocking.nblocks):
            owner = blocking.owner(idx)
            local = blocking.local_index(idx)
            assert 0 <= owner < grid
            assert 0 <= local < blocking.blocks_per_db
            assert blocking.global_index(owner, local) == idx

    def test_out_of_range(self):
        blocking = Blocking(n=24, grid=3, ab=4)
        with pytest.raises(PartitionError):
            blocking.owner(6)
        with pytest.raises(PartitionError):
            blocking.local_index(-1)
        with pytest.raises(PartitionError):
            blocking.global_index(3, 0)
        with pytest.raises(PartitionError):
            blocking.global_index(0, 2)


def _loop_gemm_acc(c, a, b, cells):
    """The nested loop ``tile_gemm_acc`` replaced (the reference)."""
    for x, y in cells:
        c[x][y] += a[x][y] @ b[x][y]


def _cell_sets(n):
    full = [(x, y) for x in range(n) for y in range(n)]
    interior = [(x, y) for x, y in full if x < n - 1 and y < n - 1]
    boundary = [(x, y) for x, y in full if x == n - 1 or y == n - 1]
    return {"full": None, "interior": interior, "boundary": boundary,
            "all-as-cells": full}


def _shadow_tile(n, b=4):
    return [to_block_grid(ShadowArray((n * b, n * b)), b) for _ in range(3)]


@pytest.fixture
def matmul_calls(monkeypatch):
    """One entry per ``ShadowArray.__matmul__`` call."""
    calls = []
    real = ShadowArray.__matmul__
    monkeypatch.setattr(ShadowArray, "__matmul__",
                        lambda s, o: calls.append(1) or real(s, o))
    return calls


class TestTileGemmAcc:
    @pytest.mark.parametrize("cells", ["full", "interior", "boundary",
                                       "all-as-cells"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_real_arrays_bit_identical_to_the_loop(self, cells, dtype):
        n, b = 3, 5
        rng = np.random.default_rng(16)
        mats = [rng.standard_normal((n * b, n * b)).astype(dtype)
                for _ in range(3)]
        want = [m.copy() for m in mats]
        subset = _cell_sets(n)[cells]
        tile_gemm_acc(*(to_block_grid(m, b) for m in mats), subset)
        _loop_gemm_acc(*(to_block_grid(m, b) for m in want),
                       subset or _cell_sets(n)["all-as-cells"])
        for got, ref in zip(mats, want):
            assert got.tobytes() == ref.tobytes()

    def test_real_blocks_accumulate_in_place(self):
        c, a, b = (to_block_grid(np.ones((4, 4)), 2) for _ in range(3))
        before = [blk for row in c for blk in row]
        tile_gemm_acc(c, a, b)
        assert all(x is y for x, y in zip(before,
                                          (blk for row in c for blk in row)))
        assert np.array_equal(c[1][0], np.full((2, 2), 3.0))

    def test_mismatched_grids_rejected(self):
        c, a, b = _shadow_tile(3)
        with pytest.raises(PartitionError):
            tile_gemm_acc(c, a[:2], b)
        b[1] = b[1][:2]
        with pytest.raises(PartitionError):
            tile_gemm_acc(c, a, b)

    @given(st.integers(2, 6), st.sampled_from("cab"), st.data())
    def test_one_wrong_shaped_shadow_block_still_raises(self, n, side, data):
        x, y = data.draw(st.integers(0, n - 1)), data.draw(
            st.integers(0, n - 1))
        for cells in (None, [(i, j) for i in range(n) for j in range(n)]):
            grids = dict(zip("cab", _shadow_tile(n)))
            grids[side][x][y] = ShadowArray((4, 5))
            with pytest.raises((ValueError, TypeError)):
                tile_gemm_acc(grids["c"], grids["a"], grids["b"], cells)
        grids = dict(zip("cab", _shadow_tile(n)))
        grids[side][x][y] = ShadowArray((4,))    # not 2-D
        with pytest.raises((ValueError, TypeError)):
            tile_gemm_acc(grids["c"], grids["a"], grids["b"])

    def test_wrong_block_outside_the_cells_is_not_touched(self):
        """Same reach as the loop: the tuned variant's interior round
        runs while the boundary slots still hold ``None``."""
        c, a, b = _shadow_tile(3)
        a[2][0] = None
        b[0][2] = ShadowArray((7, 7))
        tile_gemm_acc(c, a, b, _cell_sets(3)["interior"])

    def test_shadow_tile_checks_each_distinct_triple_once(self, matmul_calls):
        tile_gemm_acc(*_shadow_tile(6))
        assert len(matmul_calls) == 1

    def test_full_intern_pool_changes_nothing(self, monkeypatch,
                                              matmul_calls):
        """Blocks the pool no longer shares are distinct objects, so
        every triple is checked — same results, same errors."""
        from repro.util import shadow

        full = {i: None for i in range(shadow._POOL_CAP)}
        monkeypatch.setattr(shadow, "_INTERN", full)
        monkeypatch.setattr(shadow, "_GETITEM_CACHE", dict(full))
        n = 4
        base = ShadowArray((n * 4, n * 4))
        generic = [[block_view(base, i, j, 4) for j in range(n)]
                   for i in range(n)]
        assert generic[0][0] is not generic[0][1]      # really un-interned
        c = [list(row) for row in generic]
        tile_gemm_acc(c, generic, generic)
        assert len(matmul_calls) == n * n
        assert all(c[i][j] is generic[i][j]
                   for i in range(n) for j in range(n))
        for side in range(3):
            grids = [[list(row) for row in generic] for _ in range(3)]
            grids[side][n - 1][1] = ShadowArray((4, 5))
            with pytest.raises((ValueError, TypeError)):
                tile_gemm_acc(*grids)
        assert len(shadow._INTERN) == shadow._POOL_CAP


class TestShadowBlockGrid:
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4))
    def test_equals_the_generic_path_cell_by_cell(self, rows, cols, b):
        a = ShadowArray((rows * b, cols * b), np.float64)
        grid = to_block_grid(a, b)
        assert len(grid) == rows
        for i, row in enumerate(grid):
            assert len(row) == cols
            for j, blk in enumerate(row):
                ref = block_view(a, i, j, b)
                assert (blk.shape, blk.dtype) == (ref.shape, ref.dtype)
                assert blk.__class__ is ShadowArray

    def test_rows_are_distinct_lists(self):
        grid = to_block_grid(ShadowArray((8, 8)), 4)
        assert grid[0] is not grid[1]
        grid[0][0] = None
        assert grid[1][0] is not None
        grid[1] = grid[1][1:] + [grid[1][0]]       # pointer swap
        assert len(grid[0]) == len(grid[1]) == 2

    def test_still_rejects_nondivisible_and_non_2d(self):
        with pytest.raises(PartitionError):
            to_block_grid(ShadowArray((10, 8)), 4)
        with pytest.raises(PartitionError):
            to_block_grid(ShadowArray((8, 10)), 4)
        with pytest.raises(ValueError):
            to_block_grid(ShadowArray((8,)), 4)
