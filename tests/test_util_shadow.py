"""ShadowArray must mirror NumPy's shape semantics exactly.

The whole simulation strategy rests on algorithms behaving identically
over shadows and real arrays; the property tests here drive random
slicing/arithmetic through both and compare the resulting shapes.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.shadow import ShadowArray, is_shadow, shadow_like, shadow_zeros

dims = st.integers(1, 12)


@st.composite
def shape2d(draw):
    return (draw(dims), draw(dims))


@st.composite
def slice_for(draw, dim):
    start = draw(st.integers(0, dim))
    stop = draw(st.integers(0, dim))
    step = draw(st.integers(1, 3))
    return slice(start, stop, step)


class TestMetadata:
    def test_basic(self):
        s = ShadowArray((4, 6), np.float32)
        assert s.shape == (4, 6)
        assert s.ndim == 2
        assert s.size == 24
        assert s.nbytes == 96
        assert s.dtype == np.float32

    def test_int_shape(self):
        assert ShadowArray(5).shape == (5,)

    def test_transpose(self):
        assert ShadowArray((2, 7)).T.shape == (7, 2)

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError):
            ShadowArray((-1, 3))

    def test_copy_and_astype(self):
        s = ShadowArray((3, 3), np.float32)
        assert s.copy().shape == (3, 3)
        assert s.astype(np.float64).dtype == np.float64

    def test_helpers(self):
        assert is_shadow(shadow_zeros((2, 2)))
        assert not is_shadow(np.zeros((2, 2)))
        real = np.zeros((3, 5), dtype=np.float64)
        assert shadow_like(real).shape == (3, 5)
        assert shadow_like(real).dtype == np.float64

    def test_fill_is_noop(self):
        ShadowArray((2, 2)).fill(1.0)


class TestIndexingParity:
    @given(shape2d(), st.data())
    def test_slices_match_numpy(self, shape, data):
        real = np.zeros(shape, dtype=np.float32)
        shadow = ShadowArray(shape, np.float32)
        s0 = data.draw(slice_for(shape[0]))
        s1 = data.draw(slice_for(shape[1]))
        assert shadow[s0, s1].shape == real[s0, s1].shape

    @given(shape2d(), st.data())
    def test_int_index_drops_dim(self, shape, data):
        real = np.zeros(shape, dtype=np.float32)
        shadow = ShadowArray(shape, np.float32)
        i = data.draw(st.integers(-shape[0], shape[0] - 1))
        assert shadow[i].shape == real[i].shape

    def test_out_of_bounds(self):
        with pytest.raises(IndexError):
            ShadowArray((3, 3))[5]

    def test_too_many_indices(self):
        with pytest.raises(IndexError):
            ShadowArray((3, 3))[1, 1, 1]

    def test_negative_step_rejected(self):
        with pytest.raises(TypeError):
            ShadowArray((4,))[::-1]

    def test_setitem_validates_shapes(self):
        s = ShadowArray((4, 4))
        s[0:2, :] = ShadowArray((2, 4))   # ok
        s[0:2, :] = ShadowArray((1, 4))   # broadcastable
        with pytest.raises(ValueError):
            s[0:2, :] = ShadowArray((3, 4))


class TestIndexMemo:
    """Slices memoize by their fields, so Python 3.11 (unhashable
    slices) and 3.12 (hashable) take the same path."""

    @pytest.fixture
    def slice_length_calls(self, monkeypatch):
        from repro.util import shadow

        calls = []
        real = shadow._slice_length
        monkeypatch.setattr(
            shadow, "_slice_length",
            lambda s, dim: calls.append((s, dim)) or real(s, dim))
        monkeypatch.setattr(shadow, "_GETITEM_CACHE", {})
        return calls

    @pytest.mark.parametrize("make_key", [
        lambda: (slice(4, 8), slice(0, 4)),          # a block
        lambda: (slice(4, 8), slice(None)),          # a strip
        lambda: slice(2, 10, 3),
        lambda: (slice(0, 6), 2),
        lambda: 5,
        lambda: (1, -1),
    ], ids=["block", "strip", "stepped", "slice-int", "int", "int-int"])
    def test_second_identical_access_validates_nothing(
            self, slice_length_calls, make_key):
        a = ShadowArray((12, 12), np.float32)
        first = a[make_key()]
        assert len(slice_length_calls) == 2      # validated once, per axis
        # a fresh but equal key object, as every call site builds one
        assert a[make_key()] is first
        assert len(slice_length_calls) == 2
        assert first.shape == np.zeros((12, 12))[make_key()].shape

    def test_a_hit_needs_the_same_shape_dtype_and_key(
            self, slice_length_calls):
        a = ShadowArray((12, 12), np.float32)
        a[4:8, 0:4]
        for other, key in [
                (ShadowArray((12, 16), np.float32), (slice(4, 8), slice(0, 4))),
                (ShadowArray((12, 12), np.float64), (slice(4, 8), slice(0, 4))),
                (a, (slice(4, 8), slice(0, 4, 2))),
                (a, (slice(4, 8), slice(None, 4))),
        ]:
            before = len(slice_length_calls)
            assert other[key].shape == \
                np.zeros(other.shape)[key].shape
            assert len(slice_length_calls) == before + 2

    def test_invalid_indices_raise_every_time(self, slice_length_calls):
        a = ShadowArray((4, 4))
        a[0:2, 1]                                # populate the memo
        for _ in range(2):
            with pytest.raises(IndexError):
                a[4]
            with pytest.raises(IndexError):
                a[0:2, -5]
            with pytest.raises(TypeError):
                a[::-1]
            with pytest.raises(ValueError):
                a[0:4:0]
            with pytest.raises(TypeError):
                a[[0, 1]]                        # unhashable index
            with pytest.raises(TypeError):
                a[(0, 2, None), 1]               # a tuple is not a slice

    def test_memo_is_capped(self, monkeypatch):
        from repro.util import shadow

        full = {i: None for i in range(shadow._POOL_CAP)}
        monkeypatch.setattr(shadow, "_GETITEM_CACHE", full)
        assert ShadowArray((8, 8))[0:4, 0:4].shape == (4, 4)
        assert len(full) == shadow._POOL_CAP


class TestArithmeticParity:
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
    def test_matmul_shapes(self, m, k, n):
        out = ShadowArray((m, k)) @ ShadowArray((k, n))
        assert out.shape == (m, n)

    def test_matmul_mismatch(self):
        with pytest.raises(ValueError):
            ShadowArray((2, 3)) @ ShadowArray((4, 2))

    def test_matmul_requires_2d(self):
        with pytest.raises(TypeError):
            ShadowArray((4,)) @ ShadowArray((4,))

    @given(shape2d())
    def test_add_same_shape(self, shape):
        assert (ShadowArray(shape) + ShadowArray(shape)).shape == shape

    def test_broadcasting(self):
        a = ShadowArray((3, 1))
        b = ShadowArray((1, 4))
        assert (a + b).shape == (3, 4)
        assert (a * b).shape == (3, 4)

    def test_broadcast_mismatch(self):
        with pytest.raises(ValueError):
            ShadowArray((3, 2)) + ShadowArray((3, 4))

    def test_scalar_ops(self):
        s = ShadowArray((2, 5))
        assert (s * 2.0).shape == (2, 5)
        assert (1.0 + s).shape == (2, 5)

    def test_iadd_keeps_identity(self):
        s = ShadowArray((4, 4))
        t = s
        s += ShadowArray((4, 4))
        assert s is t

    def test_iadd_shape_mismatch(self):
        s = ShadowArray((4, 4))
        with pytest.raises(ValueError):
            s += ShadowArray((5, 4))


class TestAlgorithmParity:
    """The exact operation mix the matmul carriers perform."""

    def test_strip_update(self):
        c = ShadowArray((48, 16))
        mA = ShadowArray((4, 48))
        b = ShadowArray((48, 16))
        c[8:12, :] = mA @ b  # must not raise

    def test_block_accumulate(self):
        c = ShadowArray((16, 16))
        c += ShadowArray((16, 4)) @ ShadowArray((4, 16))
