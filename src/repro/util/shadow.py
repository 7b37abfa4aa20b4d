"""Shadow arrays: shape/dtype stand-ins that carry no data.

Reproducing the paper's Tables 1-4 requires simulating matrix orders up
to N = 9216. Executing the real block numerics at that scale would
dominate run time without affecting the *timing* results, because the
discrete-event fabric derives computation cost from flop counts and
communication cost from byte counts, never from wall-clock measurement.

A :class:`ShadowArray` mimics exactly the slice of NumPy semantics the
matmul messengers use — 2-D slicing, ``@``, ``+``, in-place ``+=``,
``.T``, ``.nbytes``, ``.shape``, ``.dtype`` — while storing no elements.
Algorithms written against this interface run unmodified in both
"execute" mode (real ``numpy.ndarray``) and "shadow" mode.

Shape rules follow NumPy; unsupported operations raise ``TypeError`` so
silent mis-simulation is impossible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ShadowArray", "shadow_zeros", "shadow_like", "is_shadow"]

# np.dtype() is surprisingly costly; shadow arrays use a handful of
# dtypes, so normalize through a small cache.
_DTYPE_CACHE: dict = {}


def _as_dtype(dtype):
    try:
        cached = _DTYPE_CACHE.get(dtype)
    except TypeError:  # unhashable dtype spec
        return np.dtype(dtype)
    if cached is None:
        cached = _DTYPE_CACHE[dtype] = np.dtype(dtype)
    return cached


def _slice_length(s, dim: int) -> int:
    """Length of the result of indexing a dimension of size ``dim`` by ``s``."""
    if isinstance(s, int):
        if not -dim <= s < dim:
            raise IndexError(f"index {s} out of bounds for axis of size {dim}")
        return -1  # marker: dimension is dropped
    if isinstance(s, slice):
        start, stop, step = s.indices(dim)
        if step <= 0:
            raise TypeError("ShadowArray only supports positive slice steps")
        return max(0, (stop - start + step - 1) // step)
    raise TypeError(f"unsupported index type for ShadowArray: {type(s)!r}")


class ShadowArray:
    """An array that knows its shape and dtype but holds no data.

    Instances are immutable value objects, so derived arrays (slices,
    binop results, transposes) are *interned*: equal ``(shape, dtype)``
    results are one pooled instance while the pool has room, which is
    what lets :func:`repro.util.blocks.tile_gemm_acc` check a whole tile
    of identical blocks once. Indexing is additionally memoized per
    ``(shape, dtype, index)`` — slices by their ``start, stop, step`` —
    so a repeated block or strip access is a dict hit, validated the
    first time only. ``size``/``nbytes`` are precomputed at construction
    (they feed every flop/byte cost estimate).
    """

    __slots__ = ("shape", "dtype", "size", "nbytes")

    def __init__(self, shape, dtype=np.float32):
        if isinstance(shape, int):
            shape = (shape,)
        shape = tuple(int(d) for d in shape)
        if any(d < 0 for d in shape):
            raise ValueError(f"negative dimension in shape {shape}")
        self.shape = shape
        self.dtype = _as_dtype(dtype)
        size = 1
        for d in shape:
            size *= d
        self.size = size
        self.nbytes = size * self.dtype.itemsize

    # -- metadata -----------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def T(self) -> "ShadowArray":
        return _make(self.shape[::-1], self.dtype)

    def __repr__(self) -> str:
        return f"ShadowArray(shape={self.shape}, dtype={self.dtype})"

    def copy(self) -> "ShadowArray":
        return _make(self.shape, self.dtype)

    def astype(self, dtype) -> "ShadowArray":
        return _make(self.shape, _as_dtype(dtype))

    # -- indexing -----------------------------------------------------
    def __getitem__(self, key) -> "ShadowArray":
        if not isinstance(key, tuple):
            key = (key,)
        try:
            # slices enter the memo key as their fields: slice objects
            # hash on Python 3.12 but not on 3.11, and the hot block and
            # strip accesses must memoize on both
            memo_key = (self.shape, self.dtype, tuple([
                (_SLICE, k.start, k.stop, k.step) if k.__class__ is slice
                else k for k in key]))
            cached = _GETITEM_CACHE.get(memo_key)
            if cached is not None:
                return cached
        except TypeError:  # an unhashable index; rejected below
            memo_key = None
        ndim = len(self.shape)
        if len(key) > ndim:
            raise IndexError(
                f"too many indices ({len(key)}) for shape {self.shape}"
            )
        # pad with full slices
        key = key + (slice(None),) * (ndim - len(key))
        out = []
        for s, dim in zip(key, self.shape):
            length = _slice_length(s, dim)
            if length >= 0:
                out.append(length)
        result = _make(tuple(out), self.dtype)
        if memo_key is not None and len(_GETITEM_CACHE) < _POOL_CAP:
            _GETITEM_CACHE[memo_key] = result
        return result

    def __setitem__(self, key, value) -> None:
        # Validate that the shapes are compatible, then discard.
        target = self[key]
        vshape = getattr(value, "shape", None)
        if vshape is not None and tuple(vshape) != target.shape:
            # allow broadcasting of scalars / length-1 dims like numpy
            if not _broadcastable(tuple(vshape), target.shape):
                raise ValueError(
                    f"could not broadcast shape {vshape} into {target.shape}"
                )

    # -- arithmetic ---------------------------------------------------
    def _binop(self, other) -> "ShadowArray":
        if other.__class__ is ShadowArray and other.shape == self.shape:
            return _make(self.shape, self.dtype)
        oshape = getattr(other, "shape", ())
        return _make(_broadcast_shapes(self.shape, tuple(oshape)), self.dtype)

    __add__ = __radd__ = __sub__ = __rsub__ = _binop
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _binop

    def __iadd__(self, other) -> "ShadowArray":
        if other.__class__ is ShadowArray and other.shape == self.shape:
            return self
        oshape = tuple(getattr(other, "shape", ()))
        if not _broadcastable(oshape, self.shape):
            raise ValueError(
                f"operands could not be broadcast: {self.shape} += {oshape}"
            )
        return self

    __isub__ = __iadd__

    def __matmul__(self, other) -> "ShadowArray":
        if len(self.shape) != 2 or getattr(other, "ndim", 0) != 2:
            raise TypeError("ShadowArray @ requires two 2-D operands")
        if self.shape[1] != other.shape[0]:
            raise ValueError(
                f"matmul shape mismatch: {self.shape} @ {other.shape}"
            )
        return _make((self.shape[0], other.shape[1]), self.dtype)

    def fill(self, value) -> None:
        """No-op; present for API parity with ``ndarray.fill``."""


# Interned instances and memoized slices, both capped so pathological
# workloads cannot grow the pools without bound.
_POOL_CAP = 4096
_INTERN: dict = {}
_GETITEM_CACHE: dict = {}
_SLICE = object()  # tags slice fields so no tuple index can alias them


def _make(shape: tuple, dtype) -> ShadowArray:
    """Pooled constructor for already-validated (shape, np.dtype)."""
    key = (shape, dtype)
    arr = _INTERN.get(key)
    if arr is None:
        arr = object.__new__(ShadowArray)
        arr.shape = shape
        arr.dtype = dtype
        size = 1
        for d in shape:
            size *= d
        arr.size = size
        arr.nbytes = size * dtype.itemsize
        if len(_INTERN) < _POOL_CAP:
            _INTERN[key] = arr
    return arr


def _broadcast_shapes(a: tuple, b: tuple) -> tuple:
    """NumPy broadcasting of two shapes (raises ValueError on mismatch)."""
    out = []
    for da, db in zip(reversed((1,) * max(0, len(b) - len(a)) + a),
                      reversed((1,) * max(0, len(a) - len(b)) + b)):
        if da == db or da == 1 or db == 1:
            out.append(max(da, db))
        else:
            raise ValueError(f"shapes {a} and {b} are not broadcastable")
    return tuple(reversed(out))


def _broadcastable(src: tuple, dst: tuple) -> bool:
    try:
        return _broadcast_shapes(src, dst) == dst
    except ValueError:
        return False


def shadow_zeros(shape, dtype=np.float32) -> ShadowArray:
    """Shadow equivalent of :func:`numpy.zeros`."""
    return ShadowArray(shape, dtype)


def shadow_like(a) -> ShadowArray:
    """A shadow with the shape and dtype of an existing array."""
    return ShadowArray(a.shape, a.dtype)


def is_shadow(a) -> bool:
    return isinstance(a, ShadowArray)
