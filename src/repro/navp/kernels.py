"""Registered compute kernels for IR messengers.

IR programs cannot carry Python closures — their whole point is that a
messenger's continuation must pickle and migrate between OS processes
while *code stays put* (MESSENGERS semantics: "although the state of
the computation is moved on each hop, the code is not moved"). Compute
steps therefore name kernels from this registry, which is imported
identically by every worker process.

Each kernel is ``(fn, flops)``: ``fn(*args)`` produces the value,
``flops(*args)`` the cost charged by the fabric. Kernels accept both
real arrays and :class:`~repro.util.shadow.ShadowArray` stand-ins.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..util.shadow import ShadowArray

__all__ = ["KERNELS", "register_kernel", "get_kernel", "Kernel"]


class Kernel:
    __slots__ = ("name", "fn", "flops")

    def __init__(self, name, fn, flops):
        self.name = name
        self.fn = fn
        self.flops = flops

    def __repr__(self) -> str:
        return f"Kernel({self.name})"


KERNELS: dict = {}


def register_kernel(name: str, fn, flops=None) -> None:
    """Add a kernel; ``flops`` defaults to zero cost.

    ``fn`` must return a new value and leave its arguments untouched:
    IR values are immutable. The process and socket fabrics rely on it
    — they collect and checkpoint only the node variables a ``NodeSet``
    can write, and take every other one from the loads — and
    ``tests/test_fabric_setup.py`` calls every kernel the package
    registers on real operands to check it."""
    if name in KERNELS:
        raise ConfigurationError(f"kernel {name!r} already registered")
    KERNELS[name] = Kernel(name, fn, flops or (lambda *a: 0.0))


def get_kernel(name: str) -> Kernel:
    try:
        return KERNELS[name]
    except KeyError:
        raise ConfigurationError(f"unknown kernel {name!r}") from None


def _zeros_from(ref):
    """A zero block with the shape/dtype of ``ref``."""
    if isinstance(ref, ShadowArray):
        return ShadowArray(ref.shape, ref.dtype)
    return np.zeros_like(ref)


def _gemm_acc(t, a, b):
    """``t + a @ b`` (returned, not in place: IR values are immutable)."""
    return t + a @ b


def _gemm_acc_flops(t, a, b) -> float:
    m, k = a.shape
    _, n = b.shape
    return 2.0 * m * k * n


def _copy(x):
    return x.copy() if hasattr(x, "copy") else x


register_kernel("zeros_from", _zeros_from)
register_kernel("gemm_acc", _gemm_acc, _gemm_acc_flops)
register_kernel("copy", _copy)
