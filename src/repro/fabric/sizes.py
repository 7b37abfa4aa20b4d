"""Modeled byte sizes of payloads.

Communication costs are charged against the *model* element size of the
machine spec (4 bytes for the paper's single-precision matrices), not
the in-memory size of the Python objects — the numerics may execute in
float64 for accuracy while costs stay faithful to the paper's data
volumes. Scalars and small control values are charged a flat overhead.

Two rulers live here:

* :func:`model_nbytes` / :func:`agent_nbytes` — the *model* sizes
  above, used by the simulated cost machinery. An array **view**
  charges its sliced elements only (``obj.size`` is the view's element
  count, never the base buffer's), matching what the codec ships.
* :func:`codec_nbytes` — the *codec-actual* serialized size, what the
  socket/process transports really put on the wire for an object
  (pickle frame plus out-of-band buffer bytes).
"""

from __future__ import annotations

import numpy as np

from ..machine.spec import MachineSpec
from ..util.shadow import ShadowArray
from .payload import encoded_nbytes

__all__ = ["model_nbytes", "agent_nbytes", "codec_nbytes"]

_SMALL_VALUE_BYTES = 16


def model_nbytes(obj, machine: MachineSpec) -> int:
    """Bytes the cost model charges for shipping ``obj``."""
    # Exact-class fast path for what shadow sweeps ship millions of
    # times: arrays, and lists/tuples of arrays and ints, summed without
    # a generator frame or a recursive call per element. Same sizes as
    # the chain below, which still serves every other type.
    cls = obj.__class__
    if cls is ShadowArray or cls is np.ndarray:
        return obj.size * machine.elem_size
    if cls is list or cls is tuple:
        elem_size = machine.elem_size
        total = 0
        for x in obj:
            cls = x.__class__
            if cls is ShadowArray or cls is np.ndarray:
                total += x.size * elem_size
            elif cls is int:  # block coordinates riding with the blocks
                total += _SMALL_VALUE_BYTES
            else:
                total += model_nbytes(x, machine)
        return total
    if obj is None:
        return 0
    if isinstance(obj, (np.ndarray, ShadowArray)):
        return obj.size * machine.elem_size
    if isinstance(obj, memoryview):
        # obj.nbytes, not len(obj): len() of a multi-dimensional or
        # wide-format view is its first-dimension length, which
        # undercharges (e.g. a float64 view by 8x)
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(model_nbytes(x, machine) for x in obj)
    if isinstance(obj, dict):
        return sum(
            model_nbytes(k, machine) + model_nbytes(v, machine)
            for k, v in obj.items()
        )
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    # ints, floats, bools, numpy scalars, small objects
    return _SMALL_VALUE_BYTES


def agent_nbytes(messenger, machine: MachineSpec) -> int:
    """Modeled size of a messenger's agent variables plus hop state.

    Agent variables are the messenger's public instance attributes
    (everything not starting with ``_``); runtime bookkeeping fields
    are kept private by convention and are not charged.
    """
    agent_vars = [value for name, value in vars(messenger).items()
                  if not name.startswith("_")]
    return machine.hop_state_bytes + model_nbytes(agent_vars, machine)


def codec_nbytes(obj) -> int:
    """Codec-actual serialized size of ``obj`` (see
    :func:`repro.fabric.payload.encoded_nbytes`): the pickle frame plus
    every out-of-band buffer, which for a numpy view is the sliced
    bytes only — the base array is never shipped."""
    return encoded_nbytes(obj)
