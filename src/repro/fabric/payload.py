"""Zero-copy hop-payload codec (pickle protocol 5, out-of-band buffers).

Every migration on a distributed fabric ships an agent snapshot whose
bulk is matrix blocks — numpy arrays (or views produced by
:mod:`repro.util.blocks`) sitting in the agent environment. Classic
pickling copies those blocks *into* the frame byte string: one copy at
``dumps``, another at ``loads``. At algorithmic-block hop rates that
copy tax is the transport ceiling (``bench/`` measures it as
``payload.encode_us`` and ``payload.decode_us``).

This codec splits a payload into

* a **frame**: the pickle byte stream with every eligible buffer
  *elided* (pickle protocol 5 ``buffer_callback``), and
* an ordered list of **out-of-band buffers**: flat ``memoryview``\\ s
  over the arrays' own memory — no copy is made on the encode side.

:func:`decode` rebuilds the object graph with arrays reconstructed
*over* the supplied buffers (``pickle.loads(..., buffers=...)``), so a
receiver that read the buffer bytes straight off a socket into
preallocated storage pays exactly one copy end to end — the unavoidable
kernel read — instead of three.

When zero-copy degrades to copy
-------------------------------

* **Non-contiguous views** (a strided column slice) are copied into a
  contiguous block by numpy's own reducer before pickling — only the
  sliced bytes, never the base array.
* **Small buffers** are kept in-band: below
  :data:`OOB_THRESHOLD` bytes the bookkeeping (a buffer-table entry, a
  scatter/gather element, a per-buffer allocation and ``recv_into`` on
  the receive side) costs more than the copy it saves. Measured on
  loopback TCP, the crossover sits near 100 KiB — small control hops
  pickle in-band exactly as before, while algorithmic matrix blocks
  (hundreds of KiB to MiB) ship zero-copy, 2.7-5x faster.
* **Objects without buffer support** (lists, dicts, scalars, shadow
  arrays — which hold no data at all) pickle in-band as always.

The codec is transport-agnostic: :mod:`repro.fabric.wire` ships the
``(frame, buffers)`` pair as one multi-buffer frame via scatter/gather
I/O, but the pair round-trips just as well through a queue or a file.
"""

from __future__ import annotations

import pickle

__all__ = [
    "PROTOCOL",
    "OOB_THRESHOLD",
    "encode",
    "decode",
    "nbytes",
    "encoded_nbytes",
]

PROTOCOL = 5

# Buffers smaller than this stay in-band: the out-of-band machinery
# (table slot, gather element, receive-side allocation) outweighs the
# copy it saves until roughly 100 KiB on loopback TCP. Algorithmic
# matrix blocks (hundreds of KiB up) always ship out-of-band.
OOB_THRESHOLD = 96 * 1024


def encode(obj) -> tuple[bytes, list]:
    """Serialize ``obj`` to ``(frame, buffers)`` without copying arrays.

    ``buffers`` is an ordered list of flat, C-contiguous
    ``memoryview``\\ s over the *original* objects' memory; the caller
    must ship (or consume) them before mutating the source arrays.
    """
    buffers: list = []

    def gate(pb):
        try:
            view = pb.raw()  # flat view over the original memory
        except BufferError:  # exotic layout: let pickle copy it in-band
            return True
        if view.nbytes < OOB_THRESHOLD:
            return True  # in-band: a table slot costs more than the copy
        buffers.append(view)
        return None  # falsy: ship out-of-band

    frame = pickle.dumps(obj, protocol=PROTOCOL, buffer_callback=gate)
    return frame, buffers


def decode(frame, buffers=()):
    """Inverse of :func:`encode`; arrays are built over ``buffers``.

    ``buffers`` may be any buffer-protocol objects (``memoryview``,
    ``bytearray``, ``bytes``) in encode order. Mutable buffers yield
    writable arrays; the arrays *alias* the buffers, so a transport
    must hand over ownership (the wire layer allocates fresh storage
    per frame).
    """
    return pickle.loads(frame, buffers=buffers)


def nbytes(frame, buffers=()) -> int:
    """Bytes an encoded pair occupies (frame + out-of-band buffers)."""
    total = len(frame)
    for b in buffers:
        total += b.nbytes if isinstance(b, memoryview) else len(b)
    return total


def encoded_nbytes(obj) -> int:
    """Codec-actual serialized size of ``obj``.

    This is what the data-movement ledger charges: a numpy *view*
    costs its sliced bytes only — encoding never ships the base array.
    """
    frame, buffers = encode(obj)
    return nbytes(frame, buffers)
