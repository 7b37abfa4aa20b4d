"""The one durable write path: every call that makes bytes under a
serve ``--state-dir`` survive a power cut.

A write is durable only after an fsync of its file, and a new or
renamed directory entry only after an fsync of its directory. The job
ledger (:mod:`repro.serve.ledger`) and the cut store
(:class:`~repro.resilience.checkpoint.DiskStore`) make their bytes
durable through these six functions and no other call, so a test can
replace this module's barriers with a fake that crashes around each one
and rebuilds the directory as a power cut would leave it.
"""

import os

__all__ = ["create", "fsync", "makedirs", "sync_dir", "truncate",
           "write_atomic"]


def fsync(fd: int) -> None:
    """Flush file ``fd``'s data to stable storage. ``os.fsync`` is
    looked up per call, so a caller that patches it sees every sync."""
    os.fsync(fd)


def sync_dir(path: str) -> None:
    """Make the entries created, renamed or removed in directory
    ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def makedirs(path: str) -> None:
    """Create directory ``path`` and its missing parents, each new entry
    made durable in its parent."""
    if not os.path.isdir(path):
        parent = os.path.dirname(os.path.abspath(path))
        makedirs(parent)
        os.makedirs(path, exist_ok=True)
        sync_dir(parent)


def create(path: str):
    """Open ``path`` to append UTF-8 text, creating it first if absent:
    a new file's directory entry is durable before this returns."""
    if not os.path.exists(path):
        open(path, "a").close()
        sync_dir(os.path.dirname(os.path.abspath(path)))
    return open(path, "a", encoding="utf-8")


def truncate(path: str, length: int) -> None:
    """Cut file ``path`` back to its first ``length`` bytes, durably:
    the shorter file is fsync'd before this returns."""
    with open(path, "r+b") as fh:
        fh.truncate(length)
        fsync(fh.fileno())


def write_atomic(path: str, dump) -> None:
    """Replace ``path`` with the bytes ``dump(fh)`` writes to a binary
    file, all or nothing: temp file, fsync, ``os.replace``, directory
    fsync. A crash leaves the old file or the new one, never a torn
    one, and the new one is durable when this returns."""
    with open(path + ".tmp", "wb") as fh:
        dump(fh)
        fh.flush()
        fsync(fh.fileno())
    os.replace(fh.name, path)
    sync_dir(os.path.dirname(os.path.abspath(path)))
