"""Checkpoint bundles on disk.

A messenger that carries its full computation state on every ``hop()``
is, by construction, its own checkpoint, and the virtual-time
``SimFabric`` re-runs bit-exactly from its inputs, so it saves nothing.
The process/socket fabric controller keeps its committed cuts in
memory; only the serve daemon, whose jobs must outlive the daemon,
saves each job's last cut to a :class:`DiskStore`.
"""

from __future__ import annotations

import os
import pickle
from typing import Any
from urllib.parse import quote, unquote

from ..errors import ResilienceError
from ..util import durable

__all__ = ["DiskStore"]


class DiskStore:
    """One pickle file per key under ``root``: the key, percent-quoted
    (keys hold colons and may hold slashes), plus ``.ckpt``.

    ``save`` returns only after the bundle is durable (file fsync,
    rename, directory fsync: :func:`repro.util.durable.write_atomic`),
    so a bundle whose save returned loads after a power loss, and a
    crash mid-save leaves the old bundle or the new one. ``keys`` lists
    the bundles in last-save order (modification time, then name). The
    serve daemon keeps a job's last cut here under ``cut:{jid}`` and
    nowhere else, so a restarted daemon resumes a job from this store
    alone.
    """

    _SUFFIX = ".ckpt"

    def __init__(self, root: str):
        self.root = root
        durable.makedirs(root)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, quote(key, safe="") + self._SUFFIX)

    def save(self, key: str, payload: Any) -> None:
        durable.write_atomic(self._path(key), lambda fh: pickle.dump(
            payload, fh, protocol=pickle.HIGHEST_PROTOCOL))

    def load(self, key: str) -> Any:
        path = self._path(key)
        if not os.path.exists(path):
            raise ResilienceError(f"no checkpoint under key {key!r}")
        with open(path, "rb") as fh:
            return pickle.load(fh)

    def keys(self) -> list:
        bundles = sorted(
            (entry.stat().st_mtime_ns, entry.name)
            for entry in os.scandir(self.root)
            if entry.name.endswith(self._SUFFIX))
        return [unquote(name[:-len(self._SUFFIX)]) for _, name in bundles]

    def latest(self) -> Any:
        """The most recently saved payload (None when empty)."""
        keys = self.keys()
        return self.load(keys[-1]) if keys else None

    def try_load(self, key: str, default: Any = None) -> Any:
        """:meth:`load`, but ``default`` instead of an error when the
        key has never been saved (e.g. a resumed job that crashed
        before its first committed checkpoint)."""
        try:
            return self.load(key)
        except ResilienceError:
            return default
