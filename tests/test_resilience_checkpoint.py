"""DiskStore: the durable store of the serve daemon's cut bundles."""

import pytest

from repro.errors import ResilienceError
from repro.resilience import DiskStore


class TestStores:
    def test_disk_store_round_trip(self, tmp_path):
        store = DiskStore(str(tmp_path / "ckpts"))
        store.save("cut:1", {"time": 1.5, "places": {0: {"x": 1}}})
        store.save("cut:2", {"time": 2.5})
        # a fresh handle lists the same keys and payloads
        again = DiskStore(str(tmp_path / "ckpts"))
        assert again.keys() == ["cut:1", "cut:2"]
        assert again.load("cut:1") == {"time": 1.5, "places": {0: {"x": 1}}}
        assert again.latest() == {"time": 2.5}

    def test_disk_store_missing_key(self, tmp_path):
        store = DiskStore(str(tmp_path))
        with pytest.raises(ResilienceError):
            store.load("never-saved")

    def test_disk_store_save_is_fsynced(self, tmp_path, monkeypatch):
        """save returns only after the bundle is fsync'd, and its
        directory entry with it: a served job's bundle is its only
        checkpoint, so a save that returned must load after a power
        loss."""
        import os

        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr("repro.resilience.checkpoint.os.fsync",
                            counting_fsync)
        store = DiskStore(str(tmp_path / "ckpts"))
        store.save("cut:1", {"time": 1.0})
        assert len(synced) >= 2   # payload file + its directory
        assert DiskStore(str(tmp_path / "ckpts")).load("cut:1") == {
            "time": 1.0}

    def test_a_resave_moves_the_key_last(self, tmp_path):
        """``latest()`` means the most recent save: a key saved again
        moves to the end of ``keys()``."""
        import time

        store = DiskStore(str(tmp_path / "ckpts"))
        store.save("a", 1)
        store.save("b", 2)
        time.sleep(0.05)        # past the file-timestamp granularity
        store.save("a", 3)
        assert store.keys() == ["b", "a"]
        assert store.latest() == 3

    def test_disk_store_names_a_bundle_by_its_key(self, tmp_path):
        """One file per key, named by the quoted key; no index, and a
        temp file a crash left mid-save is not a key."""
        root = tmp_path / "ckpts"
        store = DiskStore(str(root))
        store.save("cut:job/1", "x")
        (root / "cut%3Ajob%2F2.ckpt.tmp").write_bytes(b"torn")
        assert sorted(p.name for p in root.iterdir()) == [
            "cut%3Ajob%2F1.ckpt", "cut%3Ajob%2F2.ckpt.tmp"]
        assert DiskStore(str(root)).keys() == ["cut:job/1"]
        assert store.try_load("cut:job/2") is None
