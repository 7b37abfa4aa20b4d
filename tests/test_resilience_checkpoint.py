"""Checkpoint stores, coordinated cuts, and resume-from-cut."""

import pytest

from repro.errors import FabricError, ResilienceError
from repro.fabric import Grid1D, SimFabric
from repro.navp import ir
from repro.navp.interp import IRMessenger
from repro.resilience import (
    ConsistentCut,
    DiskStore,
    MemoryStore,
    resume_from_cut,
)

V = ir.Var
C = ir.Const


def _register_scale_tour():
    """Hop the ring, writing mark = 7 * (place index + 1) everywhere."""
    ir.register_program(ir.Program("ckpt-tour", (
        ir.Assign("acc", C(0)),
        ir.For("i", C(4), (
            ir.HopStmt((V("i"),)),
            ir.Assign("acc", ir.Bin("+", V("acc"), C(7))),
            ir.NodeSet("mark", (), V("acc")),
        )),
    ), ()), replace=True)


def _build(store=None):
    _register_scale_tour()
    fabric = SimFabric(Grid1D(4), trace=False, use_cache_model=False,
                       checkpoint_store=store)
    return fabric


class TestStores:
    def test_memory_store_round_trip_and_latest(self):
        store = MemoryStore()
        assert store.latest() is None
        store.save("a", {"x": 1})
        store.save("b", {"x": 2})
        assert store.keys() == ["a", "b"]
        assert store.load("a") == {"x": 1}
        assert store.latest() == {"x": 2}

    def test_memory_store_copies_payloads(self):
        store = MemoryStore()
        payload = {"xs": [1, 2]}
        store.save("k", payload)
        payload["xs"].append(3)
        first = store.load("k")
        assert first["xs"] == [1, 2]
        first["xs"].append(9)  # mutating a loaded copy is also safe
        assert store.load("k")["xs"] == [1, 2]

    def test_disk_store_round_trip(self, tmp_path):
        store = DiskStore(str(tmp_path / "ckpts"))
        cut = ConsistentCut(time=1.5, places={0: {"x": 1}}, label="t")
        store.save("cut:1", cut)
        store.save("cut:2", ConsistentCut(time=2.5))
        # a fresh handle lists the same keys and payloads
        again = DiskStore(str(tmp_path / "ckpts"))
        assert again.keys() == ["cut:1", "cut:2"]
        loaded = again.load("cut:1")
        assert (loaded.time, loaded.places, loaded.label) == (
            1.5, {0: {"x": 1}}, "t")
        assert again.latest().time == 2.5

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
        store.save("cut:1", ConsistentCut(time=1.0))
        assert len(synced) >= 2   # payload file + its directory
        assert DiskStore(str(tmp_path / "ckpts")).load("cut:1").time == 1.0


    def test_a_resave_moves_the_key_last(self, tmp_path):
        """Both stores mean the most recent save by ``latest()``: a key
        saved again moves to the end of ``keys()``."""
        import time

        for store in (MemoryStore(), DiskStore(str(tmp_path / "ckpts"))):
            store.save("a", 1)
            store.save("b", 2)
            time.sleep(0.05)        # past the file-timestamp granularity
            store.save("a", 3)
            assert store.keys() == ["b", "a"], type(store).__name__
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


class TestScheduledCuts:
    def test_cut_captures_mid_flight_messenger(self):
        fabric = _build(MemoryStore())
        clean_end = None
        # find a time strictly inside the run first
        probe = _build(MemoryStore())
        probe.inject((0,), IRMessenger("ckpt-tour"))
        clean_end = probe.run().time
        mid = clean_end / 2

        fabric.schedule_snapshot(mid, label="mid")
        fabric.inject((0,), IRMessenger("ckpt-tour"))
        result = fabric.run()
        assert result.time.hex() == clean_end.hex()  # observing is free

        cut = fabric.checkpoints.load(f"cut:{mid:.9f}:mid")
        assert cut.time == mid
        assert len(cut.messengers) == 1
        ((place_index, snap, _pending),) = tuple(cut.messengers.values())
        assert isinstance(snap, tuple)  # (program, env, stack)
        assert 0 <= place_index < 4

    def test_snapshot_after_inject_without_resilience_raises(self):
        fabric = _build()  # no store, no plan
        fabric.inject((0,), IRMessenger("ckpt-tour"))
        with pytest.raises(FabricError):
            fabric.schedule_snapshot(0.001)

    def test_resume_from_cut_reproduces_final_state(self):
        probe = _build(MemoryStore())
        probe.inject((0,), IRMessenger("ckpt-tour"))
        final = probe.run()
        expected = {j: final.places[(j,)].get("mark") for j in range(4)}
        assert expected == {0: 7, 1: 14, 2: 21, 3: 28}

        fabric = _build(MemoryStore())
        fabric.schedule_snapshot(final.time / 2, label="mid")
        fabric.inject((0,), IRMessenger("ckpt-tour"))
        fabric.run()
        cut = fabric.checkpoints.latest()

        # roll a FRESH fabric forward from the cut: same final state
        fresh = _build()
        resumed = resume_from_cut(fresh, cut).run()
        got = {j: resumed.places[(j,)].get("mark") for j in range(4)}
        assert got == expected

    def test_resume_preserves_completed_prefix(self):
        """State written before the cut comes from the cut, not re-run."""
        probe = _build(MemoryStore())
        probe.inject((0,), IRMessenger("ckpt-tour"))
        final = probe.run()

        fabric = _build(MemoryStore())
        fabric.schedule_snapshot(final.time / 2, label="mid")
        fabric.inject((0,), IRMessenger("ckpt-tour"))
        fabric.run()
        cut = fabric.checkpoints.latest()
        # at mid-run, at least one mark is already in the cut's places
        marked = [i for i, vars_ in cut.places.items() if "mark" in vars_]
        assert marked, "cut captured no progress — pick a later time"
