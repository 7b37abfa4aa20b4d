"""*Drive* probes of the traced run.

Code that executes inside forked workers cannot be wrapped from the
harness process, so the harness calls the same public functions itself,
on the workload's real inputs: the job's IR on in-process
:class:`~repro.fabric.controller.WorkerCore` hosts, its actual hop
payloads through ``payload.encode``/``decode``, a loopback
``FrameSocket`` pair, ``JobLedger.append``/``replay_ledger`` and
``DiskStore.save`` on scratch directories. Every probe returns plain
numbers; the workloads map them onto per-layer metric names.
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading
import time

import numpy as np

from harness import fresh_dir, median


def _timeit(fn, repeats: int) -> float:
    """Median wall seconds of ``fn()`` over ``repeats`` calls."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return median(walls)


# -- the job's IR on in-process worker cores ---------------------------------

def drive_cores(program: str, g: int, seed: int, ab: int,
                n_hosts: int) -> dict:
    """Run one catalog job to completion on ``n_hosts`` in-process
    WorkerCores (cyclic PE folding, like a serve lease) and count what
    the forked workers would do: interpreter dispatches and time,
    kernel calls and flops, cross-host hops and their payloads."""
    from repro.fabric.controller import WorkerCore
    from repro.fabric.hosts import cyclic_hosts, resolve_hosts
    from repro.fabric.topology import Grid2D
    from repro.navp.interp import Interp
    from repro.navp.kernels import get_kernel
    from repro.serve import build_job_suite

    suite, _a, _b = build_job_suite(program, g, seed, ab)
    topology = Grid2D(g)
    host_of = resolve_hosts(topology, cyclic_hosts(topology, n_hosts))
    hops: list = []       # (dst_host, payload) in emission order
    pending: list = []
    reports: list = []
    tally = {"dispatches": 0, "interp_s": 0.0, "kernel_calls": 0,
             "flops": 0.0}

    original = Interp.next_action

    def counted(self, node_vars):
        t0 = time.perf_counter()
        action = original(self, node_vars)
        tally["interp_s"] += time.perf_counter() - t0
        tally["dispatches"] += 1
        if action is not None and action[0] == "compute":
            tally["kernel_calls"] += 1
            tally["flops"] += get_kernel(action[1]).flops(*action[2])
        return action

    def emit_hop(dst, payload):
        hops.append((dst, payload))
        pending.append((dst, payload))

    cores = [
        WorkerCore(h, [c for c in topology.coords if host_of[c] == h],
                   dict(host_of), emit_hop, reports.append, dedup=True)
        for h in range(n_hosts)
    ]
    for coord, node_vars in suite.layout.items():
        cores[host_of[coord]].handle(("load", coord, node_vars))
    for coord, name, args, count in suite.initial_signals:
        cores[host_of[coord]].handle(("signal0", (coord, name, args, count)))
    entry = ("m0", [], 0, (0, 0),
             Interp(suite.entry.name, {}).agent_snapshot(), 0)

    Interp.next_action = counted
    t0 = time.perf_counter()
    try:
        cores[host_of[(0, 0)]].handle(("run", entry))
        while pending or any(core.ready for core in cores):
            for core in cores:
                while core.ready:
                    core.step()
            batch, pending[:] = list(pending), []
            for dst, payload in batch:
                cores[dst].handle(("run", payload))
    finally:
        Interp.next_action = original
    wall = time.perf_counter() - t0

    block = next(iter(suite.layout.values()))["C"]
    c = np.empty((g * ab, g * ab), dtype=block.dtype)
    for core in cores:
        for (i, j), node_vars in core.node_vars.items():
            c[i * ab:(i + 1) * ab, j * ab:(j + 1) * ab] = node_vars["C"]
    return {
        "wall_s": wall,
        "hops": hops,
        "digest": hashlib.sha256(c.tobytes()).hexdigest(),
        **tally,
    }


def snapshot_us(hops: list) -> float:
    """``interp.snapshot_us``: ``agent_snapshot`` + ``from_snapshot`` of
    a mid-flight continuation of the job (the hop with the fullest
    environment) — what every hop pays besides the codec."""
    from repro.navp.interp import Interp

    snap = max((p for _dst, p in hops), key=lambda p: len(p[4][1]))[4]

    def once():
        Interp.from_snapshot(snap).agent_snapshot()

    return _timeit(lambda: [once() for _ in range(100)], 15) / 100 * 1e6


# -- payload codec and wire ----------------------------------------------------

def payload_probe(hops: list) -> dict:
    """Codec cost on the job's real hop payloads (largest one timed)."""
    from repro.fabric import payload

    if not hops:
        return {"encode_us": 0.0, "decode_us": 0.0, "bytes_per_hop": 0.0,
                "oob_buffers_per_hop": 0.0, "largest": None}
    sizes, bufs = [], []
    for _dst, task in hops:
        frame, buffers = payload.encode(("run", "j0", task))
        sizes.append(payload.nbytes(frame, buffers))
        bufs.append(len(buffers))
    cmd = ("run", "j0", hops[sizes.index(max(sizes))][1])
    frame, buffers = payload.encode(cmd)
    copies = [bytearray(b) for b in buffers]   # what a receiver holds
    reps = 200 if max(sizes) < 64 * 1024 else 40
    enc = _timeit(lambda: [payload.encode(cmd) for _ in range(reps)], 9)
    dec = _timeit(lambda: [payload.decode(frame, copies)
                           for _ in range(reps)], 9)
    return {
        "encode_us": enc / reps * 1e6,
        "decode_us": dec / reps * 1e6,
        "bytes_per_hop": float(np.mean(sizes)),
        "oob_buffers_per_hop": float(np.mean(bufs)),
        "largest": cmd,
    }


def wire_probe(large_cmd=None) -> dict:
    """A loopback ``FrameSocket`` pair: small-frame round trip and the
    one-way rate of 512 KiB out-of-band block frames (acknowledged)."""
    from repro.fabric import payload
    from repro.fabric.wire import (FRAME_CMD, FRAME_REPORT, FrameSocket,
                                   WireError)

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.create_connection(listener.getsockname())
    server, _ = listener.accept()
    listener.close()
    near, far = FrameSocket(client), FrameSocket(server)

    def echo():
        try:
            while True:
                frame = far.recv()
                if frame.kind != FRAME_CMD:
                    return
                far.send(FRAME_REPORT, b"k")
        except WireError:   # peer closed: the probe is over
            return

    thread = threading.Thread(target=echo, daemon=True)
    thread.start()
    try:
        small, _ = payload.encode(("status", None))

        def rtt():
            near.send(FRAME_CMD, small)
            near.recv()

        for _ in range(200):
            rtt()
        small_rtt = _timeit(lambda: [rtt() for _ in range(200)], 11) / 200

        if large_cmd is None:
            large_cmd = ("run", "j0", np.zeros((2, 256, 256)))
        frame, buffers = payload.encode(large_cmd)
        nbytes = payload.nbytes(frame, buffers)

        def big():
            near.send(FRAME_CMD, frame, buffers=buffers)
            near.recv()

        for _ in range(5):
            big()
        large = _timeit(lambda: [big() for _ in range(10)], 9) / 10
    finally:
        near.send(FRAME_REPORT, b"")   # ends the echo thread
        near.close()
        far.close()
        thread.join(timeout=5)
    return {"small_rtt_us": small_rtt * 1e6,
            "large_mb_per_s": nbytes / large / 1e6,
            "large_frame_bytes": nbytes}


# -- ledger and checkpoint store -------------------------------------------------

def ledger_probe(real_wal: str | None) -> dict:
    """Append cost with and without fsync on a scratch ledger, and the
    replay time of the workload's real write-ahead log."""
    from repro.serve.ledger import JobLedger, replay_ledger

    spec = {"program": "navp-2d-dsc", "g": 2, "seed": 0, "ab": 4,
            "workers": 2, "tenant": "t0", "priority": 0, "key": "k"}

    def appends(fsync: bool) -> float:
        ledger = JobLedger(fresh_dir("probe-ledger"), fsync=fsync)
        ledger.open()
        walls = []
        for i in range(150):
            t0 = time.perf_counter()
            ledger.append({"t": "admitted", "jid": f"j{i}", "seq": i,
                           "spec": spec, "key": f"k{i}"})
            walls.append(time.perf_counter() - t0)
        ledger.close()
        return median(walls)

    synced, unsynced = appends(True), appends(False)
    out = {"append_ms": synced * 1e3,
           "fsync_ms": max(0.0, synced - unsynced) * 1e3,
           "replay_ms": 0.0, "replay_records": 0}
    if real_wal is not None:
        replay = replay_ledger(real_wal)
        out["replay_records"] = replay.records
        out["replay_ms"] = _timeit(lambda: replay_ledger(real_wal), 5) * 1e3
    return out


def checkpoint_probe(bundle) -> dict:
    """``DiskStore.save`` of a bundle of the job's size on a scratch
    directory, counting the fsyncs one save issues."""
    from repro.resilience.checkpoint import DiskStore

    store = DiskStore(fresh_dir("probe-ckpt"))
    store.save("cut:warm", bundle)
    calls = [0]
    real_fsync = os.fsync

    def counting(fd):
        calls[0] += 1
        return real_fsync(fd)

    os.fsync = counting
    try:
        store.save("cut:warm", bundle)
    finally:
        os.fsync = real_fsync
    save = _timeit(lambda: store.save("cut:warm", bundle), 9)
    return {"save_ms": save * 1e3, "fsyncs_per_save": calls[0]}


# -- kernels, desim, shadow, cache ---------------------------------------------------

def gemm_probe(ab: int) -> dict:
    from repro.navp.kernels import get_kernel

    kernel = get_kernel("gemm_acc")
    rng = np.random.default_rng(7)
    t, a, b = (rng.random((ab, ab)) for _ in range(3))
    reps = 200 if ab <= 16 else 12
    wall = _timeit(lambda: [kernel.fn(t, a, b) for _ in range(reps)], 9) / reps
    return {"gemm_ms": wall * 1e3,
            "gflops": kernel.flops(t, a, b) / wall / 1e9}


def desim_micro_events_per_s() -> float:
    """The ``des_micro`` shape of ``repro bench`` through the public
    ``Simulator`` API: timeouts, a contended resource and a semaphore
    handshake — the engine alone, no fabric or machine model."""
    from repro.fabric import desim

    def once() -> float:
        sim = desim.Simulator()
        res = sim.resource(4, name="cpu")
        sem = sim.semaphore(0, name="ep")

        def worker(i):
            for s in range(120):
                yield desim.Timeout(0.001 * ((i + s) % 7))
                yield res.acquire()
                yield desim.Timeout(0.0005)
                res.release()
                if i % 2 == 0:
                    sem.release()
                else:
                    yield sem.acquire()

        for i in range(120):
            sim.spawn(worker(i))
        before = desim.PERF_STATS["events"]
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        return (desim.PERF_STATS["events"] - before) / wall

    return median([once() for _ in range(5)])


def shadow_ops_per_s() -> float:
    """getitem / ``@`` / ``+=`` on ShadowArrays at Table 3's shapes."""
    from repro.perfmodel.paperdata import TABLE3
    from repro.util.shadow import ShadowArray

    shapes = [(row.n, row.ab) for row in TABLE3.rows]

    def once():
        for n, ab in shapes:
            a = ShadowArray((n, n), np.float32)
            c = ShadowArray((ab, ab), np.float32)
            for k in range(40):
                lo = (k * ab) % (n - ab + 1)
                c += a[lo:lo + ab, 0:ab] @ a[0:ab, lo:lo + ab]

    ops = len(shapes) * 40 * 4      # two getitems, one @, one += per step
    return ops / _timeit(once, 15)


def cache_factors_us() -> float:
    from repro.machine.cache import cache_factors

    cache_factors(ab=128)   # the memoised LRU simulation is set-up
    return _timeit(lambda: [cache_factors(ab=128) for _ in range(200)],
                   9) / 200 * 1e6


def hb_overhead_x() -> float:
    """The same Figure 13 suite on SimFabric with the happens-before
    race checker on, over the run with it off."""
    from repro.fabric.sim import SimFabric
    from repro.fabric.topology import Grid2D
    from repro.matmul import build_fig13
    from repro.navp.interp import IRMessenger

    def run(race_check: bool):
        suite = build_fig13(3)
        fabric = SimFabric(Grid2D(3), trace=False, race_check=race_check)
        for coord, node_vars in suite.layout.items():
            fabric.load(coord, **node_vars)
        for coord, event, args, count in suite.initial_signals:
            fabric.signal_initial(coord, event, *args, count=count)
        fabric.inject((0, 0), IRMessenger(suite.entry.name))
        fabric.run()

    off = _timeit(lambda: run(False), 7)
    on = _timeit(lambda: run(True), 7)
    return on / off
