"""``serve_ctl`` and ``serve_data``: the job service under two opposite
balances.

Both run ``python -m repro serve --pool 4 --state-dir ... --queue-depth
512 --tenant-cap 256`` as a subprocess with model-checked admission on
and drive it from this one process over at most two client connections.

``serve_ctl`` submits ``navp-2d-dsc g=2 ab=4 workers=2``: the kernels
are 4x4 blocks, so admission, the fsync'd ledger, queue, pool lease,
small-frame wire and interpreter dispatch do nearly all the work.
``serve_data`` alternates ``mpi-gentleman`` and ``navp-2d-pipeline`` at
``ab=256`` (512 KiB blocks, five times the out-of-band threshold): the
payload codec, multi-buffer wire, GEMM kernels, controller-routed hops
and checkpoint bundles dominate, and the control plane is a few percent
of a ~100 ms job. A control-plane optimisation must show no change on
``serve_data``, and a data-plane one none on ``serve_ctl``.

The traced run replaces the subprocess by an in-process ``ServeService``
twin (same flags, same clients) so the wrappers of :mod:`spans` can see
the daemon side, and adds the *drive* probes of :mod:`drive`.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from typing import NamedTuple

import drive
import oracles
from harness import (Ops, fresh_dir, median, percentile, repeats, scaled,
                     tree_bytes, tree_peak_rss_mb)

POOL = 4
QUEUE_DEPTH = 512
TENANT_CAP = 256
WARMUP_JOBS = 20
OPEN_RATE = 60.0          # jobs/s due in serve_ctl's open-loop phase

CTL_SHAPE = dict(program="navp-2d-dsc", g=2, ab=4, workers=2)
DATA_PROGRAMS = ("mpi-gentleman", "navp-2d-pipeline")
DATA_SHAPE = dict(g=2, ab=256, workers=2)


def job_specs(kind: str, n: int, seed: int, start: int = 0) -> list:
    """The generated inputs: job seeds cycle 0-7 from a seed-dependent
    offset, tenants t0-t3 in a seed-rotated order, serve_data's two
    programs alternate starting with a seed-chosen one."""
    out = []
    for i in range(start, start + n):
        spec = dict(CTL_SHAPE) if kind == "serve_ctl" else dict(
            DATA_SHAPE, program=DATA_PROGRAMS[(i + seed) % 2])
        spec["seed"] = (i + seed) % 8
        spec["tenant"] = f"t{(i + seed * 3) % 4}"
        out.append(spec)
    return out


def shape_of(spec: dict) -> tuple:
    return (spec["program"], spec["g"], spec["seed"], spec["ab"])


# -- the daemon, as a subprocess or as an in-process twin ---------------------

class Daemon:
    """``repro serve`` as a subprocess on ``state_dir``."""

    def __init__(self, children, state_dir: str):
        self.children = children
        self.state_dir = state_dir
        self.addr_file = state_dir + ".addr"
        self.proc = None
        self.addr = None
        self.peak_rss_mb = 0.0     # largest VmHWM seen in the daemon tree

    def start(self) -> None:
        """Spawn and wait until ``status`` shows a full pool."""
        from repro.serve import ServeClient
        from repro.serve.client import resolve_addr

        if os.path.exists(self.addr_file):
            os.remove(self.addr_file)
        t0 = time.perf_counter()
        with open(self.state_dir + ".log", "ab") as log:
            self.proc = self.children.spawn(
                [sys.executable, "-m", "repro", "serve",
                 "--pool", str(POOL), "--state-dir", self.state_dir,
                 "--addr-file", self.addr_file,
                 "--queue-depth", str(QUEUE_DEPTH),
                 "--tenant-cap", str(TENANT_CAP)],
                stdout=log)
        deadline = t0 + 60.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("serve daemon exited during start-up")
            if time.perf_counter() > deadline:
                raise RuntimeError("serve daemon did not come up in 60 s")
            try:
                with open(self.addr_file, encoding="utf-8") as fh:
                    if fh.read().endswith("\n"):
                        break
            except OSError:
                pass
            time.sleep(0.002)
        self.addr = resolve_addr(None, self.addr_file)
        with ServeClient(self.addr) as client:
            while client.status()["pool"]["free"] < POOL:
                time.sleep(0.002)

    def _note_rss(self) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb,
                               tree_peak_rss_mb(self.proc.pid))

    def sigterm(self) -> None:
        self._note_rss()
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=60)

    def stop(self) -> None:
        from repro.serve import ServeClient

        if self.proc is None or self.proc.poll() is not None:
            return
        self._note_rss()
        with ServeClient(self.addr, reconnect=False) as client:
            client.shutdown(drain=True)
        self.proc.wait(timeout=60)


class Twin:
    """The same service in process, for the traced run."""

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        self.service = None
        self.addr = None

    def start(self) -> None:
        from repro.serve import ServeService

        self.service = ServeService(
            pool_size=POOL, max_depth=QUEUE_DEPTH, tenant_cap=TENANT_CAP,
            state_dir=self.state_dir)
        self.addr = self.service.start()

    def stop(self) -> None:
        if self.service is not None:
            self.service.shutdown(drain=True)
            self.service = None


# -- load generation ------------------------------------------------------------

class Sample(NamedTuple):
    """Client-side time stamps of one job."""

    began: float        # submit sent
    submitted: float    # submit answered (the job is durable)
    done: float         # wait returned
    run_s: float        # JobRecord.wall_s, the scheduler's own clock

    @property
    def submit_rtt(self) -> float:
        return self.submitted - self.began

    @property
    def residual(self) -> float:
        """Latency not spent in the submit round trip or running:
        queue wait plus the wait verb's own round trip."""
        return self.done - self.submitted - self.run_s


class Load:
    """Drives one daemon session from at most two client connections
    and checks every job against the sim-fabric digest."""

    def __init__(self, addr, ops: Ops, expected: dict, yardstick):
        self.addr = addr
        self.ops = ops
        self.expected = expected
        self.yardstick = yardstick
        self.digests: dict = {}        # jid -> digest the daemon returned
        self._clients: list = []
        self._lock = threading.Lock()

    def one_job(self, client, spec: dict) -> Sample:
        t0 = time.perf_counter()
        jid = client.submit(**spec)
        t1 = time.perf_counter()
        record = client.wait(jid, timeout=120.0)
        t2 = time.perf_counter()
        good = (record["state"] == "completed" and record["ok"] is True
                and record["digest"] == self.expected[shape_of(spec)])
        with self._lock:
            self.ops.check(good, f"job {jid}: {record['state']} "
                                 f"ok={record['ok']} {record['reason']}")
            self.digests[jid] = record["digest"]
        return Sample(t0, t1, t2, record["wall_s"] or 0.0)

    def _connect(self) -> list:
        from repro.serve import ServeClient

        while len(self._clients) < 2:
            self._clients.append(ServeClient(self.addr))
        return self._clients

    def _on_two_connections(self, target, specs) -> None:
        """Run ``target(client, k, specs[k::2])`` for k in 0, 1, each on
        its own (persistent) connection."""
        self._connect()

        def guarded(k):
            try:
                target(self._clients[k], k, specs[k::2])
            except Exception as exc:   # noqa: BLE001 - counted, reported
                with self._lock:
                    self.ops.fail(f"client {k}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=guarded, args=(k,))
                   for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def close(self) -> None:
        for client in self._clients:
            client.close()
        self._clients.clear()

    def warm_up(self, specs) -> None:
        client = self._connect()[0]
        for spec in specs:
            self.one_job(client, spec)

    def open_loop(self, specs, rate: float, segment: int) -> dict:
        """Jobs due at a fixed rate, alternating over two connections;
        latency counts from the *due* time, so a stall charges the jobs
        queued behind it, and generator lateness is reported. The
        schedule runs in segments of ``segment`` jobs, each bracketed by
        yardstick probes; a job's calibrated latency uses its segment's
        host factor."""
        samples, latency, calibrated, late = [], [], [], []

        def run_segment(chunk):
            t_start = time.perf_counter() + 0.01
            mine_lat = []

            def conn(client, k, mine):
                for n, spec in enumerate(mine):
                    due = t_start + (2 * n + k) / rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sample = self.one_job(client, spec)
                    with self._lock:
                        samples.append(sample)
                        late.append(max(0.0, sample.began - due))
                        mine_lat.append(sample.done - due)

            self._on_two_connections(conn, chunk)
            return mine_lat

        for lo in range(0, len(specs), segment):
            timed = self.yardstick.timed(run_segment, specs[lo:lo + segment])
            latency.extend(timed.value)
            calibrated.extend(x / timed.factor for x in timed.value)
        return {"samples": samples, "latency": latency,
                "calibrated": calibrated, "late": late}

    def closed_loop(self, specs, block: int) -> dict:
        """Two closed-loop connections, ``block`` jobs at a time; each
        block is bracketed by yardstick probes and yields one raw and
        one calibrated throughput."""
        samples, rates, calibrated, latency_cal = [], [], [], []
        t_start = time.perf_counter()

        def run_block(chunk):
            mine = []

            def conn(client, _k, part):
                for spec in part:
                    sample = self.one_job(client, spec)
                    with self._lock:
                        mine.append(sample)

            self._on_two_connections(conn, chunk)
            return mine

        for lo in range(0, len(specs), block):
            timed = self.yardstick.timed(run_block, specs[lo:lo + block])
            samples.extend(timed.value)
            rates.append(len(timed.value) / timed.raw)
            calibrated.append(len(timed.value) / timed.cal)
            latency_cal.extend((s.done - s.began) / timed.factor
                               for s in timed.value)
        return {"samples": samples,
                "latency": [s.done - s.began for s in samples],
                "calibrated": latency_cal,
                "wall": time.perf_counter() - t_start,
                "rates": rates, "rates_calibrated": calibrated}

    def wait_rtt(self, samples: int = 100) -> list:
        """Round trip of a ``wait`` on jobs that already finished."""
        from repro.serve import ServeClient

        out = []
        with ServeClient(self.addr) as client:
            for jid in list(self.digests)[:samples]:
                t0 = time.perf_counter()
                client.wait(jid, timeout=5.0)
                out.append(time.perf_counter() - t0)
        return out


def _counts(kind: str, scale: float, traced: bool) -> dict:
    """Fixed operation counts of a run: ``--seconds`` scales the number
    of segments and blocks, never their size or the job shapes."""
    if kind == "serve_ctl":
        segments, segment, blocks, block = \
            (5, 28, 10, 30) if traced else (14, 30, 20, 50)
    else:
        segments, segment, blocks, block = \
            (0, 0, 10, 4) if traced else (0, 0, 20, 10)
    return {"open": scaled(segments, scale, 2) * segment if segments else 0,
            "segment": segment,
            "closed": scaled(blocks, scale, 4) * block, "block": block}


def _phases(kind: str, load: Load, counts: dict, seed: int) -> dict:
    """The open-loop phase (serve_ctl only), then the closed-loop one;
    the session's warm-up jobs came first."""
    n_open = counts["open"]
    opened = load.open_loop(
        job_specs(kind, n_open, seed, WARMUP_JOBS), OPEN_RATE,
        counts["segment"]) if n_open else None
    closed = load.closed_loop(
        job_specs(kind, counts["closed"], seed, WARMUP_JOBS + n_open),
        counts["block"])
    return {"open": opened, "closed": closed}


def _expected(kind: str) -> dict:
    return oracles.expected_digests(
        shape_of(spec) for spec in job_specs(kind, 16, 0))


# -- the measured run --------------------------------------------------------------

def run(ctx) -> dict:
    kind = ctx.workload
    if ctx.traced:
        return _run_traced(ctx)
    ops = ctx.ops
    expected = _expected(kind)
    counts = _counts(kind, ctx.scale, traced=False)

    # set-up, several times: spawn -> addr file -> full pool -> warm-up
    # jobs (which pay the first-of-shape admission verdicts); the last
    # bring-up is the session that gets measured
    y = ctx.yardstick
    setups = []
    bring_ups = repeats(ctx.scale)     # setup_s is their median
    for n in range(bring_ups):
        daemon = Daemon(ctx.children, fresh_dir(kind, f"state{n}"))

        def bring_up():
            daemon.start()
            session = Load(daemon.addr, ops, expected, y)
            session.warm_up(job_specs(kind, WARMUP_JOBS, ctx.seed))
            return session

        setups.append(y.timed_once(bring_up))
        load = setups[-1].value
        if n < bring_ups - 1:
            load.close()
            daemon.stop()
    phases = _phases(kind, load, counts, ctx.seed)
    load.close()

    closed = phases["closed"]
    measured = phases["open"] or closed
    named = {
        "setup_s": median(t.cal for t in setups),
        "jobs_per_s": median(closed["rates_calibrated"]),
        "job_p50_ms": median(measured["calibrated"]) * 1e3,
    }
    raw = {
        "setup_s": median(t.raw for t in setups),
        "jobs_per_s": median(closed["rates"]),
        "job_p50_ms": median(measured["latency"]) * 1e3,
    }
    extra = {
        "jobs_per_s.blocks": closed["rates_calibrated"],
        "client.job_p99_ms": percentile(measured["latency"], 99) * 1e3,
        "job_latency.samples": len(measured["latency"]),
    }
    if phases["open"]:
        extra["open.rate_per_s"] = OPEN_RATE
        extra["client.late_p99_ms"] = \
            percentile(phases["open"]["late"], 99) * 1e3

    jobs_done = len(load.digests)
    if kind == "serve_ctl":
        def restart():
            daemon.sigterm()
            size = tree_bytes(daemon.state_dir)
            daemon.start()
            return size

        restarts = [y.timed_once(restart)
                    for _ in range(repeats(ctx.scale))]
        state_bytes = restarts[0].value    # after the first drain
        named["restart_s"] = median(t.cal for t in restarts)
        raw["restart_s"] = median(t.raw for t in restarts)
        _verify_history(daemon, load, ops)
        daemon.stop()
    else:
        daemon.stop()
        state_bytes = tree_bytes(daemon.state_dir)
    named["state_mb_per_job"] = state_bytes / 1e6 / jobs_done
    named["peak_rss_mb"] = daemon.peak_rss_mb
    extra["jobs_completed"] = jobs_done
    return {"named": named, "raw": raw, "extra": extra,
            "dense": {"op_p50_ms": named["job_p50_ms"],
                      "ops_per_s": named["jobs_per_s"]}}


def _verify_history(daemon: Daemon, load: Load, ops: Ops) -> None:
    """After the restarts every earlier job id must still answer with
    its original digest (the ledger is the only thing that survived)."""
    from repro.serve import ServeClient

    with ServeClient(daemon.addr) as client:
        for jid, digest in load.digests.items():
            record = client.status(jid)
            ops.check(record["state"] == "completed"
                      and record["digest"] == digest,
                      f"restart lost {jid}: {record['state']}")


# -- the traced run ------------------------------------------------------------------

def _wrap_serve(recorder) -> None:
    """The fixed list of public callables the serve twin is timed at."""
    import repro.fabric.payload as payload
    import repro.serve.catalog as catalog
    import repro.serve.scheduler as scheduler
    import repro.serve.service as service
    from repro.fabric.controller import Supervisor
    from repro.fabric.wire import FrameSocket
    from repro.resilience.checkpoint import DiskStore
    from repro.serve.ledger import JobLedger
    from repro.serve.pool import WorkerPool
    from repro.serve.queue import JobQueue

    def hops_in(cmd) -> int:
        if cmd[0] == "run":
            return 1
        return len(cmd[2]) if cmd[0] == "runs" else 0

    def report_job(obj, *_a, **_k):
        """A decoded worker report ``("jr", jid, msg)`` names its job."""
        if isinstance(obj, tuple) and len(obj) == 3 and obj[0] == "jr" \
                and isinstance(obj[1], str):
            return "op:" + obj[1]
        return None

    w = recorder.wrap
    w(service.ServeService, "submit", "ServeService.submit",
      note=lambda result, *a, **k: "op:" + result["job"])
    w(service.ServeService, "status", "ServeService.status")
    w(catalog, "admission_verdict", "admission_verdict",
      note=lambda result, *a, **k: repr(a),
      aliases=[(service, "admission_verdict")])
    w(scheduler, "build_job_suite", "build_job_suite")
    w(JobLedger, "append", "JobLedger.append")
    w(JobQueue, "push", "JobQueue.push",
      note=lambda result, self, record: len(self))
    w(JobQueue, "take", "JobQueue.take")
    w(WorkerPool, "spawn", "WorkerPool.spawn")
    w(WorkerPool, "lease", "WorkerPool.lease")
    w(WorkerPool, "send", "WorkerPool.send",
      note=lambda result, self, wid, cmd: hops_in(cmd))
    w(WorkerPool, "ship", "WorkerPool.ship")
    w(payload, "encode", "payload.encode")
    w(payload, "decode", "payload.decode", note=report_job)
    w(FrameSocket, "send", "FrameSocket.send",
      note=lambda result, *a, **k: result)
    w(DiskStore, "save", "DiskStore.save")
    w(Supervisor, "journal", "Supervisor.journal")


def _twin_session(kind, ctx, counts, expected, tag) -> dict:
    from repro.serve import ServeClient

    twin = Twin(fresh_dir(kind, tag))
    try:
        twin.start()
        load = Load(twin.addr, ctx.ops, expected, ctx.yardstick)
        load.warm_up(job_specs(kind, WARMUP_JOBS, ctx.seed))
        phases = _phases(kind, load, counts, ctx.seed)
        load.close()
        wait_rtt = load.wait_rtt()
        with ServeClient(twin.addr) as client:
            for _ in range(50):
                status = client.status()
    finally:
        twin.stop()
    return {"load": load, "phases": phases, "wait_rtt": wait_rtt,
            "status": status, "state_dir": twin.state_dir}


def _run_traced(ctx) -> dict:
    from repro.resilience.checkpoint import DiskStore
    from repro.serve.catalog import admission_verdict

    kind = ctx.workload
    rec = ctx.recorder
    expected = _expected(kind)
    counts = _counts(kind, ctx.scale, traced=True)

    plain = _twin_session(kind, ctx, counts, expected, "twin-plain")
    _wrap_serve(rec)
    admission_verdict.cache_clear()    # the traced session pays it cold
    rec.enabled = True
    try:
        traced = _twin_session(kind, ctx, counts, expected, "twin-traced")
    finally:
        rec.enabled = False
        rec.unwrap_all()

    load, phases, status = traced["load"], traced["phases"], traced["status"]
    jobs = len(load.digests)
    measured = phases["open"] or phases["closed"]
    samples = measured["samples"]
    wait_rtt = median(traced["wait_rtt"])
    ledger = status["durability"]["ledger"]
    wal = os.path.join(traced["state_dir"], "wal")
    ckpt_dir = os.path.join(traced["state_dir"], "ckpt")
    seen, cold, hits = set(), [], []
    for wall, args in rec.records("admission_verdict"):
        (hits if args in seen else cold).append(wall)
        seen.add(args)
    self_ms = {name: median(vals) * 1e3
               for name, vals in rec.self_times().items()}

    # one fixed job for the drive probes (serve_data: navp-2d-pipeline),
    # whatever --seed says, so their exact counters repeat across seeds
    spec = job_specs(kind, 2, 0)[1]
    shape = shape_of(spec)
    cohosted = drive.drive_cores(*shape, n_hosts=1)
    folded = drive.drive_cores(*shape, n_hosts=spec["workers"])
    ctx.ops.check(folded["digest"] == expected[shape],
                  "in-process WorkerCore product differs from the sim's")
    codec = drive.payload_probe(folded["hops"])
    wire = drive.wire_probe(codec["largest"] if kind == "serve_data"
                            else None)
    ledger_drive = drive.ledger_probe(wal)
    gemm = drive.gemm_probe(spec["ab"])
    saves = rec.count("DiskStore.save")
    bundle = DiskStore(ckpt_dir).latest()    # a real cut bundle, if any
    ckpt = drive.checkpoint_probe(bundle) if bundle is not None else \
        {"save_ms": 0.0, "fsyncs_per_save": 0}
    sends = rec.notes("FrameSocket.send")

    layer = {
        "client.submit_rtt_ms": median(s.submit_rtt for s in samples) * 1e3,
        "client.wait_rtt_ms": wait_rtt * 1e3,
        "client.job_p99_ms": percentile(measured["latency"], 99) * 1e3,
        "client.late_p99_ms": (percentile(phases["open"]["late"], 99) * 1e3
                               if phases["open"] else 0.0),
        "service.submit_ms": self_ms.get("ServeService.submit", 0.0),
        "service.rejected": status["rejected"],
        "service.status_ms": rec.median_ms("ServeService.status"),
        "catalog.verdict_hit_us": median(hits) * 1e6 if hits else 0.0,
        "catalog.verdict_cold_ms": sum(cold) * 1e3,
        "catalog.build_suite_ms": rec.median_ms("build_job_suite"),
        "ledger.append_ms": rec.median_ms("JobLedger.append"),
        "ledger.fsync_ms": ledger_drive["fsync_ms"],
        "ledger.appends": ledger["appends"],
        "ledger.fsyncs": ledger["fsyncs"],
        "ledger.group_ratio": ledger["appends"] / max(1, ledger["fsyncs"]),
        "ledger.replay_ms": ledger_drive["replay_ms"],
        "ledger.bytes_per_job": tree_bytes(wal) / jobs,
        "queue.push_take_us": (rec.median_ms("JobQueue.push")
                               + rec.median_ms("JobQueue.take")) * 1e3,
        "queue.wait_ms":
            max(0.0, median(s.residual for s in samples) - wait_rtt) * 1e3,
        "queue.depth_max": max(rec.notes("JobQueue.push"), default=0),
        "pool.spawn_ms": rec.median_ms("WorkerPool.spawn"),
        "pool.lease_us": rec.median_ms("WorkerPool.lease") * 1e3,
        "pool.send_us": rec.median_ms("WorkerPool.send") * 1e3,
        "pool.ship_ms": rec.median_ms("WorkerPool.ship"),
        "scheduler.run_ms": median(s.run_s for s in samples) * 1e3,
        "scheduler.hops_per_job": sum(rec.notes("WorkerPool.send")) / jobs,
        "scheduler.ckpts_per_job": saves / jobs,
        "payload.encode_us": codec["encode_us"],
        "payload.decode_us": codec["decode_us"],
        "payload.bytes_per_hop": codec["bytes_per_hop"],
        "payload.oob_buffers_per_hop": codec["oob_buffers_per_hop"],
        "wire.small_rtt_us": wire["small_rtt_us"],
        "wire.large_mb_per_s": wire["large_mb_per_s"],
        "wire.frames_per_job": len(sends) / jobs,
        "wire.bytes_per_job": sum(sends) / jobs,
        "core.execute_ms_per_job": cohosted["wall_s"] * 1e3,
        "supervisor.journal_entries_per_job":
            rec.count("Supervisor.journal") / jobs,
        "interp.stmts_per_job": folded["dispatches"],
        "interp.ns_per_stmt":
            folded["interp_s"] / folded["dispatches"] * 1e9,
        "interp.snapshot_us": drive.snapshot_us(folded["hops"]),
        "kernels.calls_per_job": folded["kernel_calls"],
        "kernels.gemm_ms": gemm["gemm_ms"],
        "kernels.flops_per_job": folded["flops"],
        "kernels.gflops": gemm["gflops"],
        "checkpoint.save_ms": rec.median_ms("DiskStore.save"),
        "checkpoint.bytes_per_job": tree_bytes(ckpt_dir) / jobs,
        "checkpoint.saves_per_job": saves / jobs,
        "checkpoint.fsyncs_per_save": ckpt["fsyncs_per_save"],
        "trace_overhead_x":
            phases["closed"]["wall"] / plain["phases"]["closed"]["wall"],
    }
    # Where one job's latency goes: the four parts below are disjoint
    # and exhaustive by construction, so their medians should re-add to
    # the job median (the issue asks for >= 80 % on serve_ctl); the
    # submit round trip is further split into its daemon-side spans.
    p50 = median(measured["latency"]) * 1e3
    budget = {
        "client.submit_rtt_ms": layer["client.submit_rtt_ms"],
        "queue.wait_ms": layer["queue.wait_ms"],
        "scheduler.run_ms": layer["scheduler.run_ms"],
        "client.wait_rtt_ms": layer["client.wait_rtt_ms"],
    }
    extra = {
        "traced.job_p50_ms": p50,
        "traced.budget_ms": budget,
        "traced.accounted_share": sum(budget.values()) / p50,
        "traced.submit_rtt_split_ms": {
            "service.submit_ms (self)": layer["service.submit_ms"],
            "ledger.append_ms": layer["ledger.append_ms"],
            "catalog.verdict_hit_ms": layer["catalog.verdict_hit_us"] / 1e3,
            "queue.push_ms": rec.median_ms("JobQueue.push"),
            "wire.small_rtt_ms": layer["wire.small_rtt_us"] / 1e3,
        },
        "traced.jobs": jobs,
        "drive.ledger_append_ms": ledger_drive["append_ms"],
        "drive.checkpoint_save_ms": ckpt["save_ms"],
        "drive.replay_records": ledger_drive["replay_records"],
    }
    return {"layer": layer, "extra": extra}
