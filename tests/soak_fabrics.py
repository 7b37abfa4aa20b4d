"""Soak: many one-shot fabric runs in one process, on a busy machine.

A script, not a tier-1 test (pytest does not collect it)::

    PYTHONPATH=src python -X dev -X faulthandler tests/soak_fabrics.py

Each of 25 rounds runs ``navp-2d-pipeline`` g=3 ab=128 folded onto 2
hosts on the benchmark's five configurations (thread, process, process
+ checkpoints, socket, socket + checkpoints) and on ``process`` and
``socket`` + checkpoints with one worker SIGKILLed mid-run (a different
host and hop every round, so ``replace()`` forks a worker from the
setup in the fork image with reader threads alive), each of those two
fabric objects run twice, then ``build_fig11(2)`` on ``"process"`` with
one host per PE — the shape whose first hop used to overtake the loads,
before the setup was in the fork image — all while two busy-loop
children keep both cores contended: ten runs a round. Every fifth round
adds an eleventh: ``socket`` + checkpoints with one worker SIGSTOPped
mid-run — alive and silent, so only its heartbeat detector condemns it,
and the worker set must kill and reap it, not leak it — which puts a
worker condemned while still alive under the surviving-child, thread
and descriptor checks below. The cyclic collector is off during the
rounds (one ``gc.collect()`` closes each).
It exits 1 on any exception, a product not bit-equal to the sim
fabric's, a run whose restarts are not exactly the one its crash
caused, a fabric still alive after its runs (it must die by reference
counting), a worker process that survived its run, a thread count above
the starting one, open file descriptors above the first round's, or
resident memory still climbing by more than 1 MB per run once the
allocator is warm. Five bugs would each have tripped it: the listener
thread that pinned every ``SocketFabric`` (+5–10 MB and +1 thread per
run), the plain-mode load/hop race on ``ProcessFabric`` (1 run in 15
under load), a recursive closure that kept every process and socket
fabric alive until a full collection, a supervisor that outlived its
run (a second run restored the first one's cuts, or spent its respawn
budget), and any teardown that forgets a child or a socket. It is the
seed of ROADMAP item 1's soak rig, not all of it.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import signal
import sys
import threading
import time
import weakref

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # fork after BLAS init

import numpy as np

from repro.fabric.factory import make_fabric
from repro.fabric.hosts import cyclic_hosts
from repro.fabric.topology import Grid2D
from repro.matmul.ir2d import build_fig11, run_ir2d_suite
from repro.navp.interp import IRMessenger
from repro.resilience.faults import Crash, FaultPlan
from repro.serve import build_job_suite
from repro.util.validation import random_matrix

ROUNDS, WARM_ROUNDS, BUDGET_MB_PER_RUN = 25, 8, 1.0
CONFIGS = [("thread", {}), ("process", {}),
           ("process", {"checkpoint_every": 8}), ("socket", {}),
           ("socket", {"checkpoint_every": 8})]
HOPS = 24   # cross-host hops of one run: every crash below comes due


def _crashing(r: int) -> list:
    """Round ``r``'s recovery configs: host ``r % 2`` SIGKILLed at a
    hop that walks the whole run over the rounds, on both fabrics."""
    plan = FaultPlan([Crash(r % 2, at_hop=1 + 7 * r % (HOPS - 1))])
    return [(kind, {"checkpoint_every": 8, "faults": plan})
            for kind in ("process", "socket")]


def _stopping(r: int) -> list:
    """Every fifth round's extra config: host ``r % 2`` SIGSTOPped at
    the ``1 + r % 7``-th hop the controller forwards to it."""
    if r % 5:
        return []
    return [("socket", {"checkpoint_every": 8, "stop": (r % 2, 1 + r % 7)})]


def _stop_at(fabric, victim, nth, stopped) -> None:
    """SIGSTOP ``victim``'s worker as the ``nth`` hop is sent to it;
    its pid goes to ``stopped``."""
    send, sent = fabric.send, [0]

    def sending(host, cmd):
        if host == victim and cmd[0] in ("run", "runs") and not stopped:
            sent[0] += 1
            if sent[0] == nth:
                stopped.append(fabric.workers.slots[victim].proc.pid)
                os.kill(stopped[0], signal.SIGSTOP)
        send(host, cmd)

    fabric.send = sending


def _spin() -> None:
    while True:
        pass


def _rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS in /proc/self/status")


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _pipeline(kind, options, seed, runs=1):
    """``runs`` benchmark-shaped runs of one fabric object; returns
    ``[(product, restarts per host), ...]``, one per run, and a weak
    reference to the fabric. A ``stop`` option ``(host, nth)`` SIGSTOPs
    that host's worker mid-run instead of configuring the fabric."""
    suite, _a, _b = build_job_suite("navp-2d-pipeline", 3, seed, 128)
    topology = Grid2D(3)
    options = dict(options)
    stop = options.pop("stop", None)
    fabric = make_fabric(kind, topology, trace=False,
                         hosts=cyclic_hosts(topology, 2), **options)
    for coord, node_vars in suite.layout.items():
        fabric.load(coord, **node_vars)
    for coord, event, args, count in suite.initial_signals:
        fabric.signal_initial(coord, event, *args, count=count)
    fabric.inject((0, 0), IRMessenger(suite.entry.name))
    stopped: list = []
    if stop is not None:
        _stop_at(fabric, *stop, stopped)
    results = []
    try:
        for _ in range(runs):
            places = fabric.run().places
            c = np.empty((3 * 128, 3 * 128))
            for (i, j), node_vars in places.items():
                c[i * 128:(i + 1) * 128, j * 128:(j + 1) * 128] = \
                    node_vars["C"]
            results.append((c, dict(getattr(fabric, "restarts", {}))))
    except BaseException:
        for pid in stopped:     # a failed run must not leave it stopped
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        raise
    finally:
        fabric.__dict__.pop("send", None)   # the wrapper's cycle
    if stop is not None and not stopped:
        raise RuntimeError(f"host {stop[0]} never got hop {stop[1]}")
    return results, weakref.ref(fabric)


def main() -> int:
    burners = [mp.get_context("fork").Process(target=_spin, daemon=True)
               for _ in range(2)]
    for burner in burners:
        burner.start()
    failures = []
    try:
        references = {seed: _pipeline("sim", {}, seed)[0][0][0]
                      for seed in range(4)}
        a, b = random_matrix(16, 1), random_matrix(16, 2)
        fig11_ref, _res = run_ir2d_suite(build_fig11(2, a, b), "sim")
        threads = threading.active_count()
        rss, fds = [], []
        t0 = time.monotonic()
        gc.disable()    # a fabric must die by reference counting alone
        n_runs = 0
        for r in range(ROUNDS):
            for kind, options in CONFIGS + _crashing(r) + _stopping(r):
                # a crashing fabric object runs twice: the second run
                # must inherit nothing of the first one's recovery
                crashing = "faults" in options or "stop" in options
                results, ref = _pipeline(
                    kind, options, r % 4,
                    runs=2 if "faults" in options else 1)
                n_runs += len(results)
                for n, (c, restarts) in enumerate(results, 1):
                    if not np.array_equal(c, references[r % 4]):
                        failures.append(f"round {r}: {kind} {options} run "
                                        f"{n}: product differs from the "
                                        f"sim fabric's")
                    if restarts != ({r % 2: 1} if crashing else {}):
                        failures.append(f"round {r}: {kind} {options} run "
                                        f"{n}: restarts {restarts}")
                if ref() is not None:
                    failures.append(f"round {r}: {kind} {options} fabric "
                                    f"outlived its run")
            c, _res = run_ir2d_suite(build_fig11(2, a, b), "process")
            n_runs += 1
            if not np.array_equal(c, fig11_ref):
                failures.append(f"round {r}: fig11 on process differs")
            strays = [p for p in mp.active_children() if p not in burners]
            if strays:
                failures.append(f"round {r}: surviving children "
                                f"{[p.name for p in strays]}")
            for stray in strays:    # stopped, it would hang the exit
                stray.kill()
                stray.join(timeout=5.0)
            gc.collect()
            rss.append(_rss_mb())
            fds.append(_open_fds())
        runs = n_runs / ROUNDS
        if threading.active_count() > threads:
            names = [t.name for t in threading.enumerate()]
            failures.append(f"{len(names)} threads, started with "
                            f"{threads}: {names[:8]} ...")
        if max(fds) > fds[0]:
            failures.append(f"open descriptors climb: {fds}")
        slope = np.polyfit(range(ROUNDS - WARM_ROUNDS),
                           rss[WARM_ROUNDS:], 1)[0] / runs
        if slope > BUDGET_MB_PER_RUN:
            failures.append(f"resident memory climbs {slope:.2f} MB/run "
                            f"(rounds {WARM_ROUNDS}..{ROUNDS}: "
                            f"{[round(x) for x in rss[WARM_ROUNDS:]]})")
        print(f"soak: {ROUNDS} rounds, {n_runs} runs in "
              f"{time.monotonic() - t0:.0f} s, RSS {rss[0]:.0f} -> "
              f"{rss[-1]:.0f} MB ({slope:+.2f} MB/run warm), "
              f"{threading.active_count()} thread(s), "
              f"{fds[0]} -> {fds[-1]} fds, "
              f"{len(failures)} failure(s)")
    finally:
        gc.enable()
        for burner in burners:
            burner.terminate()
        for burner in burners:
            burner.join(timeout=5.0)
    for failure in failures:
        print("FAIL:", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
