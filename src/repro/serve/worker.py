"""The pool worker process: one warm WorkerCore host, many jobs.

A pool worker is the serve-mode sibling of the socket fabric's
``_sock_worker``: the same :class:`~repro.fabric.controller.WorkerCore`
execution engine behind the same
:class:`~repro.fabric.socket.WorkerSession` (dial, hello, control
reader, heartbeat, error forwarding), but the *process* outlives any
one job — this module adds only the job table. What stays warm across
jobs — the whole point of the pool — is the fork, the TCP connection +
handshake, the numpy import, and the cache of registered IR programs,
so a job lease costs a few small frames instead of world construction.

Commands are job-tagged: a ``("job", jid, ...)`` header creates a
fresh core for that job (node variables, event tables, dedup set —
nothing leaks between jobs or tenants) and seeds it with the job's
whole setup on this host (:func:`seed_job`): its PEs' blocks, generated
here from the header's ``(program, g, seed, ab)``, and the header's
initial signals. No ``load`` or ``signal0`` frame is ever sent, so a
leased worker, a replacement and a resumed job all start as a forked
fabric worker does. Every subsequent data-plane command carries the
jid. A command for any other jid is
dropped — after a job ends (or this worker is re-leased following a
controller-side failure), stale frames of the old job cannot touch
the new one. ``("register", programs)`` is deliberately *not*
job-tagged: the program registry is the worker-lifetime cache.

All hops route through the daemon (like socket resilient mode): the
per-job journal and credit gate live with the job's controller, so a
SIGKILLed worker's replacement replays exactly this job's traffic.
Credit is paid per hop as it is handed to the core — a frame is only
consumed when the core is idle, so the daemon-side window still
bounds this worker's backlog.
"""

from __future__ import annotations

from ..fabric.controller import WorkerCore
from ..fabric.socket import WorkerSession
from ..fabric.wire import FRAME_REPORT, send_or_drop
from ..navp import ir
from .catalog import job_loads

__all__ = ["pool_worker_main", "seed_job"]


def seed_job(core: WorkerCore, signals, program: str, g: int, seed: int,
             ab: int) -> None:
    """Seed a job's fresh core with everything its host holds before the
    first command — its PEs' blocks, generated where they live, and its
    initial ``signals`` ``(coord, name, args, count)`` — the way a
    forked fabric worker seeds from its image (:meth:`WorkerCore.seed`).
    The arguments are the tail of the job header."""
    core.seed([("load", coord, node_vars) for coord, node_vars in
               job_loads(program, g, seed, ab, list(core.node_vars)).items()]
              + [("signal0", initial) for initial in signals])


def pool_worker_main(wid, ctl_addr, heartbeat_s, backoff_seed, *, gen):
    """Entry point of one pool worker process."""
    current = {"jid": None, "core": None, "host": None}

    def tagged(msg):
        return ("jr", current["jid"], msg)

    session = WorkerSession(
        ctl_addr, gen, ("hello-worker", wid, None), heartbeat_s,
        backoff_seed,
        lambda text: tagged(("error", current["host"], text)))

    def emit_report(msg):
        # daemon gone: dropped, the main loop will see the eof
        send_or_drop(session.ctl, FRAME_REPORT, tagged(msg),
                     current["host"], op=msg[0], gen=session.gen)

    def emit_hop(dst_host, payload):
        emit_report(("hop", current["host"], dst_host, payload))

    with session:
        while True:
            core = current["core"]
            if core is not None and core.ready:
                core.step()
                continue
            cmd = session.inbox.get()
            op = cmd[0]
            if op == "stop" or op == "eof":
                break
            if op == "register":
                # worker-lifetime program cache — the daemon tracks what
                # it shipped here and skips re-sending across jobs
                for program in cmd[1]:
                    ir.register_program(program, replace=True)
                continue
            if op == "job":
                _, jid, host, coords, host_of, *setup = cmd
                current["jid"] = jid
                current["host"] = host
                current["core"] = WorkerCore(
                    host, [tuple(c) for c in coords], dict(host_of),
                    emit_hop, emit_report, dedup=True)
                seed_job(current["core"], *setup)
                continue
            # everything below is job-tagged: (op, jid, ...)
            if cmd[1] != current["jid"] or core is None:
                continue  # stale frame of a finished/abandoned job
            if op == "endjob":
                current["jid"] = current["core"] = current["host"] = None
                continue
            if op == "run" or op == "runs":
                for task in ([cmd[2]] if op == "run" else cmd[2]):
                    emit_report(("credit", current["host"]))
                    core.handle(("run", task))
            else:
                # ckpt / restore / collect: the core's own command
                # once the job tag is stripped
                core.handle((op,) + cmd[2:])
