"""``repro serve`` — a persistent multi-tenant job service.

The distributed fabrics pay their whole world-construction cost on
every run: fork the workers, bind the sockets, say hello, ship the
programs. This package amortizes that cost the way a real cluster
does — a long-lived daemon keeps a *warm pool* of socket-fabric
worker processes and leases them to submitted jobs:

:mod:`~repro.serve.catalog`
    The program catalog — one source of truth for which paper programs
    are runnable as jobs, shared by the daemon's admission control,
    the submit client, ``repro variants --json`` and ``repro run``.

:mod:`~repro.serve.jobs` / :mod:`~repro.serve.queue`
    The job model (spec, record, lifecycle states) and the bounded
    FIFO-with-priorities admission queue with per-tenant caps.

:mod:`~repro.serve.worker` / :mod:`~repro.serve.pool`
    The pool worker process — a :class:`~repro.fabric.controller.
    WorkerCore` per leased job behind one persistent TCP connection,
    caching registered programs across jobs — and the controller-side
    pool bookkeeping (spawn, lease, respawn, resize, reap).

:mod:`~repro.serve.scheduler`
    One :class:`~repro.serve.scheduler.JobRun` thread per running job:
    the per-job resilient controller (credit gate, journal, quiescent
    checkpoints, respawn recovery) over leased pool workers.

:mod:`~repro.serve.ledger`
    The durable control plane: an append-only fsync'd JSONL
    write-ahead log of which jobs exist and how each ended (admitted,
    dispatched, done), one file every daemon session appends to, whose
    torn tail a boot drops and truncates — what lets a daemon
    restarted on the same ``--state-dir`` recover every job. A job's
    progress is its last cut bundle in the checkpoint store, one file
    per cut key, not a ledger record.

:mod:`~repro.serve.service` / :mod:`~repro.serve.client`
    The daemon (listener, dispatcher, failure monitor, control verbs)
    and the exactly-once client: auto-reconnect under per-request
    deadlines, idempotency-keyed submission.
"""

from .catalog import (IR_CATALOG, REJECT_STATUSES, admission_verdict,
                      build_job_suite, program_names)
from .client import ServeClient
from .jobs import (JOB_STATES, JobRecord, JobSpec, STATE_COMPLETED,
                   STATE_FAILED, STATE_PENDING, STATE_RUNNING)
from .ledger import JobLedger, LedgerReplay, replay_ledger
from .queue import JobQueue
from .service import ServeService

__all__ = [
    "IR_CATALOG",
    "REJECT_STATUSES",
    "admission_verdict",
    "build_job_suite",
    "program_names",
    "JobSpec",
    "JobRecord",
    "JobQueue",
    "JOB_STATES",
    "STATE_PENDING",
    "STATE_RUNNING",
    "STATE_COMPLETED",
    "STATE_FAILED",
    "JobLedger",
    "LedgerReplay",
    "replay_ledger",
    "ServeService",
    "ServeClient",
]
