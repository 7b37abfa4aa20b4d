"""A byte budget that repeats exactly: what one job puts on the wire.

Each catalog program runs once at g=2, ab=64 on two in-process
:class:`~repro.fabric.controller.WorkerCore` hosts, driven by the one
:class:`~repro.fabric.controller.Controller` configured the way
:class:`~repro.serve.scheduler.JobRun` configures it (supervised, so
every cross-host hop detours through the controller; ``collect`` asks
for ``C`` and the check shares, a cut every 8 forwards carries the
closure's :func:`~repro.fabric.controller.written_names`; no setup is
sent — each host seeds its own blocks, check shares and initial
signals with :func:`~repro.serve.worker.seed_job`, as a pool worker
does from its job header, so the ``load`` row is zero; the ``ckpt``
row is the cut replies). The :class:`CountingLink` between them is the
wire: every command and every report crosses the real payload codec,
is sized as the codec sizes it *when it is sent*, and arrives as a
decoded copy — an in-process link that passed references would size a
continuation after its receiver had gone on mutating the environment
they share.

No sockets, no processes, no clocks: the counts are a function of the
programs and the codec, so they are pinned in
``tests/goldens/bytes_budget.json`` and a change that makes a job ship
more (or less) has to say so by re-recording them::

    PYTHONPATH=src python tests/test_bytes_budget.py --print    # the table
    PYTHONPATH=src python tests/test_bytes_budget.py --record   # re-pin

``--print`` exits 1 when the table differs from the golden file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import deque
from pathlib import Path

import pytest

from repro.fabric import payload
from repro.fabric.controller import (Controller, Link, Supervisor,
                                     WorkerCore, written_names)
from repro.fabric.hosts import cyclic_hosts, resolve_hosts
from repro.fabric.topology import Grid2D
from repro.matmul.ir2d import assemble_product
from repro.resilience.recovery import RecoveryPolicy
from repro.serve import build_job_suite, program_names
from repro.serve.catalog import CHECK_SHARES
from repro.serve.worker import seed_job

G, AB, SEED, HOSTS = 2, 64, 3, 2
GOLDEN = Path(__file__).parent / "goldens" / "bytes_budget.json"
#: the rows pinned per program: commands sent / reports received
ROWS = ("load", "hop", "vars", "ckpt")


def cross(obj):
    """``(wire bytes, the copy that arrives)`` for one message."""
    frame, buffers = payload.encode(obj)
    return (payload.nbytes(frame, buffers),
            payload.decode(frame, [bytearray(b) for b in buffers]))


class CountingLink(Link):
    """In-process hosts behind the codec; ``sent``/``received`` map a
    command / report kind to ``[messages, bytes, largest message]``."""

    def __init__(self, host_of):
        self.sent: dict = {}
        self.received: dict = {}
        self.reports: deque = deque()
        self.inboxes = {h: deque() for h in sorted(set(host_of.values()))}
        self.cores = {
            h: WorkerCore(
                h, [c for c, at in host_of.items() if at == h], host_of,
                lambda dst, task, h=h: self._report(("hop", h, dst, task)),
                self._report, dedup=True)
            for h in self.inboxes}

    @staticmethod
    def _count(tally, kind, nbytes):
        row = tally.setdefault(kind, [0, 0, 0])
        row[0] += 1
        row[1] += nbytes
        row[2] = max(row[2], nbytes)

    def _report(self, msg):
        nbytes, arrived = cross(msg)
        self._count(self.received, msg[0], nbytes)
        self.reports.append(arrived)

    def send(self, host, cmd):
        nbytes, arrived = cross(cmd)
        self._count(self.sent, cmd[0], nbytes)
        self.inboxes[host].append(arrived)

    def receive(self, timeout):
        for host, core in self.cores.items():
            inbox = self.inboxes[host]
            while core.ready or inbox:
                if core.ready:
                    core.step()
                    continue
                cmd = inbox.popleft()
                if cmd[0] not in ("run", "runs"):
                    core.handle(cmd)
                    continue
                for task in [cmd[1]] if cmd[0] == "run" else cmd[1]:
                    core.emit_report(("credit", host))
                    core.handle(("run", task))
        return self.reports.popleft() if self.reports else None


def drive(program: str):
    """One job of ``program``; returns ``(link, digest)``."""
    suite, _a, _b = build_job_suite(program, G, SEED, AB)
    topology = Grid2D(G)
    host_of = resolve_hosts(topology, cyclic_hosts(topology, HOSTS))
    link = CountingLink(host_of)
    for h, core in link.cores.items():
        seed_job(core, [s for s in suite.initial_signals
                        if host_of[s[0]] == h], program, G, SEED, AB)
    places = Controller(
        link, f"budget {program}", HOSTS, host_of, 10.0,
        sup=Supervisor(RecoveryPolicy(), 0), window=32, coalesce=8,
        checkpoint_every=8, collect=("C", CHECK_SHARES),
        cut=written_names(suite.programs),
    ).run([("m0", (0, 0), suite.entry.name, {})])
    c = assemble_product(suite, places)
    return link, hashlib.sha256(c.tobytes()).hexdigest()


def budget(program: str) -> dict:
    link, _digest = drive(program)
    tallies = {"load": link.sent, "hop": link.received,
               "vars": link.received, "ckpt": link.received}
    return {row: dict(zip(("messages", "bytes", "largest"),
                          tallies[row].get(row, (0, 0, 0))))
            for row in ROWS}


def table() -> dict:
    return {program: budget(program) for program in program_names()}


def render(rows: dict) -> str:
    lines = [f"{'program':18}" + "".join(
        f"{row + ' msgs':>11}{'bytes':>9}{'largest':>9}" for row in ROWS)]
    for program, cells in rows.items():
        lines.append(f"{program:18}" + "".join(
            f"{cells[row]['messages']:>11}{cells[row]['bytes']:>9}"
            f"{cells[row]['largest']:>9}" for row in ROWS))
    return "\n".join(lines)


@pytest.mark.parametrize("program", program_names())
def test_a_job_ships_its_pinned_bytes(program):
    pinned = json.loads(GOLDEN.read_text())["programs"][program]
    assert budget(program) == pinned, (
        f"{program} g={G} ab={AB}: bytes per job moved; if intended, "
        f"re-record with `python tests/test_bytes_budget.py --record`")


@pytest.mark.parametrize("program", program_names())
def test_the_vars_reply_is_the_c_blocks_and_a_hop_is_one_block(program):
    """Independent of the golden file: a ``vars`` reply carries the
    ``C`` blocks of its host's PEs and, beside the check shares (4 x
    ``AB`` each, one per block of A and B), nothing else of their size,
    and a continuation carries one block (Figure 11's row carrier: its
    one row of ``G``) — never a spent kernel result on top."""
    block = AB * AB * 8
    shares = 2 * G * G * 4 * AB * 8
    carried = G if program == "navp-2d-dsc" else 1
    link, _digest = drive(program)
    replies, nbytes, largest = link.received["vars"]
    assert replies == HOSTS
    per_host = G * G // HOSTS
    assert per_host * block < nbytes / replies <= largest
    assert largest < per_host * block + shares + 512
    assert link.received["hop"][2] < carried * block + 512


def test_the_counted_drive_is_bit_identical_to_the_sim_fabric():
    """The counting rig runs the real thing: same product bits."""
    from repro.matmul import run_ir2d_suite

    for program in program_names():
        suite, _a, _b = build_job_suite(program, G, SEED, AB)
        c, _result = run_ir2d_suite(suite, "sim")
        assert drive(program)[1] == hashlib.sha256(
            c.tobytes()).hexdigest(), program


if __name__ == "__main__":
    if sys.argv[1:] not in (["--print"], ["--record"]):
        sys.exit(__doc__)
    rows = table()
    print(f"bytes per job, g={G} ab={AB} on {HOSTS} hosts "
          f"(payload codec sizes at send time)")
    print(render(rows))
    if sys.argv[1] == "--record":
        import numpy

        GOLDEN.write_text(json.dumps(
            {"shape": {"g": G, "ab": AB, "seed": SEED, "hosts": HOSTS},
             # pickle's framing of an ndarray belongs to numpy: a count
             # that moves with nothing but the interpreter is this
             "recorded_with": {"numpy": numpy.__version__,
                               "python": sys.version.split()[0]},
             "programs": rows}, indent=1) + "\n")
        print(f"recorded {GOLDEN}")
    elif rows != (golden := json.loads(GOLDEN.read_text()))["programs"]:
        sys.exit(f"MISMATCH against {GOLDEN} "
                 f"(recorded with {golden['recorded_with']})")
