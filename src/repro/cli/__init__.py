"""Command-line interface: ``python -m repro <command>``.

MESSENGERS lets a programmer "inject a migrating thread at command
line"; this is the reproduction's equivalent front door — run any
variant on the modeled cluster, regenerate any of the paper's tables
or figures, plan a parallelization, or list what is available, without
writing a script.

Each command lives in its own module under :mod:`repro.cli`; a module
contributes a ``configure(sub)`` hook that registers its subparser(s)
and binds a handler. :func:`build_parser` and :func:`main` stay
importable from ``repro.cli`` exactly as before the split.

Commands
--------
``variants [--json]``              list runnable matmul variants;
                                   ``--json`` adds each variant's IR
                                   form, fabrics and serveability from
                                   the shared program catalog
``run VARIANT [--n --ab --geometry --real --fabric KIND]``
                                   run one variant; ``--real`` executes
                                   the numerics and verifies vs NumPy;
                                   ``--fabric thread|process|socket``
                                   executes the variant's IR form on a
                                   real substrate (up to worker
                                   processes behind TCP)
``table {1,2,3,4}``                regenerate a paper table
``figure1``                        regenerate the space-time panels
``staggering [--max-n N]``         the Section 5 phase-count comparison
``wavefront [--n --block --pes]``  the wavefront extension study
``plan TARGET [--machine PRESET --geometry N --emit-ir --json]``
                                   derive a parallelization plan: the
                                   affine analyses enumerate and gate
                                   the candidate transformations, the
                                   analytic model scores them on the
                                   machine preset, and the winner is
                                   validated bit-for-bit on SimFabric
                                   (see docs/analysis.md)
``lint [PROGRAMS...] [--all --json]``
                                   statically analyze registered IR
                                   programs (dependences, hop
                                   locality, unmatched waits;
                                   ``--races`` adds the static
                                   data-race analysis,
                                   ``--protocol-mc`` the protocol
                                   model checker, ``--loop VAR``
                                   the loop dependence vectors,
                                   ``--json`` a machine-readable
                                   report)
``fuzz-schedules [--seeds --smoke]``
                                   perturb simultaneous-event order:
                                   golden pipelines must stay
                                   bit-exact and the racy corpus must
                                   reproduce its predicted races
``faults [--plan --process --socket ...]``
                                   fault-injection demo: crashes and
                                   drops are masked by recovery and
                                   the virtual-time result stays
                                   bit-exact; ``--process`` SIGKILLs
                                   a real worker and recovers it;
                                   ``--socket`` does the same over TCP,
                                   detecting the kill by heartbeat
                                   loss (see docs/resilience.md)
``serve [--pool N --port P --addr-file PATH --chaos]``
                                   run the persistent multi-tenant job
                                   service: a warm pool of socket-
                                   fabric workers leased to submitted
                                   jobs, with admission control,
                                   tenant fairness and checkpoint/
                                   restart recovery (docs/serving.md)
``submit PROGRAM [--tenant --priority --wait --json ...]``
                                   submit one job to a running daemon
                                   (``--addr host:port`` or
                                   ``--addr-file PATH``)
``status [JOB] [--resize N --json]``
                                   daemon summary or one job record;
                                   ``--resize`` grows/shrinks the pool
``shutdown [--now]``               stop the daemon (draining running
                                   jobs unless ``--now``)

Exit codes
----------
Every command uses the same convention (``repro lint`` documents it as
its contract for CI drivers):

``0``  success — no errors (warnings allowed unless ``--strict``)
``1``  findings — lint errors, corpus misses, failed shape checks,
       or a plan whose validation failed
``2``  usage — unknown program/target names, missing arguments,
       ``run`` sizes that do not divide (``--n``, ``--ab``, ``--geometry``)
"""

from __future__ import annotations

import argparse
import sys

from . import (
    faults,
    fuzz,
    lint,
    plan,
    run,
    serve,
    staggering,
    status,
    submit,
    tables,
    variants,
    wavefront,
)

__all__ = ["main", "build_parser"]

# registration order == ``repro --help`` listing order
_MODULES = (variants, run, tables, staggering, wavefront, plan, lint,
            fuzz, faults, serve, submit, status)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Incremental Parallelization Using "
                    "Navigational Programming' (ICPP 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for module in _MODULES:
        module.configure(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
