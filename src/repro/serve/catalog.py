"""The program catalog: which paper programs are runnable as jobs.

One table maps the public matmul variant names to their navigational-IR
suite builders. Everything that needs to agree on "what can run on a
distributed fabric" reads this table — the serve daemon's admission
control, the submit client's error messages, ``repro variants --json``
and ``repro run --fabric`` — so a program added here becomes runnable
everywhere at once.

It is also the single source of a job's *data*. The contract:

* **Per-block generation.** Block ``(i, j)`` of matrix A or B of a
  ``(program, g, seed, ab)`` job is :func:`job_block`: one
  ``numpy.random.Generator`` call seeded by ``(DATA_VERSION, seed,
  matrix, i, j)``, uniform in [-1, 1). :func:`job_loads` lays out the
  blocks of any subset of PEs with the program's layout rule
  (:mod:`repro.matmul.ir2d`), so a pool worker builds its own PEs'
  node variables from the job header and no input crosses the wire.
* **Version stamp.** :data:`DATA_VERSION` names this generator. Each
  ``admitted`` ledger record carries it, and a daemon never runs a
  replayed job admitted under another version on its own data.
* **``ok`` is Freivalds' check** (:func:`product_ok`): ``C·r`` against
  ``A·(B·r)`` for a job-seeded ``r``, within :data:`FREIVALDS_RTOL`;
  O(n²) instead of re-doing the O(n³) product.
* **The digest is exact**: sha256 of the assembled ``C`` bytes. Runs
  are bit-identical across fabrics, so :func:`build_job_suite` plus the
  sim fabric reproduces a served job's digest offline.

Admission also consults the static protocol model checker
(:mod:`repro.analysis.protocol_mc`): a submission whose (program, g)
pair is *provably* going to deadlock — e.g. the Figure 15 phased
program at g=3, whose genuine protocol deadlock the checker found — is
rejected with the verdict instead of burning a worker lease on a
timeout. Verdicts are cached per (program, g, window): the checker
explores the same state space for every job of that shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..errors import AdmissionError
from ..matmul import (build_fig11, build_fig13, build_fig15,
                      build_gentleman_ir)
from ..matmul.ir2d import antidiagonal_layout, matrix_blocks, natural_layout

__all__ = ["CatalogEntry", "IR_CATALOG", "REJECT_STATUSES",
           "DATA_VERSION", "FREIVALDS_RTOL", "program_names", "get_entry",
           "job_block", "job_loads", "build_job_suite", "product_ok",
           "admission_verdict"]

#: Version of the job data contract: what :func:`job_block` generates
#: for a ``(seed, matrix, i, j, ab)``. Bump it whenever those bytes
#: change; a replayed job admitted under another version is failed.
#: (Version 1, never stamped, was two whole ``random_matrix`` calls.)
DATA_VERSION = 2

#: Freivalds' acceptance bound: ``|C·r - A·(B·r)| <= FREIVALDS_RTOL *
#: |A·(B·r)|`` (2-norms). Rounding leaves ~1e-15 relative; one element
#: of a 512 x 512 product off by 1.0 moves it by ~1e-4.
FREIVALDS_RTOL = 1e-9

_MATRIX_STREAM = {"A": 0, "B": 1}
_FREIVALDS_STREAM = 2


@dataclass(frozen=True)
class CatalogEntry:
    """One runnable program: its builder plus catalog metadata."""

    program: str        # public name (== the matmul variant name)
    figure: str         # where the protocol is printed in the paper
    builder: object     # (g, a, b) -> IR2DSuite, registers programs
    layout: object      # the builder's ir2d layout rule
    description: str


IR_CATALOG = {
    "navp-2d-dsc": CatalogEntry(
        "navp-2d-dsc", "Figure 11", build_fig11, antidiagonal_layout,
        "2-D distribute-scatter-compute; row/column carriers with a "
        "one-shot EP event"),
    "navp-2d-pipeline": CatalogEntry(
        "navp-2d-pipeline", "Figure 13", build_fig13, antidiagonal_layout,
        "2-D pipelined; A/B carriers per k with the EP/EC slot "
        "handshake"),
    "navp-2d-phase": CatalogEntry(
        "navp-2d-phase", "Figure 15", build_fig15, natural_layout,
        "2-D phased, natural layout; rotated schedules stagger "
        "implicitly"),
    "mpi-gentleman": CatalogEntry(
        "mpi-gentleman", "Gentleman's algorithm", build_gentleman_ir,
        natural_layout,
        "Cannon-style shifts restated as navigational carriers"),
}

#: Model-checker statuses that prove a run cannot complete — admission
#: rejects these up front. INCONCLUSIVE/UNSUPPORTED admit: absence of a
#: proof is not a proof of absence, and the runtime still has its own
#: timeout.
REJECT_STATUSES = frozenset({"DEADLOCK", "CREDIT-DEADLOCK", "ORPHANS"})


def program_names() -> tuple:
    return tuple(sorted(IR_CATALOG))


def get_entry(program: str) -> CatalogEntry:
    entry = IR_CATALOG.get(program)
    if entry is None:
        raise AdmissionError(
            f"unknown program {program!r}; runnable programs: "
            f"{', '.join(program_names())}")
    return entry


def job_block(seed: int, matrix: str, i: int, j: int, ab: int):
    """Block ``(i, j)`` of the job's ``matrix`` (``"A"`` or ``"B"``): a
    fresh C-contiguous ``ab x ab`` float64 array, uniform in [-1, 1),
    from one generator call keyed by ``(DATA_VERSION, seed, matrix, i,
    j)`` — no block depends on any other, so each is born where it
    lives."""
    block = np.random.default_rng(
        (DATA_VERSION, seed, _MATRIX_STREAM[matrix], i, j)).random((ab, ab))
    block *= 2.0
    block -= 1.0
    return block


def job_loads(program: str, g: int, seed: int, ab: int, coords) -> dict:
    """``{coord: node vars}`` for exactly the PEs ``coords`` of one job:
    the program's layout rule over :func:`job_block`, generating only
    the blocks those PEs hold. A pool worker seeds itself with this
    from the job header."""
    return get_entry(program).layout(
        lambda matrix, i, j: job_block(seed, matrix, i, j, ab),
        g, ab, coords)


def build_job_suite(program: str, g: int, seed: int, ab: int):
    """Build the IR suite plus its input matrices for one job shape.

    Deterministic in ``(program, g, seed, ab)`` and the same data a
    served job computes on: the layout is the program's rule over
    :func:`job_block` on every PE (the union of what the hosts'
    :func:`job_loads` give), and ``a`` and ``b`` are assembled from
    those blocks. So a client reproduces a served job's inputs — and
    its exact digest — offline with this and the sim fabric
    (cross-fabric runs are bit-identical). Returns ``(suite, a, b)``.
    """
    entry = get_entry(program)
    if g < 2:
        raise AdmissionError(f"g must be >= 2 (got {g})")
    if ab < 1:
        raise AdmissionError(f"ab must be >= 1 (got {ab})")
    blocks = {(matrix, i, j): job_block(seed, matrix, i, j, ab)
              for matrix in _MATRIX_STREAM
              for i in range(g) for j in range(g)}
    layout = entry.layout(lambda *key: blocks[key], g, ab)
    a, b = np.empty((g * ab, g * ab)), np.empty((g * ab, g * ab))
    whole = matrix_blocks(a, b, g)
    for key, block in blocks.items():
        whole(*key)[...] = block
    return replace(entry.builder(g, a, b), layout=layout), a, b


def product_ok(a, b, c, seed: int) -> bool:
    """Is ``c`` the product of ``a`` and ``b``? Freivalds' check in
    O(n²): ``C·r`` against ``A·(B·r)`` for ``r`` uniform in [-1, 1) from
    a generator seeded by the job, within :data:`FREIVALDS_RTOL`. The
    one "result is correct" test of a served job and of ``repro run
    --fabric``."""
    r = np.random.default_rng((DATA_VERSION, seed, _FREIVALDS_STREAM)
                              ).random(c.shape[1]) * 2.0 - 1.0
    want = a @ (b @ r)
    return bool(np.linalg.norm(c @ r - want)
                <= FREIVALDS_RTOL * np.linalg.norm(want))


@lru_cache(maxsize=64)
def admission_verdict(program: str, g: int, window: int | None = 32,
                      deadline_s: float = 10.0):
    """Cached static verdict for one (program, g) job shape.

    Builds a throwaway suite (the matrices' *values* never enter the
    protocol abstraction; only the event structure does) and
    model-checks the injection closure under the serve credit window.
    Returns the :class:`~repro.analysis.protocol_mc.ModelCheckResult`;
    the caller decides what to do with non-``REJECT_STATUSES``.
    """
    from ..analysis.protocol_mc import model_check

    suite, _a, _b = build_job_suite(program, g, seed=0, ab=1)
    return model_check(
        [(suite.entry.name, (0, 0), {})],
        registry={p.name: p for p in suite.programs},
        initial_signals=suite.initial_signals,
        window=window,
        deadline_s=deadline_s,
    )
