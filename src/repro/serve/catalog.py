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
* **``ok`` is Freivalds' check** with ``n x 4`` job-seeded ``S`` and
  ``R``: ``SᵀCR`` against ``UV``, ``U = SᵀA`` and ``V = BR``, within
  :data:`FREIVALDS_RTOL`; O(n²) instead of re-doing the O(n³) product.
  :func:`product_ok` takes whole matrices. A served job's daemon never
  holds A or B: :func:`job_loads` also gives each PE the *check shares*
  of the blocks laid out on it (``S_iᵀ·A_ij``, ``B_ij·R_j``, under the
  reserved node variable :data:`CHECK_SHARES`, which no program reads
  or writes), and :func:`shares_ok` sums them into ``U`` and ``V``.
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

from ..errors import AdmissionError, VerificationError
from ..matmul import (build_fig11, build_fig13, build_fig15,
                      build_gentleman_ir)
from ..matmul.ir2d import antidiagonal_layout, matrix_blocks, natural_layout

__all__ = ["CatalogEntry", "IR_CATALOG", "REJECT_STATUSES",
           "DATA_VERSION", "FREIVALDS_RTOL", "CHECK_SHARES", "program_names",
           "get_entry", "job_block", "job_loads", "job_suite",
           "build_job_suite", "product_ok", "shares_ok",
           "admission_verdict"]

#: Version of the job data contract: what :func:`job_block` generates
#: for a ``(seed, matrix, i, j, ab)``. Bump it whenever those bytes
#: change; a replayed job admitted under another version is failed.
#: (Version 1, never stamped, was two whole ``random_matrix`` calls.)
DATA_VERSION = 2

#: Freivalds' acceptance bound, relative to the check's reference
#: ``UV = (SᵀA)(BR)``: ``|SᵀCR - UV| <= FREIVALDS_RTOL * |UV|``
#: (Frobenius norms of the 4 x 4 matrices). Rounding leaves ~1e-15
#: relative; one element of a 512 x 512 product off by 1e-4 exceeded it
#: on 200 of 200 seeds (off by 1e-5: 188 of 200).
FREIVALDS_RTOL = 1e-9

#: The reserved node variable a served job's check shares live in on
#: each PE: ``{(matrix, i, j): share}`` for the blocks laid out there.
#: No program reads or writes it, so a cut never carries it and a
#: respawned or resumed worker re-seeds it from the job header.
CHECK_SHARES = "_check_shares"

_MATRIX_STREAM = {"A": 0, "B": 1}
_FREIVALDS_STREAM = 2
_CHECK_COLUMNS = 4      # of S and R


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
    the blocks those PEs hold, plus each PE's :data:`CHECK_SHARES` —
    the check share of every block laid out on it, computed from the
    block just generated. A pool worker seeds itself with this from
    the job header."""
    rule = get_entry(program).layout
    s, r = _check_vectors(seed, g * ab)
    loads = {}
    for coord in coords:
        shares = {}

        def block(matrix, i, j, shares=shares):
            data = job_block(seed, matrix, i, j, ab)
            shares[matrix, i, j] = _share(matrix, i, j, data, s, r)
            return data

        loads[coord] = {**rule(block, g, ab, [coord])[coord],
                        CHECK_SHARES: shares}
    return loads


def job_suite(program: str, g: int):
    """The IR programs, entry and initial signals of a ``(program, g)``
    job, with an empty layout: all the daemon builds for a served job,
    whose workers generate their own blocks. The programs do not
    depend on the block size, so the builder lays out 1 x 1 zero
    blocks that are dropped at once."""
    entry = get_entry(program)
    if g < 2:
        raise AdmissionError(f"g must be >= 2 (got {g})")
    zeros = np.zeros((g, g))
    return replace(entry.builder(g, zeros, zeros), layout={})


def build_job_suite(program: str, g: int, seed: int, ab: int):
    """Build the IR suite plus its input matrices for one job shape.

    Deterministic in ``(program, g, seed, ab)`` and the same data a
    served job computes on: the layout is the program's rule over
    :func:`job_block` on every PE (the union of what the hosts'
    :func:`job_loads` give, less their check shares), and ``a`` and
    ``b`` are assembled from those blocks. So a client reproduces a
    served job's inputs — and its exact digest — offline with this and
    the sim fabric (cross-fabric runs are bit-identical). Returns
    ``(suite, a, b)``.
    """
    suite = job_suite(program, g)
    if ab < 1:
        raise AdmissionError(f"ab must be >= 1 (got {ab})")
    blocks = {key: job_block(seed, *key, ab) for key in _block_keys(g)}
    layout = get_entry(program).layout(lambda *key: blocks[key], g, ab)
    a, b = np.empty((g * ab, g * ab)), np.empty((g * ab, g * ab))
    whole = matrix_blocks(a, b, g)
    for key, block in blocks.items():
        whole(*key)[...] = block
    return replace(suite, layout=layout), a, b


def _block_keys(g: int) -> list:
    """``(matrix, i, j)`` of every block of A and B, in one fixed order."""
    return [(matrix, i, j) for matrix in _MATRIX_STREAM
            for i in range(g) for j in range(g)]


def _check_vectors(seed: int, n: int):
    """``S`` and ``R`` of a job's check: ``n x 4`` each, uniform in
    [-1, 1), from one generator keyed by ``(DATA_VERSION, seed,
    _FREIVALDS_STREAM)``."""
    sr = np.random.default_rng((DATA_VERSION, seed, _FREIVALDS_STREAM)
                               ).random((2, n, _CHECK_COLUMNS))
    sr *= 2.0
    sr -= 1.0
    return sr[0], sr[1]


def _share(matrix: str, i: int, j: int, block, s, r):
    """Block ``(i, j)``'s part of the check: ``S_iᵀ·A_ij`` (a 4 x ab
    column block of ``U = SᵀA``) or ``B_ij·R_j`` (an ab x 4 row block
    of ``V = BR``)."""
    ab = block.shape[0]
    if matrix == "A":
        return s[i * ab : (i + 1) * ab].T @ block
    return block @ r[j * ab : (j + 1) * ab]


def _verdict(s, c, r, u, v) -> bool:
    """Freivalds' test of ``c`` against ``U = SᵀA``, ``V = BR``."""
    want = u @ v
    return bool(np.linalg.norm(s.T @ c @ r - want)
                <= FREIVALDS_RTOL * np.linalg.norm(want))


def product_ok(a, b, c, seed: int) -> bool:
    """Is ``c`` the product of ``a`` and ``b``? Freivalds' check in
    O(n²) with the job-seeded ``n x 4`` ``S`` and ``R``: ``SᵀCR``
    against ``(SᵀA)(BR)``, within :data:`FREIVALDS_RTOL` — the
    whole-matrix case of :func:`shares_ok`, and the "result is
    correct" test of ``repro run --fabric``."""
    s, r = _check_vectors(seed, c.shape[0])
    return _verdict(s, c, r, s.T @ a, b @ r)


def shares_ok(c, places, g: int, seed: int) -> bool:
    """Is ``c`` the product of a served job's A and B? The check of
    :func:`product_ok`, with ``U`` and ``V`` summed from the check
    shares the hosts computed where the blocks live (``places`` is
    ``{coord: node vars}`` as collected, :data:`CHECK_SHARES` among
    them), so the daemon never holds A or B. Each block must have
    exactly one share: a missing or duplicated one is a
    :class:`VerificationError` naming the block, never a pass."""
    owner: dict = {}
    for coord in sorted(places):
        for key in places[coord].get(CHECK_SHARES, {}):
            if key in owner:
                raise VerificationError(
                    f"block {_block_name(key)} has a check share on PE "
                    f"{owner[key]} and on PE {coord}")
            owner[key] = coord
    n = c.shape[0]
    ab = n // g
    s, r = _check_vectors(seed, n)
    u = np.zeros((_CHECK_COLUMNS, n))
    v = np.zeros((n, _CHECK_COLUMNS))
    for key in _block_keys(g):
        if key not in owner:
            raise VerificationError(
                f"block {_block_name(key)} has no check share on any PE")
        matrix, i, j = key
        share = places[owner[key]][CHECK_SHARES][key]
        if matrix == "A":
            u[:, j * ab : (j + 1) * ab] += share
        else:
            v[i * ab : (i + 1) * ab] += share
    return _verdict(s, c, r, u, v)


def _block_name(key) -> str:
    matrix, i, j = key
    return f"{matrix}({i}, {j})"


@lru_cache(maxsize=64)
def admission_verdict(program: str, g: int, window: int | None = 32,
                      deadline_s: float = 10.0):
    """Cached static verdict for one (program, g) job shape.

    Builds the job's programs (:func:`job_suite`: the matrices'
    *values* never enter the protocol abstraction; only the event
    structure does) and model-checks the injection closure under the
    serve credit window.
    Returns the :class:`~repro.analysis.protocol_mc.ModelCheckResult`;
    the caller decides what to do with non-``REJECT_STATUSES``.
    """
    from ..analysis.protocol_mc import model_check

    suite = job_suite(program, g)
    return model_check(
        [(suite.entry.name, (0, 0), {})],
        registry={p.name: p for p in suite.programs},
        initial_signals=suite.initial_signals,
        window=window,
        deadline_s=deadline_s,
    )
