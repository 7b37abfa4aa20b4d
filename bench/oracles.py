"""Correctness oracles of the benchmark.

* Job digests are regenerated on every run from the sim fabric (runs
  are bit-identical across fabrics, so the simulator's product is the
  expected digest of the same job on the serve daemon).
* Table cells are checked against ``tests/goldens/table_times.json``,
  which is read, never written.
* Admission verdicts, plan winners and lint outcomes are pinned as data
  in ``bench/oracles.json``.
"""

from __future__ import annotations

import hashlib
import json
import os

from harness import BENCH_DIR, REPO_ROOT

GOLDEN_TABLES = os.path.join(REPO_ROOT, "tests", "goldens",
                             "table_times.json")


def pinned() -> dict:
    with open(os.path.join(BENCH_DIR, "oracles.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def sim_product(program: str, g: int, seed: int, ab: int):
    """The job's product on the sim fabric."""
    from repro.matmul import run_ir2d_suite
    from repro.serve import build_job_suite

    suite, _a, _b = build_job_suite(program, g, seed, ab)
    c, _result = run_ir2d_suite(suite, "sim")
    return c


def expected_digests(shapes) -> dict:
    """``(program, g, seed, ab) -> sha256`` for every distinct job shape
    a workload submits, generated from the sim fabric."""
    return {
        shape: hashlib.sha256(sim_product(*shape).tobytes()).hexdigest()
        for shape in set(shapes)
    }


def golden_cells() -> dict:
    """``table -> {cell key -> float.hex}`` as recorded by the tests."""
    with open(GOLDEN_TABLES, encoding="utf-8") as fh:
        return json.load(fh)


def table_cells(comparison) -> dict:
    """One built table in the goldens' key scheme."""
    cells = {}
    for row in comparison.rows:
        prefix = f"n{row.n}/ab{row.ab}"
        cells[f"{prefix}/sequential"] = row.seq_model.hex()
        for variant, cell in row.cells.items():
            cells[f"{prefix}/{variant}"] = cell.model_time.hex()
    return cells
