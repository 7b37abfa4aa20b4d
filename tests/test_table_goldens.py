"""Bit-exact pinning of every Table 1-4 model time.

The goldens in ``tests/goldens/table_times.json`` were recorded from
the engine before the fast-path overhaul (slotted DES core, immediate
event deque, coalesced Compute effects, interned shadow arrays). The
optimizations are only admissible because they are *identities* on the
simulated schedule: every virtual end time of every cell must stay
bit-for-bit equal (compared through ``float.hex`` so no tolerance can
hide a drift).

If a deliberate model change invalidates these numbers, re-record with::

    PYTHONPATH=src python tests/record_table_goldens.py
"""

import json
from pathlib import Path

import pytest

from repro.perfmodel import tables

GOLDEN_PATH = Path(__file__).parent / "goldens" / "table_times.json"

_BUILDERS = {
    "table1": tables.build_table1,
    "table2": tables.build_table2,
    "table3": tables.build_table3,
    "table4": tables.build_table4,
}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("table", sorted(_BUILDERS))
def test_table_times_bit_identical(table, goldens):
    recorded = goldens[table]
    comparison = _BUILDERS[table]()
    seen = {}
    for row in comparison.rows:
        prefix = f"n{row.n}/ab{row.ab}"
        seen[f"{prefix}/sequential"] = row.seq_model.hex()
        for variant, cell in row.cells.items():
            seen[f"{prefix}/{variant}"] = cell.model_time.hex()
    assert seen == recorded


def test_goldens_cover_all_tables(goldens):
    assert sorted(goldens) == sorted(_BUILDERS)
    # 98 cells were pinned at record time; a shrinking golden file means
    # someone regenerated it against a smaller sweep.
    assert sum(len(v) for v in goldens.values()) == 98


# -- the simulated event structure ------------------------------------------
# The goldens pin what each cell's clock reads; these pin *what was
# simulated* to get there. An engine change that spawns, batches or
# skips processes/effects moves one of them even if every time survives.

SWEEP_EVENTS = 127_755
SWEEP_HOPS = 10_480
SWEEP_COMPUTES = 10_692
SWEEP_BYTES = 20_230_278_208


def test_one_sweep_executes_the_pinned_number_of_des_events():
    from repro.fabric import desim

    before = desim.PERF_STATS["events"]
    for build in _BUILDERS.values():
        build()
    assert desim.PERF_STATS["events"] - before == SWEEP_EVENTS


def test_traced_twins_count_the_pinned_hops_computes_and_bytes():
    """Every cell again with ``trace=True`` (the sweep never traces)."""
    from repro.matmul.kinds import MatmulCase
    from repro.matmul.runner import run_variant
    from repro.perfmodel import paperdata

    hops = computes = nbytes = 0
    for paper in (paperdata.TABLE1, paperdata.TABLE2, paperdata.TABLE3,
                  paperdata.TABLE4):
        for row in paper.rows:
            case = MatmulCase(n=row.n, ab=row.ab, shadow=True)
            for variant in row.variants:
                trace = run_variant(variant, case, geometry=paper.geometry,
                                    trace=True).trace
                hops += len(trace.of_kind("hop"))
                computes += len(trace.of_kind("compute"))
                nbytes += trace.bytes_moved()
    assert (hops, computes, nbytes) == (SWEEP_HOPS, SWEEP_COMPUTES,
                                        SWEEP_BYTES)
