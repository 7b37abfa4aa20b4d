"""The headline resilience guarantee: every pinned table time stays
bit-exact while faults are being injected and repaired underneath.

This runs the same four table builders as ``test_table_goldens.py``,
but inside an ambient ``injected(...)`` context whose plan crashes a
node and drops hops in every fabric the builders construct. With
recovery enabled the faults are *masked*: they fire (asserted via the
counts the ``injected`` scope yields) yet no golden cell moves by a
single bit.
"""

import json
from pathlib import Path

import pytest

from repro.perfmodel import tables
from repro.resilience import Crash, FaultPlan, MessageFault, injected

GOLDEN_PATH = Path(__file__).parent / "goldens" / "table_times.json"

_BUILDERS = {
    "table1": tables.build_table1,
    "table2": tables.build_table2,
    "table3": tables.build_table3,
    "table4": tables.build_table4,
}

# every simulated run loses its 2nd and 5th cross-host hop and has
# place 1 crash after two forwarded hops — all repaired under the hood
_PLAN = FaultPlan(
    faults=(
        MessageFault(action="drop", kind="hop", every=3),
        Crash(place=1, at_hop=2),
    ),
    name="goldens-under-fire",
)


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("table", sorted(_BUILDERS))
def test_table_times_bit_identical_under_faults(table, goldens):
    recorded = goldens[table]
    with injected(_PLAN, recovery=True) as counts:
        comparison = _BUILDERS[table]()
    assert counts["fired"] > 0, "plan never fired — injection not reaching " \
        "the builders' fabrics"
    assert counts["lost"] == 0
    seen = {}
    for row in comparison.rows:
        prefix = f"n{row.n}/ab{row.ab}"
        seen[f"{prefix}/sequential"] = row.seq_model.hex()
        for variant, cell in row.cells.items():
            seen[f"{prefix}/{variant}"] = cell.model_time.hex()
    assert seen == recorded
