"""A served job's data contract (:mod:`repro.serve.catalog`).

* Blocks are born where they live: the hosts' ``job_loads`` are, bit for
  bit, the layout ``build_job_suite`` gives the sim oracle, and no
  setup — ``load`` or ``signal0`` — frame crosses the pool wire.
* ``ok`` is Freivalds' check: it accepts every served product and
  rejects swapped blocks, a missing k-term and one element off by 1.0.
* The digest stays exact: served digests equal the sim digests.
* A ledger replayed across a data-version change never runs an old
  job on new data.
"""

import json

import numpy as np
import pytest

from repro.fabric.hosts import cyclic_hosts, resolve_hosts
from repro.fabric.topology import Grid2D
from repro.matmul import run_ir2d_suite
from repro.serve import (JobLedger, ServeClient, build_job_suite,
                         program_names, replay_ledger)
from repro.serve.catalog import (DATA_VERSION, IR_CATALOG, job_block,
                                 job_loads, product_ok)
from repro.serve.pool import WorkerPool
from tests.test_serve_ledger import _adm, _done, durable_serving
from tests.test_serve_service import _sim_digest, serving

AB = 4


def _same(x, y, contiguous=True) -> bool:
    """Node variables equal bit for bit (and, with ``contiguous``, every
    block C-contiguous on both sides)."""
    if isinstance(x, dict):
        return (isinstance(y, dict) and x.keys() == y.keys()
                and all(_same(x[k], y[k], contiguous) for k in x))
    if contiguous and not (x.flags.c_contiguous and y.flags.c_contiguous):
        return False
    return (x.dtype == y.dtype and x.shape == y.shape
            and np.ascontiguousarray(x).tobytes()
            == np.ascontiguousarray(y).tobytes())


class TestLoads:
    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("program", program_names())
    def test_the_hosts_generate_exactly_the_suite_layout(self, program, g):
        """Under every lease width, the union of what each host
        generates for its own PEs is the layout the sim oracle runs."""
        suite, _a, _b = build_job_suite(program, g, 7, AB)
        topology = Grid2D(g)
        for width in range(1, g * g + 1):
            host_of = resolve_hosts(topology, cyclic_hosts(topology, width))
            union = {}
            for h in range(width):
                mine = [c for c in topology.coords if host_of[c] == h]
                loads = job_loads(program, g, 7, AB, mine)
                assert set(loads) == set(mine)
                union.update(loads)
            assert union.keys() == suite.layout.keys()
            for coord, node_vars in union.items():
                assert _same(node_vars, suite.layout[coord]), (width, coord)

    @pytest.mark.parametrize("program", program_names())
    def test_the_catalog_names_the_builders_own_layout_rule(self, program):
        """The builder, given the assembled matrices, places the same
        values where the catalog's rule does."""
        suite, a, b = build_job_suite(program, 3, 7, AB)
        own = IR_CATALOG[program].builder(3, a, b).layout
        assert own.keys() == suite.layout.keys()
        for coord, node_vars in own.items():
            assert _same(node_vars, suite.layout[coord], contiguous=False)

    def test_a_and_b_are_the_blocks_each_its_own_stream(self):
        suite, a, b = build_job_suite("mpi-gentleman", 2, 7, AB)
        assert _same(suite.layout[(1, 0)]["A"], a[AB:, :AB].copy())
        assert _same(suite.layout[(1, 0)]["B"], b[AB:, :AB].copy())
        _s, a8, _b8 = build_job_suite("mpi-gentleman", 2, 8, AB)
        assert not np.array_equal(a, a8)
        # every block has its own stream: no two of a job's are alike
        blocks = {job_block(7, matrix, i, j, AB).tobytes()
                  for matrix in "AB" for i in range(3) for j in range(3)}
        assert len(blocks) == 2 * 3 * 3


@pytest.fixture(scope="module", params=[2, 3], ids=["g2", "g3"])
def product(request):
    g, ab, seed = request.param, 8, 11
    suite, a, b = build_job_suite("navp-2d-pipeline", g, seed, ab)
    c, _result = run_ir2d_suite(suite, "sim")
    return g, ab, seed, a, b, c


def _blk(ab, i, j):
    return (slice(i * ab, (i + 1) * ab), slice(j * ab, (j + 1) * ab))


class TestFreivalds:
    def test_accepts_the_product(self, product):
        _g, _ab, seed, a, b, c = product
        assert product_ok(a, b, c, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_rejects_two_blocks_swapped(self, product, seed):
        g, ab, _seed, a, b, c = product
        bad = c.copy()
        bad[_blk(ab, 0, 1)], bad[_blk(ab, g - 1, 0)] = \
            c[_blk(ab, g - 1, 0)], c[_blk(ab, 0, 1)]
        assert not product_ok(a, b, bad, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_rejects_a_missing_k_term(self, product, seed):
        g, ab, _seed, a, b, c = product
        i, j, k = g - 1, 0, 1
        bad = c.copy()
        bad[_blk(ab, i, j)] -= a[_blk(ab, i, k)] @ b[_blk(ab, k, j)]
        assert not product_ok(a, b, bad, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_rejects_one_element_off_by_one(self, product, seed):
        _g, _ab, _seed, a, b, c = product
        bad = c.copy()
        bad[3, 5] += 1.0
        assert not product_ok(a, b, bad, seed)


class TestServed:
    def test_every_program_is_ok_exact_and_ships_no_inputs(
            self, monkeypatch):
        """Each catalog program served at g=2 and g=3 (bar the Figure 15
        g=3 deadlock admission refuses): ``ok`` by Freivalds, the sim
        digest bit for bit, and not one setup frame on the wire: every
        worker seeds its blocks and initial signals from the job
        header (Figure 13 has initial ``EC`` signals to seed)."""
        ops = []
        send = WorkerPool.send

        def recording(self, wid, cmd):
            ops.append(cmd[0])
            return send(self, wid, cmd)

        monkeypatch.setattr(WorkerPool, "send", recording)
        shapes = [(p, g, 5 + g, AB) for g in (2, 3) for p in program_names()
                  if (p, g) != ("navp-2d-phase", 3)]
        with serving(pool_size=2, mc_admission=False,
                     tenant_cap=16) as service:
            with ServeClient(service.addr) as client:
                jids = {shape: client.submit(shape[0], g=shape[1],
                                             seed=shape[2], ab=shape[3],
                                             workers=2)
                        for shape in shapes}
                records = {shape: client.wait(jid, timeout=60.0)
                           for shape, jid in jids.items()}
        for shape, record in records.items():
            assert record["state"] == "completed", record
            assert record["ok"] is True, shape
            assert record["digest"] == _sim_digest(*shape), shape
        assert {"job", "run"} <= set(ops)
        assert not {"load", "signal0"} & set(ops), set(ops)


def _segment(records) -> str:
    return "".join(json.dumps(r, separators=(",", ":"), sort_keys=True)
                   + "\n" for r in records)


class TestDataVersion:
    @pytest.mark.parametrize("stamp", [None, DATA_VERSION + 1],
                             ids=["unstamped", "newer"])
    def test_a_replayed_job_never_runs_on_other_data(self, tmp_path, stamp):
        """A WAL written under another data contract: the in-flight
        job is finished failed, naming the version, and never
        dispatched; the done job stays answerable with its digest."""
        wal = tmp_path / "wal"
        wal.mkdir()
        old = [{"t": "open", "recovering": False, "session": 1},
               _adm("j0", 0), {"t": "dispatched", "jid": "j0"},
               _adm("j1", 1), {"t": "dispatched", "jid": "j1"},
               _done("j1")]
        if stamp is not None:
            for record in old:
                if record["t"] == "admitted":
                    record["data_version"] = stamp
        (wal / "wal-00000000.jsonl").write_text(_segment(old))

        with durable_serving(tmp_path, pool_size=1) as svc:
            summary = dict(svc.recovery_summary)
            stale, done = svc.status("j0"), svc.status("j1")
            svc.shutdown(drain=True)
        assert summary["stale"] == 1 and summary["terminal"] == 1
        assert summary["requeued"] == summary["resumed"] == 0
        assert stale["state"] == "failed"
        found = "1 (unstamped)" if stamp is None else str(stamp)
        assert f"admitted under data version {found}" in stale["reason"]
        assert f"version {DATA_VERSION}" in stale["reason"]
        assert done["state"] == "completed"
        assert done["digest"] == "d" * 64 and done["ok"] is True

        records = [json.loads(line) for path in sorted(wal.iterdir())
                   for line in path.read_text().splitlines()]
        assert [r["t"] for r in records if r.get("jid") == "j0"] == [
            "admitted", "dispatched", "done"]      # never dispatched again
        replay = replay_ledger(str(wal))
        assert replay.jobs["j0"].state == "failed"
        assert replay.jobs["j1"].digest == "d" * 64

    def test_admission_stamps_the_version_and_compaction_keeps_it(
            self, tmp_path):
        with durable_serving(tmp_path, pool_size=1) as svc:
            jid = svc.submit({"program": "navp-2d-dsc", "g": 2, "seed": 0,
                              "ab": AB, "workers": 1})["job"]
            svc.wait_job(jid, timeout=60.0)
            svc.shutdown(drain=True)
        wal = str(tmp_path / "wal")
        assert replay_ledger(wal).jobs[jid].data_version == DATA_VERSION
        JobLedger(wal).compact()
        assert replay_ledger(wal).jobs[jid].data_version == DATA_VERSION
