"""A served job's data contract (:mod:`repro.serve.catalog`).

* Blocks are born where they live: the hosts' ``job_loads`` are, bit for
  bit, the layout ``build_job_suite`` gives the sim oracle, and no
  setup — ``load`` or ``signal0`` — frame crosses the pool wire.
* ``ok`` is Freivalds' check: it accepts every served product and
  rejects swapped blocks, a missing k-term and one element off by
  1e-4. A served job's check reads the shares its hosts computed with
  their blocks, each block's exactly once, and never A or B.
* The digest stays exact: served digests equal the sim digests.
* A ledger replayed across a data-version change never runs an old
  job on new data.
"""

import json

import numpy as np
import pytest

from repro.analysis.visitor import stmt_exprs, walk_expr, walk_stmts
from repro.fabric.hosts import cyclic_hosts, resolve_hosts
from repro.fabric.topology import Grid2D
from repro.matmul import run_ir2d_suite
from repro.navp import ir
from repro.serve import (ServeClient, build_job_suite, program_names,
                         replay_ledger)
from repro.serve.catalog import (CHECK_SHARES, DATA_VERSION, IR_CATALOG,
                                 _check_vectors, job_block, job_loads,
                                 job_suite, product_ok, shares_ok)
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
        generates for its own PEs is the layout the sim oracle runs,
        plus one check share of every block, summing to ``SᵀA`` and
        ``BR``."""
        suite, a, b = build_job_suite(program, g, 7, AB)
        s, r = _check_vectors(7, g * AB)
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
            u, v = np.zeros((4, g * AB)), np.zeros((g * AB, 4))
            held = []
            for coord, node_vars in union.items():
                shares = node_vars.pop(CHECK_SHARES)
                assert _same(node_vars, suite.layout[coord]), (width, coord)
                for (matrix, i, j), share in shares.items():
                    held.append((matrix, i, j))
                    if matrix == "A":
                        u[:, j * AB:(j + 1) * AB] += share
                    else:
                        v[i * AB:(i + 1) * AB] += share
            assert sorted(held) == sorted(
                (m, i, j) for m in "AB" for i in range(g) for j in range(g))
            np.testing.assert_allclose(u, s.T @ a, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(v, b @ r, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("program", program_names())
    def test_no_program_touches_the_check_shares(self, program):
        """The shares stay the seed's: no program of the closure reads
        or writes them, so no cut carries them."""
        for g in (2, 3):
            for prog in job_suite(program, g).programs:
                for _path, stmt in walk_stmts(prog.body):
                    assert not (isinstance(stmt, ir.NodeSet)
                                and stmt.name == CHECK_SHARES), prog.name
                    for expr in stmt_exprs(stmt):
                        for node in walk_expr(expr):
                            assert not (isinstance(node, ir.NodeGet)
                                        and node.name == CHECK_SHARES), \
                                prog.name

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


def _collected(program, g, seed, ab, c) -> dict:
    """What a served job's daemon collects: each PE's ``C`` block and
    the check shares its host seeded."""
    loads = job_loads(program, g, seed, ab, list(Grid2D(g).coords))
    return {(i, j): {"C": c[_blk(ab, i, j)],
                     CHECK_SHARES: node_vars[CHECK_SHARES]}
            for (i, j), node_vars in loads.items()}


class TestDetectionPower:
    """One rule for ``ok``: the shares a served job's hosts compute and
    the whole-matrix :func:`product_ok` pass every sim product and
    catch a single element off by 1e-4 on every seed."""

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("program", program_names())
    def test_no_false_positive_and_1e_4_caught(self, program, g):
        ab = 16
        for seed in range(50):
            suite, a, b = build_job_suite(program, g, seed, ab)
            c, _result = run_ir2d_suite(suite, "sim")
            places = _collected(program, g, seed, ab, c)
            assert shares_ok(c, places, g, seed), seed
            assert product_ok(a, b, c, seed), seed
            p, q = np.random.default_rng(seed).integers(g * ab, size=2)
            bad = c.copy()
            bad[p, q] += 1e-4
            assert not shares_ok(bad, places, g, seed), (seed, p, q)
            assert not product_ok(a, b, bad, seed), (seed, p, q)

    def test_1e_4_caught_at_serve_data_size(self):
        """At g=2, ab=256 — ``serve_data``'s blocks — as well."""
        g, ab = 2, 256
        for seed in range(50):
            suite, _a, _b = build_job_suite("navp-2d-pipeline", g, seed, ab)
            c, _result = run_ir2d_suite(suite, "sim")
            places = _collected("navp-2d-pipeline", g, seed, ab, c)
            assert shares_ok(c, places, g, seed), seed
            p, q = np.random.default_rng(seed).integers(g * ab, size=2)
            c[p, q] += 1e-4
            assert not shares_ok(c, places, g, seed), (seed, p, q)


class TestServed:
    def test_every_program_is_ok_exact_and_ships_no_inputs(
            self, monkeypatch):
        """Each catalog program served at g=2 and g=3 (bar the Figure 15
        g=3 deadlock admission refuses): ``ok`` by Freivalds, the sim
        digest bit for bit, and not one setup frame on the wire: every
        worker seeds its blocks and initial signals from the job
        header (Figure 13 has initial ``EC`` signals to seed). The
        daemon never generates a block: ``job_block`` raises in it once
        the pool has forked."""
        ops = []
        send = WorkerPool.send

        def recording(self, wid, cmd):
            ops.append(cmd[0])
            return send(self, wid, cmd)

        def no_block_here(*args):
            raise AssertionError(f"the daemon generated block {args}")

        monkeypatch.setattr(WorkerPool, "send", recording)
        shapes = [(p, g, 5 + g, AB) for g in (2, 3) for p in program_names()
                  if (p, g) != ("navp-2d-phase", 3)]
        goldens = {shape: _sim_digest(*shape) for shape in shapes}
        with serving(pool_size=2, mc_admission=False,
                     tenant_cap=16) as service:
            monkeypatch.setattr("repro.serve.catalog.job_block",
                                no_block_here)
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
            assert record["digest"] == goldens[shape], shape
        assert {"job", "run"} <= set(ops)
        assert not {"load", "signal0"} & set(ops), set(ops)


class TestShareCoverage:
    @pytest.mark.parametrize("fault", ["drop", "duplicate"])
    def test_a_host_seed_that_loses_or_repeats_a_share_fails_the_job(
            self, monkeypatch, fault):
        """A host seeds one block's check share on no PE, or on two:
        the job fails with a typed reason naming the block — never a
        ``KeyError``, never ``ok``. Patched before the pool forks."""
        key = ("B", 1, 0)

        def faulty(program, g, seed, ab, coords):
            loads = job_loads(program, g, seed, ab, coords)
            for coord, node_vars in loads.items():
                if key in node_vars[CHECK_SHARES]:
                    share = node_vars[CHECK_SHARES][key]
                    if fault == "drop":
                        del node_vars[CHECK_SHARES][key]
                    else:
                        other = next(c for c in loads if c != coord)
                        loads[other][CHECK_SHARES][key] = share
            return loads

        monkeypatch.setattr("repro.serve.worker.job_loads", faulty)
        with serving(pool_size=2, mc_admission=False) as service:
            with ServeClient(service.addr) as client:
                jid = client.submit("mpi-gentleman", g=2, seed=1, ab=AB,
                                    workers=2)
                record = client.wait(jid, timeout=30.0)
        assert record["state"] == "failed", record
        if fault == "drop":
            want = "VerificationError: block B(1, 0) has no check share"
        else:
            want = "VerificationError: block B(1, 0) has a check share on PE"
        assert record["reason"].startswith(want), record["reason"]


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

    def test_admission_stamps_the_version_and_a_restart_keeps_it(
            self, tmp_path):
        with durable_serving(tmp_path, pool_size=1) as svc:
            jid = svc.submit({"program": "navp-2d-dsc", "g": 2, "seed": 0,
                              "ab": AB, "workers": 1})["job"]
            svc.wait_job(jid, timeout=60.0)
            svc.shutdown(drain=True)
        wal = str(tmp_path / "wal")
        assert replay_ledger(wal).jobs[jid].data_version == DATA_VERSION
        with durable_serving(tmp_path, pool_size=1) as svc:
            assert svc.recovery_summary["terminal"] == 1
            assert svc.recovery_summary["stale"] == 0
            svc.shutdown(drain=True)
        assert replay_ledger(wal).jobs[jid].data_version == DATA_VERSION
