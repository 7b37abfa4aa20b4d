"""The command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.resilience import Crash, FaultPlan, MessageFault

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "no-such-variant"])

    def test_table_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "5"])


class TestCommands:
    def test_variants(self, capsys):
        assert main(["variants"]) == 0
        out = capsys.readouterr().out
        assert "navp-2d-phase" in out
        assert "mpi-gentleman" in out

    def test_run_shadow(self, capsys):
        code = main(["run", "navp-1d-phase", "--n", "1536",
                     "--geometry", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_run_real_verifies(self, capsys):
        code = main(["run", "navp-2d-pipeline", "--n", "24", "--ab", "4",
                     "--geometry", "3", "--real"])
        assert code == 0
        assert "verified vs NumPy" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, constraint", [
        (["--n", "16", "--geometry", "2"],
         "algorithmic block order 128 does not divide matrix order 16"),
        (["--n", "16", "--ab", "8", "--geometry", "3"],
         "grid order 3 does not divide matrix order 16"),
    ], ids=["ab", "geometry"])
    def test_run_sizes_that_do_not_divide_are_a_usage_error(
            self, argv, constraint, capsys):
        assert main(["run", "navp-2d-dsc"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"navp-2d-dsc: {constraint}\n"

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "9216" in out
        assert "all passed" in out

    def test_staggering(self, capsys):
        assert main(["staggering", "--max-n", "8"]) == 0
        out = capsys.readouterr().out
        assert "reverse" in out

    def test_wavefront(self, capsys):
        code = main(["wavefront", "--n", "512", "--block", "64",
                     "--pes", "2"])
        assert code == 0
        assert "pipelined" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, constraint", [
        (["--pes", "3"], "PE count 3 does not divide matrix order 4096"),
        (["--block", "100"],
         "block order 100 does not divide matrix order 4096"),
        (["--pes", "0"], "orders must be positive, got n=4096, "
                         "PE count=0"),
        (["--n", "0"], "orders must be positive, got n=0, "
                       "block order=64"),
        (["--block", "0"], "orders must be positive, got n=4096, "
                           "block order=0"),
    ], ids=["pes", "block", "pes0", "n0", "block0"])
    def test_wavefront_sizes_that_do_not_divide_are_a_usage_error(
            self, argv, constraint, capsys):
        assert main(["wavefront"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"wavefront: {constraint}\n"

    @pytest.mark.parametrize("target", ["navp-wavefront", "navp-matmul"])
    @pytest.mark.parametrize("geometry", [0, -1, -2])
    def test_plan_geometry_below_one_is_a_usage_error(
            self, target, geometry, capsys):
        assert main(["plan", target, "--geometry", str(geometry)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"--geometry must be at least 1, got {geometry}\n")

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        assert "all Figure 1 claims hold" in capsys.readouterr().out

    def test_report_quick(self, capsys):
        assert main(["report", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "reproduction checks passed" in out
        assert "FAILED" not in out


class TestRunFaults:
    """``repro run --faults``: every fault is counted by the run that saw
    it, so one process can run a plan again and read the same line."""

    @staticmethod
    def _faults_line(args, capsys, code=0):
        assert main(args) == code
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.strip().startswith("faults ")]
        assert len(lines) == 1, lines
        return lines[0].split(None, 1)[1]

    def test_a_plan_counts_the_same_on_every_run(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        FaultPlan(faults=(MessageFault(action="drop", kind="hop", nth=2),
                          Crash(place=1, at_hop=1))).to_file(plan)
        args = ["run", "navp-1d-dsc", "--faults", str(plan)]
        first = self._faults_line(args, capsys)
        assert first == "2 fired, 2 masked, 0 lost"
        assert self._faults_line(args, capsys) == first
        lost = self._faults_line(args + ["--no-recovery"], capsys, code=1)
        assert int(lost.split(", ")[2].split()[0]) > 0, lost

    def test_a_fabric_run_prints_its_faults(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        FaultPlan(faults=(MessageFault(action="drop", kind="hop",
                                       nth=1),)).to_file(plan)
        line = self._faults_line(
            ["run", "navp-2d-dsc", "--fabric", "thread", "--n", "16",
             "--geometry", "2", "--faults", str(plan)], capsys)
        assert line == "1 fired, 1 masked, 0 lost"

    @pytest.mark.parametrize("variant", ["mpi-gentleman", "navp-2d-dsc"])
    def test_only_the_injected_crash_fires(self, variant, tmp_path, capsys):
        """A send into the crashed PE is lost, not fired: like a hop into
        it, it is a consequence of the one fault the plan injected, so
        the MPI baseline counts the same as the NavP program."""
        plan = tmp_path / "plan.json"
        FaultPlan(faults=(Crash(place=1, at_time=0.0),)).to_file(plan)
        line = self._faults_line(["run", variant, "--faults", str(plan),
                                  "--no-recovery"], capsys, code=1)
        assert line == "1 fired, 0 masked, 6 lost"

    @pytest.mark.parametrize("variant, extra, cause", [
        ("mpi-gentleman", [], "crash of PE 1 not masked"),
        ("navp-2d-dsc", [], "crash of PE 1 not masked"),
        ("navp-2d-dsc", ["--fabric", "process", "--n", "16",
                         "--geometry", "2"],
         "worker 1 lost (killed by SIGKILL) and recovery is disabled"),
    ], ids=["sim-mpi-gentleman", "sim-navp-2d-dsc", "process-navp-2d-dsc"])
    def test_an_unmasked_crash_fails_the_run(self, variant, extra, cause,
                                             tmp_path, capsys):
        """A crash with recovery off leaves no product: one line names
        the crashed PE or worker, then the faults line; no time, no
        speedup, no traceback, exit 1."""
        plan = tmp_path / "plan.json"
        FaultPlan(faults=(Crash(place=1, at_time=0.0),)).to_file(plan)
        assert main(["run", variant, "--faults", str(plan),
                     "--no-recovery"] + extra) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == f"{variant}: failed, no product: {cause}"
        assert lines[1].split()[0] == "faults" and len(lines) == 2
        assert "Traceback" not in captured.out + captured.err
        assert "speedup" not in captured.out


class TestBlasPin:
    @pytest.mark.parametrize("user", [None, "3"])
    def test_the_package_pins_blas_unless_the_user_did(self, user):
        """``python -m repro`` and ``repro serve`` both import the
        package first, which pins every BLAS to one thread before numpy
        loads; a count the user set wins."""
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        if user is not None:
            env["OPENBLAS_NUM_THREADS"] = user
        probe = ("import os, sys, repro; assert 'numpy' in sys.modules; "
                 f"print(*(os.environ[v] for v in {_BLAS_VARS!r}))")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout.split()
        assert out == [user or "1", "1", "1"]
