"""Cross-cutting integration: fabric parity, public API, examples."""

import pathlib
import subprocess
import sys

import pytest

import repro
from repro.matmul import MatmulCase, run_variant
from repro.util.validation import assert_allclose

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


class TestFabricParity:
    """Identical numerics from the sim and thread fabrics."""

    @pytest.mark.parametrize("variant,g", [
        ("navp-1d-dsc", 3),
        ("navp-1d-pipeline", 3),
        ("navp-1d-phase", 3),
        ("navp-2d-dsc", 2),
        ("navp-2d-pipeline", 2),
        ("navp-2d-phase", 2),
    ])
    def test_same_product(self, variant, g):
        case = MatmulCase(n=24, ab=4, seed=9)
        from repro.matmul import navp1d, navp2d

        runner = {
            "navp-1d-dsc": navp1d.run_dsc_1d,
            "navp-1d-pipeline": navp1d.run_pipelined_1d,
            "navp-1d-phase": navp1d.run_phase_1d,
            "navp-2d-dsc": navp2d.run_dsc_2d,
            "navp-2d-pipeline": navp2d.run_pipelined_2d,
            "navp-2d-phase": navp2d.run_phase_2d,
        }[variant]
        sim = runner(case, g, fabric="sim")
        thread = runner(case, g, fabric="thread")
        reference = case.reference()
        assert_allclose(sim.c, reference, what=f"{variant} sim")
        assert_allclose(thread.c, reference, what=f"{variant} thread")

    def test_spmd_on_threads(self):
        from repro.matmul.gentleman import gentleman_rank
        from repro.fabric import Grid2D
        from repro.matmul.layouts import gather_c_2d, layout_2d_natural
        from repro.mpi import run_spmd

        case = MatmulCase(n=24, ab=4, seed=10)
        result = run_spmd(
            Grid2D(2), gentleman_rank(case, 2),
            setup=lambda fab: layout_2d_natural(fab, case, 2),
            fabric="thread",
        )
        assert_allclose(gather_c_2d(result, case, 2), case.reference())


class TestPublicAPI:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_readme_quickstart_snippet(self):
        case = repro.MatmulCase(n=1536, ab=128, shadow=True)
        result = repro.run_variant("navp-2d-phase", case, geometry=3)
        assert 6.0 < result.time < 11.0

    def test_make_fabric(self):
        from repro import Grid1D, make_fabric

        assert type(make_fabric("sim", Grid1D(2))).__name__ == "SimFabric"
        assert type(make_fabric("thread", Grid1D(2))).__name__ == \
            "ThreadFabric"
        with pytest.raises(repro.ConfigurationError):
            make_fabric("quantum", Grid1D(2))

    def test_version(self):
        assert repro.__version__


@pytest.mark.parametrize("script", [
    "quickstart.py",
    "transform_demo.py",
    "real_processes.py",
    "wavefront_pipeline.py",
])
def test_example_scripts_run(script):
    """The fast examples must execute cleanly end to end."""
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_incremental_example_small():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "incremental_matmul.py"),
         "384", "32"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "stage 6" in proc.stdout
