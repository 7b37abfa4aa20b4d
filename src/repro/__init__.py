"""repro — a reproduction of "Incremental Parallelization Using
Navigational Programming: A Case Study" (Pan, Zhang, Asuncion, Lai,
Dillencourt, Bic — ICPP 2005).

The package provides, from the bottom up:

* :mod:`repro.machine` — a cluster model calibrated to the paper's SUN
  Blade 100 testbed (flop rate, 100 Mb/s Ethernet, paging, block-LRU
  cache behaviour);
* :mod:`repro.fabric` — four interchangeable executors for
  navigational programs: a deterministic virtual-time discrete-event
  simulator (``SimFabric``), real daemon threads (``ThreadFabric``),
  real OS processes exchanging messenger state as
  :mod:`~repro.fabric.wire` frames over socketpairs
  (``ProcessFabric``), and the same processes behind real TCP
  (``SocketFabric``);
* :mod:`repro.navp` — the NavP programming model: self-migrating
  messengers with ``hop``/``inject``/agent variables/node variables/
  events, plus the navigational IR and its interpreter;
* :mod:`repro.mpi` — an MPI-like SPMD substrate over the same fabrics;
* :mod:`repro.matmul` — the case study: sequential, the six NavP
  stages (Figures 5-15), Gentleman, Cannon, SUMMA (the ScaLAPACK
  stand-in), the naive ``doall``, and the staggering analysis;
* :mod:`repro.transform` — the paper's three transformations (DSC,
  pipelining, phase shifting) as mechanical IR rewrites, deriving
  Figures 5/7/9 from Figure 2;
* :mod:`repro.perfmodel` — regeneration of every table and figure in
  the paper's evaluation, next to the published numbers;
* :mod:`repro.resilience` — deterministic fault injection, consistent
  checkpoints, and crash recovery across all four fabrics (see
  ``docs/resilience.md``).

Quick start::

    from repro import MatmulCase, run_variant
    case = MatmulCase(n=1536, ab=128, shadow=True)
    result = run_variant("navp-2d-phase", case, geometry=3)
    print(result.time)   # modeled seconds on the paper's cluster
"""

import os

# One BLAS thread per process unless the user chose a count: the fork
# fabrics and the serve pool fork workers that inherit the parent's
# BLAS threads, which oversubscribes the cores and was seen to hang an
# unpinned process-fabric run at ab=256. Set before numpy loads below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .errors import (
    ConfigurationError,
    DeadlockError,
    FabricError,
    MigrationError,
    PartitionError,
    ProtocolError,
    ReproError,
    SimulationError,
    TopologyError,
    TransformError,
    VerificationError,
)
from .fabric import Grid1D, Grid2D, SimFabric, Topology
from .fabric.factory import make_fabric
from .fabric.process import ProcessFabric
from .fabric.threads import ThreadFabric
from .machine import (
    FAST_TEST_MACHINE,
    SUN_BLADE_100,
    MachineSpec,
    MemorySpec,
    NetworkSpec,
    PagingModel,
)
from .matmul import MatmulCase, RunResult, run_variant, variant_names
from .mpi import Comm, run_spmd
from .navp import Messenger
from .navp.interp import Interp, IRMessenger
from .resilience import Crash, FaultPlan, MessageFault, SlowNode, injected
from .perfmodel import (
    build_figure1,
    build_table1,
    build_table2,
    build_table3,
    build_table4,
)
from .transform import derive_chain, verify_chain

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ReproError", "ConfigurationError", "TopologyError", "PartitionError",
    "FabricError", "DeadlockError", "MigrationError", "ProtocolError",
    "SimulationError", "TransformError", "VerificationError",
    # fabrics
    "SimFabric", "ThreadFabric", "ProcessFabric", "make_fabric",
    "Topology", "Grid1D", "Grid2D",
    # machine
    "MachineSpec", "NetworkSpec", "MemorySpec", "PagingModel",
    "SUN_BLADE_100", "FAST_TEST_MACHINE",
    # NavP
    "Messenger", "Interp", "IRMessenger",
    # MPI
    "Comm", "run_spmd",
    # case study
    "MatmulCase", "RunResult", "run_variant", "variant_names",
    # transformations
    "derive_chain", "verify_chain",
    # resilience
    "FaultPlan", "Crash", "MessageFault", "SlowNode", "injected",
    # evaluation
    "build_table1", "build_table2", "build_table3", "build_table4",
    "build_figure1",
]
