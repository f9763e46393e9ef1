"""SOMPI — monetary cost optimization for MPI applications on spot clouds.

A full reproduction of Gong, He & Zhou, *"Monetary Cost Optimizations
for MPI-Based HPC Applications on Amazon Clouds: Checkpoints and
Replicated Execution"* (SC '15), as a self-contained Python library:

* :mod:`repro.core` — the SOMPI optimizer (cost model, two-level
  optimization, adaptive Algorithm 1 support types).
* :mod:`repro.market` — spot-price traces, a calibrated synthetic
  generator, failure-rate models.
* :mod:`repro.cloud` — the EC2-like substrate (catalog, zones, spot
  price-trace primitives, billing, S3-like checkpoint store).
* :mod:`repro.mpi` + :mod:`repro.apps` — the analytic MPI cost model
  and the NPB/LAMMPS workload profiles it turns into per-type run
  times.
* :mod:`repro.execution` — trace replay, Monte-Carlo evaluation and the
  adaptive executor.
* :mod:`repro.baselines` — On-demand, Spot-Inf/Spot-Avg, Marathe(-Opt)
  and the fault-tolerance ablations.
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro.experiments.env import ExperimentEnv
    env = ExperimentEnv.paper_default(seed=7)
    problem = env.problem("BT", deadline_factor=1.5)
    plan = env.sompi_plan(problem)
    print(plan.describe())
"""

from .config import DEFAULT_CONFIG, SompiConfig
from .core import (
    CircleGroupSpec,
    Decision,
    GroupDecision,
    OnDemandOption,
    Problem,
    SompiOptimizer,
    SompiPlan,
)
from .errors import (
    ConfigurationError,
    InfeasibleError,
    MPIRuntimeError,
    ReproError,
    SimulationError,
    TraceError,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CONFIG",
    "SompiConfig",
    "CircleGroupSpec",
    "Decision",
    "GroupDecision",
    "OnDemandOption",
    "Problem",
    "SompiOptimizer",
    "SompiPlan",
    "ReproError",
    "ConfigurationError",
    "TraceError",
    "InfeasibleError",
    "SimulationError",
    "MPIRuntimeError",
    "__version__",
]
