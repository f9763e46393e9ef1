"""Analytic MPI cost model: the Section 4.4 profiling substrate.

:mod:`~repro.mpi.network` (LogGP-style link parameters per cluster
configuration), :mod:`~repro.mpi.collectives` (the textbook cost
formulas of the collectives the application profiles issue) and :mod:`~repro.mpi.timing` (the
Section 4.4 estimator: execution time = CPU + network + IO given a
TAU-like :mod:`~repro.mpi.profile`).  This is what feeds the optimizer
the ``T_i``, ``O_i`` and ``R_i`` parameters it needs per instance type.
"""

from .network import ClusterShape, NetworkModel
from .profile import ApplicationProfile, CollectiveCounts
from .collectives import collective_time, COLLECTIVE_ALGORITHMS
from .timing import estimate_execution_hours, estimate_checkpoint, CheckpointProfile

__all__ = [
    "ClusterShape",
    "NetworkModel",
    "ApplicationProfile",
    "CollectiveCounts",
    "collective_time",
    "COLLECTIVE_ALGORITHMS",
    "estimate_execution_hours",
    "estimate_checkpoint",
    "CheckpointProfile",
]
