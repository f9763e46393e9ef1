"""Discrete-event MPI runtime: the profiling oracle.

Production plans from analytic profiles only
(:meth:`repro.apps.base.MPIApplication.single_run_profile` feeding
:mod:`repro.mpi.timing`).  This package *executes* scaled-down rank
programs instead — generator coroutines doing sends/recvs/collectives/
compute/IO on a small heap-ordered event loop — and records the TAU-style
counters of what actually ran.  ``tests/test_profile_oracle.py`` checks
that every kernel's executed traffic has the shape of its analytic
profile, which is the paper's §4.4 profiling step.

* :mod:`.engine` / :mod:`.process` — the event loop and generator
  processes.
* :mod:`.communicator` / :mod:`.runtime` — MPI semantics on top of them
  and the ``mpiexec``-equivalent launcher.
* :mod:`.rank_programs` — one program per application class.
"""

from .communicator import RankHandle, SimCommunicator
from .engine import Engine, Event, Timeout
from .process import Process, ProcessExit
from .rank_programs import RANK_PROGRAMS, rank_program
from .runtime import MPIRuntime, RunStats


def run_app(app, itype, n_processes, iterations=3, scale=1e-6) -> RunStats:
    """Run ``app``'s rank program on ``n_processes`` simulated ranks."""
    program = rank_program(app)
    return MPIRuntime(
        itype,
        n_processes,
        lambda mpi: program(app, mpi, iterations=iterations, scale=scale),
        name=app.name,
    ).run()


__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "ProcessExit",
    "RankHandle",
    "SimCommunicator",
    "MPIRuntime",
    "RunStats",
    "RANK_PROGRAMS",
    "rank_program",
    "run_app",
]
