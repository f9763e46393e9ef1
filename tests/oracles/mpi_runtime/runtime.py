"""The simulated MPI runtime.

Launches one generator process per rank on a fresh discrete-event
engine, runs to completion, and returns wall time plus the recorded
profile.  Deadlocks (a rank waiting forever on a message or collective)
are detected when the event queue drains with ranks still alive —
something a real ``mpiexec`` job would express as a hang.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from repro.cloud.instance_types import InstanceType
from repro.errors import MPIRuntimeError
from repro.mpi.network import ClusterShape
from repro.mpi.profile import ApplicationProfile
from repro.units import SECONDS_PER_HOUR

from .communicator import RankHandle, SimCommunicator
from .engine import Engine
from .process import Process

RankProgram = Callable[[RankHandle], Generator[Any, Any, Any]]


@dataclass(frozen=True)
class RunStats:
    """Outcome of one simulated MPI execution."""

    wall_seconds: float
    n_processes: int
    itype_name: str
    profile: ApplicationProfile
    rank_results: tuple

    @property
    def wall_hours(self) -> float:
        return self.wall_seconds / SECONDS_PER_HOUR


class MPIRuntime:
    """One ``mpiexec``-equivalent launch."""

    def __init__(
        self,
        itype: InstanceType,
        n_processes: int,
        program: RankProgram,
        name: str = "app",
        memory_gb_per_process: float = 0.1,
    ) -> None:
        self.itype = itype
        self.n_processes = n_processes
        self.program = program
        self.name = name
        self.memory_gb_per_process = memory_gb_per_process

    def run(self, max_seconds: Optional[float] = None) -> RunStats:
        engine = Engine()
        shape = ClusterShape(self.itype, self.n_processes)
        comm = SimCommunicator(engine, shape)
        procs: List[Process] = [
            Process(engine, self.program(comm.handle(r)), name=f"{self.name}.rank{r}")
            for r in range(self.n_processes)
        ]
        engine.run(until=max_seconds)
        alive = [p.name for p in procs if p.alive]
        if alive:
            state = "timed out" if max_seconds is not None else "deadlocked"
            raise MPIRuntimeError(
                f"{self.name}: {len(alive)} rank(s) {state} "
                f"at t={engine.now:.6g}s (first: {alive[0]})"
            )
        return RunStats(
            wall_seconds=engine.now,
            n_processes=self.n_processes,
            itype_name=self.itype.name,
            profile=comm.to_profile(self.name, self.memory_gb_per_process),
            rank_results=tuple(p.done.value for p in procs),
        )
