"""Shared NPB machinery.

The three structured-grid kernels (BT, SP, LU) share their phase shape:
per iteration, every rank does a slab of grid compute and exchanges halo
faces with a fixed set of neighbours.  Work scales with grid *volume*,
halo traffic with grid *surface* — that is what the per-class factors
encode.

Calibration: CLASS B totals are set so the paper's *extended* workload
(150 back-to-back runs at 128 processes) lands in the single-digit-hours
range on 2014 instance fleets, with the relative times across instance
types reproducing Section 5.3.1: compute kernels fastest on cc2.8xlarge
but cheapest on m1.small/medium, FT/IS dominated by the interconnect,
BTIO dominated by aggregate disk bandwidth.
"""

from __future__ import annotations

from ..mpi.profile import ApplicationProfile, CollectiveCounts
from .base import MPIApplication

#: Grid edge per problem class for BT/SP/LU (NPB 2.4).
GRID_EDGE = {"S": 12, "W": 24, "A": 64, "B": 102, "C": 162}

#: Total FFT grid points per class for FT.
FT_POINTS = {
    "S": 64**3,
    "W": 128 * 64 * 64,
    "A": 256 * 256 * 128,
    "B": 512 * 256 * 256,
    "C": 512**3,
}

#: Keys to sort per class for IS.
IS_KEYS = {"S": 2**16, "W": 2**20, "A": 2**23, "B": 2**25, "C": 2**27}


def volume_factor(problem_class: str) -> float:
    """Grid-volume factor relative to CLASS B (BT/SP/LU)."""
    return (GRID_EDGE[problem_class] / GRID_EDGE["B"]) ** 3


def surface_factor(problem_class: str) -> float:
    """Grid-surface factor relative to CLASS B (halo traffic)."""
    return (GRID_EDGE[problem_class] / GRID_EDGE["B"]) ** 2


class StructuredGridKernel(MPIApplication):
    """Common profile shape of BT, SP and LU.

    Subclasses set the CLASS B calibration constants:

    * ``ITERATIONS`` — solver iterations per run,
    * ``INSTR_GIGA_B`` — total giga-instructions of one CLASS B run,
    * ``P2P_BYTES_B`` — total halo bytes of one CLASS B run,
    * ``MSGS_PER_ITER_PER_PROC`` — halo messages per rank per iteration,
    * ``MEMORY_GB_B`` — total resident set of one CLASS B run (all ranks).
    """

    ITERATIONS: int = 200
    INSTR_GIGA_B: float = 25_000.0
    P2P_BYTES_B: float = 18.0e9
    MSGS_PER_ITER_PER_PROC: int = 6
    MEMORY_GB_B: float = 45.0

    def single_run_profile(self) -> ApplicationProfile:
        vol = volume_factor(self.problem_class)
        surf = surface_factor(self.problem_class)
        n = self.n_processes
        return ApplicationProfile(
            name=f"{self.name}.{self.problem_class}",
            n_processes=n,
            instr_giga=self.INSTR_GIGA_B * vol,
            p2p_bytes=self.P2P_BYTES_B * surf,
            p2p_messages=float(self.ITERATIONS * self.MSGS_PER_ITER_PER_PROC * n),
            collectives={
                # Residual-norm check once per iteration.
                "allreduce": CollectiveCounts(8.0 * self.ITERATIONS, float(self.ITERATIONS))
            },
            memory_gb_per_process=self.MEMORY_GB_B * vol / n,
        )
