"""MG — MultiGrid (extension; not in the paper's evaluation).

V-cycle multigrid on a 3D grid: smoothing sweeps exchange halos at
every level, but coarse levels carry geometrically less data, so the
total traffic is dominated by the finest level while the *message
count* scales with the level count — a latency/bandwidth mix between
BT's halo pattern and CG's latency-bound reductions.
"""

from __future__ import annotations

from math import log2

from ..mpi.profile import ApplicationProfile, CollectiveCounts
from .base import MPIApplication, WorkloadCategory


class MG(MPIApplication):
    name = "MG"
    category = WorkloadCategory.COMPUTE

    #: Grid edge per class (NPB 2.4 MG).
    GRID = {"S": 32, "W": 64, "A": 256, "B": 256, "C": 512}
    ITERATIONS = {"S": 4, "W": 40, "A": 4, "B": 80, "C": 80}
    INSTR_PER_POINT_ITER = 60.0
    BYTES_PER_POINT = 8.0

    def single_run_profile(self) -> ApplicationProfile:
        edge = self.GRID[self.problem_class]
        iters = self.ITERATIONS[self.problem_class] * 4 * 30  # extended scale
        points = float(edge) ** 3
        n = self.n_processes
        levels = int(log2(edge))
        # Finest-level halo dominates volume; each level adds messages.
        face = (points ** (2.0 / 3.0)) * self.BYTES_PER_POINT
        halo_bytes = face * 6 * 2 * iters  # 6 faces, both directions
        return ApplicationProfile(
            name=f"MG.{self.problem_class}",
            n_processes=n,
            instr_giga=self.INSTR_PER_POINT_ITER * points * iters * 1.6 / 1e9,
            p2p_bytes=halo_bytes,
            p2p_messages=float(6 * levels * n * iters),
            collectives={
                "allreduce": CollectiveCounts(8.0 * iters, float(iters))
            },
            memory_gb_per_process=points * self.BYTES_PER_POINT * 1.6 / n / 1024.0**3,
        )
