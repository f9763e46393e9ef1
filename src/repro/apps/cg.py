"""CG — Conjugate Gradient (extension; not in the paper's evaluation).

Estimates the smallest eigenvalue of a sparse symmetric matrix.  Each
iteration is a sparse matrix-vector product whose irregular row
partitioning exchanges boundary vector segments, plus two global dot
products.  CG at scale is *latency*-bound: the per-iteration allreduces
serialise the pipeline, so fat nodes (fewer, faster hops) win even
though the byte volume is small.
"""

from __future__ import annotations

from ..mpi.profile import ApplicationProfile, CollectiveCounts
from .base import MPIApplication, WorkloadCategory


class CG(MPIApplication):
    name = "CG"
    category = WorkloadCategory.COMMUNICATION

    #: Matrix rows per class (NPB 2.4) and nonzeros per row.
    ROWS = {"S": 1_400, "W": 7_000, "A": 14_000, "B": 75_000, "C": 150_000}
    NNZ_PER_ROW = {"S": 7, "W": 8, "A": 11, "B": 13, "C": 15}
    #: 75 CG iterations x 4 outer steps, extended x30 like the
    #: paper's repeated-execution workloads.
    ITERATIONS = 75 * 4 * 30
    INSTR_PER_NNZ = 40.0
    DOTS_PER_ITER = 2
    #: Boundary exchange volume per rank per iteration, bytes.
    HALO_BYTES_PER_ROWSEG = 8.0

    def single_run_profile(self) -> ApplicationProfile:
        rows = self.ROWS[self.problem_class]
        nnz = rows * self.NNZ_PER_ROW[self.problem_class] * 64  # band blocks
        n = self.n_processes
        halo_per_proc = self.HALO_BYTES_PER_ROWSEG * rows / max(1, n**0.5)
        return ApplicationProfile(
            name=f"CG.{self.problem_class}",
            n_processes=n,
            instr_giga=self.INSTR_PER_NNZ * nnz * self.ITERATIONS / 1e9,
            p2p_bytes=halo_per_proc * n * self.ITERATIONS,
            p2p_messages=float(4 * n * self.ITERATIONS),
            collectives={
                "allreduce": CollectiveCounts(
                    8.0 * self.DOTS_PER_ITER * self.ITERATIONS,
                    float(self.DOTS_PER_ITER * self.ITERATIONS),
                )
            },
            memory_gb_per_process=nnz * 12.0 / max(1, n) / 1024.0**3,
        )
