"""FT — 3D Fast Fourier Transform (communication-intensive).

Each time step applies forward/inverse 3D FFTs whose transpose steps are
all-to-all exchanges of the full grid.  On sub-gigabit 2014 instances
the transposes dominate; on cc2.8xlarge the 10 GbE NIC plus the 24/32
in-node neighbours (shared memory) make it the clear winner — the
paper's central observation for communication-intensive kernels.
"""

from __future__ import annotations

from ..mpi.profile import ApplicationProfile, CollectiveCounts
from .base import MPIApplication, WorkloadCategory
from .npb import FT_POINTS


class FT(MPIApplication):
    name = "FT"
    category = WorkloadCategory.COMMUNICATION

    #: Time steps per run and transposes per step (forward + inverse FFT).
    ITERATIONS = 80
    TRANSPOSES_PER_ITER = 6
    #: Total giga-instructions of one CLASS B run (FFT butterflies).
    INSTR_GIGA_B = 96_000.0
    #: Bytes per grid point (complex double).
    BYTES_PER_POINT = 16.0
    #: Checksum reduction per iteration.
    MEMORY_GB_B = 32.0

    def single_run_profile(self) -> ApplicationProfile:
        points = FT_POINTS[self.problem_class]
        vol = points / FT_POINTS["B"]
        n = self.n_processes
        # Per-process buffer in one transpose: the rank's slab.
        slab_bytes = points * self.BYTES_PER_POINT / n
        n_transposes = self.ITERATIONS * self.TRANSPOSES_PER_ITER
        return ApplicationProfile(
            name=f"FT.{self.problem_class}",
            n_processes=n,
            instr_giga=self.INSTR_GIGA_B * vol,
            collectives={
                "alltoall": CollectiveCounts(
                    slab_bytes * n_transposes, float(n_transposes)
                ),
                "allreduce": CollectiveCounts(
                    16.0 * self.ITERATIONS, float(self.ITERATIONS)
                ),
            },
            memory_gb_per_process=self.MEMORY_GB_B * vol / n,
        )
