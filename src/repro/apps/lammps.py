"""LAMMPS — molecular dynamics with a fixed problem size (strong scaling).

The paper fixes the atom count and varies the process count: with few
processes each rank owns many atoms (compute-dominated, cheap instances
win); with many processes the halo surface per rank shrinks slower than
the volume and the PPPM long-range solver's FFT transposes grow with the
process count, so communication dominates and the optimizer moves to
cc2.8xlarge — shrinking the savings.

Strong-scaling mechanics per rank and step:

* compute ~ ``atoms / p`` (pair forces, neighbour lists),
* halo exchange ~ ``(atoms / p)^(2/3)`` (spatial-decomposition surface),
* PPPM transpose: an alltoall whose latency term grows with ``p``.
"""

from __future__ import annotations

from ..mpi.profile import ApplicationProfile, CollectiveCounts
from .base import MPIApplication, WorkloadCategory


class LAMMPS(MPIApplication):
    name = "LAMMPS"
    category = WorkloadCategory.COMPUTE  # at low process counts

    #: Problem-class table maps to atom counts (fixed-size MD box).
    ATOMS = {"S": 2_000, "W": 32_000, "A": 250_000, "B": 1_000_000, "C": 4_000_000}

    INSTR_PER_ATOM_STEP = 10_000.0  # pair forces + neighbour maintenance
    HALO_BYTES_COEFF = 200.0  # bytes per (atoms/p)^(2/3) per step
    HALO_MSGS_PER_STEP = 6  # face neighbours
    PPPM_GRID_BYTES = 4.0e6  # total FFT grid per transpose
    PPPM_TRANSPOSES_PER_STEP = 2
    MEMORY_BYTES_PER_ATOM = 1_000.0

    def __init__(
        self,
        problem_class: str = "B",
        n_processes: int = 128,
        repeats: int = 1,
        steps: int = 200_000,
    ) -> None:
        super().__init__(problem_class, n_processes, repeats)
        if steps < 1:
            raise ValueError("steps must be >= 1")
        self.steps = steps

    @property
    def atoms(self) -> int:
        return self.ATOMS[self.problem_class]

    def single_run_profile(self) -> ApplicationProfile:
        n = self.n_processes
        atoms_per_proc = self.atoms / n
        halo_per_proc_step = self.HALO_BYTES_COEFF * atoms_per_proc ** (2.0 / 3.0)
        n_transposes = self.steps * self.PPPM_TRANSPOSES_PER_STEP
        return ApplicationProfile(
            name=f"LAMMPS.{self.problem_class}.p{n}",
            n_processes=n,
            instr_giga=self.INSTR_PER_ATOM_STEP * self.atoms * self.steps / 1e9,
            p2p_bytes=halo_per_proc_step * n * self.steps,
            p2p_messages=float(self.HALO_MSGS_PER_STEP * n * self.steps),
            collectives={
                "alltoall": CollectiveCounts(
                    (self.PPPM_GRID_BYTES / n) * n_transposes, float(n_transposes)
                ),
                "allreduce": CollectiveCounts(
                    # thermo output: energy/pressure reductions
                    24.0 * self.steps,
                    float(self.steps),
                ),
            },
            memory_gb_per_process=self.MEMORY_BYTES_PER_ATOM
            * atoms_per_proc
            / 1024.0**3,
        )
