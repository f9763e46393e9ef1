#!/usr/bin/env python
"""Bring your own MPI application.

Defines a 2D Jacobi stencil solver as an :class:`MPIApplication` — all
it needs is its TAU-style analytic profile — prints that profile and the
estimated run time per instance type, and then plans its cost-optimal
cloud execution.

Run:  python examples/custom_application.py
"""

from repro.apps.base import MPIApplication, WorkloadCategory
from repro.cloud.instance_types import PAPER_TYPES, get_instance_type
from repro.experiments.env import ExperimentEnv
from repro.mpi.profile import ApplicationProfile, CollectiveCounts
from repro.mpi.timing import estimate_execution_hours


class Jacobi2D(MPIApplication):
    """Row-partitioned 2D Jacobi iteration with halo rows + residual check."""

    name = "JACOBI2D"
    category = WorkloadCategory.COMPUTE

    GRID = {"S": 512, "W": 1024, "A": 4096, "B": 16384, "C": 32768}
    ITERATIONS = 4000
    FLOPS_PER_POINT = 6.0
    BYTES_PER_POINT = 8.0

    def single_run_profile(self) -> ApplicationProfile:
        n = self.GRID[self.problem_class]
        p = self.n_processes
        points = float(n) * n
        halo_bytes_per_iter = 2 * n * self.BYTES_PER_POINT * p  # two rows each
        return ApplicationProfile(
            name=f"{self.name}.{self.problem_class}",
            n_processes=p,
            instr_giga=self.FLOPS_PER_POINT * points * self.ITERATIONS / 1e9,
            p2p_bytes=halo_bytes_per_iter * self.ITERATIONS,
            p2p_messages=float(2 * p * self.ITERATIONS),
            collectives={
                "allreduce": CollectiveCounts(8.0 * self.ITERATIONS, float(self.ITERATIONS))
            },
            memory_gb_per_process=points * self.BYTES_PER_POINT * 2 / p / 1024**3,
        )


def main() -> None:
    app = Jacobi2D(problem_class="B", n_processes=128, repeats=100)

    # 1. The analytic profile of the extended workload, and the
    #    Section 4.4 estimate of its run time on each instance type.
    profile = app.profile()
    print(
        f"profile {profile.name}: {profile.instr_giga:.3g} G instr, "
        f"{profile.p2p_messages:.3g} messages, "
        f"{profile.p2p_bytes / 1e9:.1f} GB halo traffic, "
        f"{profile.collectives['allreduce'].count:.3g} allreduces"
    )
    print(f"\nestimated hours for {profile.name}:")
    for tname in PAPER_TYPES:
        hours = estimate_execution_hours(profile, get_instance_type(tname))
        print(f"  {tname:>12}: {hours:6.1f} h")

    # 2. Plan the cloud execution.
    env = ExperimentEnv.paper_default(seed=7)
    problem = env.problem(app, deadline_factor=1.5)
    plan = env.sompi_plan(problem)
    print(f"\nSOMPI plan (deadline {problem.deadline:.1f} h):")
    print(plan.describe())
    mc = env.mc(problem, plan.decision, n_samples=200, stream="jacobi")
    print(
        f"\nreplayed: ${mc.mean_cost:.2f} +- {mc.std_cost:.2f} vs "
        f"${env.baseline_cost(app):.2f} baseline "
        f"({1 - mc.mean_cost / env.baseline_cost(app):.0%} saved)"
    )


if __name__ == "__main__":
    main()
