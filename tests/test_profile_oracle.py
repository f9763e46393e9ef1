"""The paper's §4.4 profiling step, checked against the executed oracle.

SOMPI plans from an application's TAU-style profile vector alone.  Each
kernel's analytic ``single_run_profile`` is that vector; here every
kernel's scaled-down rank program runs on the discrete-event runtime in
``tests/oracles/mpi_runtime`` and the recorded counters must have the
same *shape*: the same nonzero counters and the same collectives.
Counts differ by design (the programs run a few scaled iterations), so
they are not compared.
"""

import pytest

from repro.apps import MPIApplication, make_app
from repro.apps.base import WorkloadCategory
from repro.cloud.instance_types import get_instance_type
from repro.mpi.profile import ApplicationProfile, CollectiveCounts
from tests.oracles.mpi_runtime import run_app

C3 = get_instance_type("c3.xlarge")

KERNELS = ("BT", "SP", "LU", "FT", "IS", "BTIO", "LAMMPS", "CG", "MG")
COUNTERS = ("instr_giga", "p2p_bytes", "p2p_messages", "io_seq_bytes", "io_rnd_bytes")


def nonzero_counters(profile: ApplicationProfile) -> set:
    return {name for name in COUNTERS if getattr(profile, name) > 0}


@pytest.mark.parametrize("name", KERNELS)
def test_executed_profile_has_analytic_shape(name):
    app = make_app(name, n_processes=4)
    analytic = app.single_run_profile()
    executed = run_app(app, C3, 4).profile
    assert nonzero_counters(executed) == nonzero_counters(analytic)
    assert set(executed.collectives) == set(analytic.collectives)


class Stencil(MPIApplication):
    """A user application that supplies only its analytic profile."""

    name = "STENCIL"
    category = WorkloadCategory.COMPUTE

    def single_run_profile(self) -> ApplicationProfile:
        iters = 20_000
        return ApplicationProfile(
            name=f"{self.name}.{self.problem_class}",
            n_processes=self.n_processes,
            instr_giga=60_000.0,
            p2p_bytes=2.0e10,
            p2p_messages=float(2 * self.n_processes * iters),
            collectives={"allreduce": CollectiveCounts(8.0 * iters, float(iters))},
            memory_gb_per_process=0.2,
        )


def test_profile_only_application_plans(small_env):
    app = Stencil(n_processes=64, repeats=10)
    problem = small_env.problem(app, deadline_factor=1.5)
    plan = small_env.sompi_plan(problem)
    assert plan.expectation.time <= problem.deadline + 1e-6
    assert plan.expectation.cost > 0
