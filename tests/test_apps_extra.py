"""CG and MG extension-kernel tests."""

import pytest

from repro.apps import CG, MG, EXTRA_APPS, make_app
from repro.apps.base import WorkloadCategory
from repro.cloud.instance_types import get_instance_type
from repro.mpi.timing import estimate_execution_hours
from tests.oracles.mpi_runtime import run_app

C3 = get_instance_type("c3.xlarge")


def T(app, type_name):
    return estimate_execution_hours(app.profile(), get_instance_type(type_name))


class TestFactory:
    def test_extra_apps_constructible(self):
        for name in EXTRA_APPS:
            app = make_app(name)
            assert app.profile().instr_giga > 0

    def test_categories(self):
        assert CG().category is WorkloadCategory.COMMUNICATION
        assert MG().category is WorkloadCategory.COMPUTE


class TestShapes:
    def test_hours_scale_workloads(self):
        for name in EXTRA_APPS:
            app = make_app(name)
            assert T(app, "cc2.8xlarge") > 2.0  # the optimizer's hour grid bites

    def test_cg_latency_bound_prefers_fat_nodes(self):
        app = CG()
        assert T(app, "cc2.8xlarge") < T(app, "m1.medium")
        assert T(app, "cc2.8xlarge") < T(app, "c3.xlarge")

    def test_cg_dot_products_dominate_message_count(self):
        prof = CG().profile()
        assert prof.collectives["allreduce"].count > 1000

    def test_mg_class_scaling(self):
        a = MG(problem_class="A", repeats=1).profile()
        c = MG(problem_class="C", repeats=1).profile()
        assert c.instr_giga > a.instr_giga

    def test_mg_message_count_includes_levels(self):
        prof = MG(repeats=1).profile()
        # 6 faces x log2(256)=8 levels x 128 ranks x iterations
        assert prof.p2p_messages > prof.collectives["allreduce"].count * 6


class TestRankPrograms:
    @pytest.mark.parametrize("cls", [CG, MG])
    def test_runs_on_des_runtime(self, cls):
        stats = run_app(cls(n_processes=4), C3, 4, iterations=2, scale=1e-5)
        assert stats.wall_seconds > 0
        # allreduced result agrees across ranks
        assert len(set(stats.rank_results)) == 1

    def test_cg_uses_sendrecv_without_deadlock(self):
        stats = run_app(CG(n_processes=8), C3, 8, iterations=3, scale=1e-5)
        assert stats.profile.p2p_messages > 0


class TestOptimization:
    def test_sompi_plans_extra_apps(self, paper_env):
        for name in EXTRA_APPS:
            problem = paper_env.problem(name, 1.5)
            plan = paper_env.sompi_plan(problem)
            assert plan.expectation.time <= problem.deadline + 1e-9
            assert plan.expectation.cost < paper_env.baseline_cost(
                paper_env.app(name)
            )
