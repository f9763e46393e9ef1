"""Run every app's rank program on the discrete-event MPI runtime.

These tests verify that the *structural* models (who communicates what)
actually execute: correct results, matching profile shape, no deadlock.
"""

import pytest

from repro.apps import BT, BTIO, FT, IS, LU, SP, LAMMPS
from repro.cloud.instance_types import get_instance_type
from tests.oracles import mpi_runtime

C3 = get_instance_type("c3.xlarge")


def run_app(app, n=4, iterations=3, scale=1e-7):
    return mpi_runtime.run_app(app, C3, n, iterations=iterations, scale=scale)


@pytest.mark.parametrize("cls", [BT, SP, LU, FT, IS, BTIO, LAMMPS])
def test_rank_program_completes(cls):
    app = cls(n_processes=4)
    stats = run_app(app)
    assert stats.wall_seconds > 0
    assert len(stats.rank_results) == 4


@pytest.mark.parametrize("cls", [BT, SP, LU])
def test_structured_grid_residual_agrees_across_ranks(cls):
    app = cls(n_processes=4)
    stats = run_app(app)
    # the allreduced residual is identical everywhere
    assert len(set(stats.rank_results)) == 1


def test_ft_profile_structure_matches_analytic_model():
    app = FT(n_processes=4)
    stats = run_app(app)
    colls = stats.profile.collectives
    assert "alltoall" in colls and "allreduce" in colls
    assert stats.profile.p2p_bytes == 0  # FT is collective-only


def test_bt_profile_structure_matches_analytic_model():
    app = BT(n_processes=4)
    stats = run_app(app)
    assert stats.profile.p2p_bytes > 0
    assert "allreduce" in stats.profile.collectives


def test_btio_actually_does_io():
    app = BTIO(n_processes=4)
    stats = run_app(app, iterations=5)
    assert stats.profile.io_seq_bytes > 0


def test_lammps_energy_is_allreduced():
    app = LAMMPS(n_processes=4)
    stats = run_app(app)
    assert len(set(stats.rank_results)) == 1


def test_single_process_degenerate_case():
    app = BT(n_processes=1)
    stats = run_app(app, n=1)
    assert stats.wall_seconds >= 0


def test_larger_cluster_runs():
    app = FT(n_processes=8)
    stats = run_app(app, n=8)
    assert stats.profile.collectives["alltoall"].count == 3
