"""Scaled-down rank programs of the workload models.

Each function runs one kernel's phase structure on the discrete-event
runtime: ``iterations`` replaces the kernel's iteration count and
``scale`` multiplies work/payload sizes, so a test executes the real
communication pattern in milliseconds.  The calibration constants are
read from the application object, so a program and the analytic
``single_run_profile`` it checks share one source of truth.

:data:`RANK_PROGRAMS` keys the functions by application class;
:func:`rank_program` resolves an instance through its MRO, so BT, SP and
LU share the structured-grid program and BTIO extends it.
"""

from __future__ import annotations

from math import log2
from typing import Any, Callable, Generator

from repro.apps import BTIO, CG, FT, IS, LAMMPS, MG, MPIApplication
from repro.apps.npb import FT_POINTS, IS_KEYS, StructuredGridKernel

from .communicator import RankHandle

RankGen = Generator[Any, Any, Any]


def structured_grid(
    app: StructuredGridKernel, mpi: RankHandle, iterations: int = 3, scale: float = 1e-6
) -> RankGen:
    """Halo exchange with ring neighbours + compute + residual check."""
    n = mpi.size
    halo_bytes = app.P2P_BYTES_B * scale / max(1, n)
    work = app.INSTR_GIGA_B * scale / max(1, n)
    residual = 0.0
    for _ in range(iterations):
        yield from mpi.compute(work)
        left = (mpi.rank - 1) % n
        right = (mpi.rank + 1) % n
        if n > 1:
            yield from mpi.send(right, halo_bytes, payload=mpi.rank)
            yield from mpi.send(left, halo_bytes, payload=mpi.rank)
            got_l = yield from mpi.recv(left)
            got_r = yield from mpi.recv(right)
            residual = float(got_l + got_r)
        residual = yield from mpi.allreduce(residual, nbytes=8.0)
    return residual


def btio(app: BTIO, mpi: RankHandle, iterations: int = 3, scale: float = 1e-6) -> RankGen:
    """BT sweep plus a solution dump every IO_EVERY iterations."""
    n = mpi.size
    dump_bytes = app.DUMP_BYTES_B * scale / n
    result = None
    for it in range(iterations):
        result = yield from structured_grid(app, mpi, iterations=1, scale=scale)
        if (it + 1) % app.IO_EVERY == 0 or it == iterations - 1:
            yield from mpi.io(dump_bytes, sequential=True)
    return result


def ft(app: FT, mpi: RankHandle, iterations: int = 3, scale: float = 1e-6) -> RankGen:
    """FFT step: local butterflies, transpose (alltoall), checksum."""
    n = mpi.size
    points = FT_POINTS[app.problem_class] * scale
    slab_bytes = points * app.BYTES_PER_POINT / n
    work = app.INSTR_GIGA_B * scale / n
    checksum = 0.0
    for _ in range(iterations):
        yield from mpi.compute(work)
        outbox = [mpi.rank] * n
        inbox = yield from mpi.alltoall(outbox, nbytes=slab_bytes)
        yield from mpi.compute(work)
        checksum = yield from mpi.allreduce(float(sum(inbox)), nbytes=16.0)
    return checksum


def integer_sort(app: IS, mpi: RankHandle, iterations: int = 3, scale: float = 1e-6) -> RankGen:
    """Bucket sort step: histogram, count reduction, redistribution."""
    n = mpi.size
    keys_per_proc = IS_KEYS[app.problem_class] * scale / n
    work = app.INSTR_PER_KEY * keys_per_proc / 1e9
    total = 0
    for _ in range(iterations):
        yield from mpi.compute(work)
        counts = yield from mpi.allreduce(1, nbytes=4096.0)
        outbox = [mpi.rank] * n
        inbox = yield from mpi.alltoall(outbox, nbytes=keys_per_proc * app.BYTES_PER_KEY)
        total = counts + sum(inbox)
    return total


def cg(app: CG, mpi: RankHandle, iterations: int = 3, scale: float = 1e-6) -> RankGen:
    """One CG iteration: SpMV with halo exchange, two dot products."""
    rows = app.ROWS[app.problem_class]
    nnz = rows * app.NNZ_PER_ROW[app.problem_class] * 64 * scale
    work = app.INSTR_PER_NNZ * nnz / 1e9 / mpi.size
    halo = app.HALO_BYTES_PER_ROWSEG * rows * scale
    rho = 1.0
    for _ in range(iterations):
        yield from mpi.compute(work)
        if mpi.size > 1:
            peer = mpi.size - 1 - mpi.rank  # transpose partner
            if peer != mpi.rank:
                got = yield from mpi.sendrecv(peer, halo, peer, payload=rho)
                rho = float(got)
        rho = yield from mpi.allreduce(rho, nbytes=8.0)
        alpha = yield from mpi.allreduce(rho * 0.5, nbytes=8.0)
        rho = alpha
    return rho


def mg(app: MG, mpi: RankHandle, iterations: int = 2, scale: float = 1e-6) -> RankGen:
    """One V-cycle: smooth/restrict down the levels, then back up."""
    edge = app.GRID[app.problem_class]
    points = (float(edge) ** 3) * scale
    levels = max(1, int(log2(edge)) - 2)
    residual = 1.0
    for _ in range(iterations):
        for depth in range(levels):  # down-sweep
            level_points = points / (8.0**depth)
            yield from mpi.compute(app.INSTR_PER_POINT_ITER * level_points / 1e9 / mpi.size)
            if mpi.size > 1:
                nxt = (mpi.rank + 1) % mpi.size
                prv = (mpi.rank - 1) % mpi.size
                face = (level_points ** (2.0 / 3.0)) * app.BYTES_PER_POINT
                yield from mpi.sendrecv(nxt, face, prv, payload=depth)
        for depth in reversed(range(levels)):  # up-sweep
            level_points = points / (8.0**depth)
            yield from mpi.compute(app.INSTR_PER_POINT_ITER * level_points / 2e9 / mpi.size)
        residual = yield from mpi.allreduce(residual * 0.5, nbytes=8.0)
    return residual


def lammps(app: LAMMPS, mpi: RankHandle, iterations: int = 3, scale: float = 1e-6) -> RankGen:
    """One MD step: forces, halo exchange, PPPM transpose, thermo."""
    n = mpi.size
    atoms_per_proc = max(1.0, app.atoms * scale / n)
    halo_bytes = app.HALO_BYTES_COEFF * atoms_per_proc ** (2.0 / 3.0)
    work = app.INSTR_PER_ATOM_STEP * atoms_per_proc / 1e9
    energy = 0.0
    for _ in range(iterations):
        yield from mpi.compute(work)
        if n > 1:
            left = (mpi.rank - 1) % n
            right = (mpi.rank + 1) % n
            yield from mpi.send(right, halo_bytes, payload=energy)
            yield from mpi.send(left, halo_bytes, payload=energy)
            yield from mpi.recv(left)
            yield from mpi.recv(right)
            outbox = [mpi.rank] * n
            yield from mpi.alltoall(outbox, nbytes=app.PPPM_GRID_BYTES * scale / n)
        energy = yield from mpi.allreduce(float(mpi.rank), nbytes=24.0)
    return energy


RANK_PROGRAMS: dict[type, Callable[..., RankGen]] = {
    StructuredGridKernel: structured_grid,
    BTIO: btio,
    FT: ft,
    IS: integer_sort,
    CG: cg,
    MG: mg,
    LAMMPS: lammps,
}


def rank_program(app: MPIApplication) -> Callable[..., RankGen]:
    """The rank program of ``app``'s most specific registered class."""
    for cls in type(app).__mro__:
        if cls in RANK_PROGRAMS:
            return RANK_PROGRAMS[cls]
    raise KeyError(f"no rank program for {type(app).__name__}")
