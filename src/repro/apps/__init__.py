"""Workload models.

The paper evaluates NPB 2.4 kernels — BT, SP, LU (compute-intensive),
FT, IS (communication-intensive), BTIO (IO-intensive) — at 128 processes
CLASS B, each run 100-200 times back to back, plus LAMMPS with a fixed
problem size and varying process counts.

Each application provides
:meth:`~repro.apps.base.MPIApplication.single_run_profile`, the
TAU-style profile of one execution; its
:meth:`~repro.apps.base.MPIApplication.profile` scales it by ``repeats``
into the *extended* workload that drives the Section 4.4
time/checkpoint estimators.  A subclass that defines
``single_run_profile`` is all the optimizer needs.

Calibration constants are documented per kernel; they are chosen so the
*relative* execution times across instance types reproduce the paper's
observations (which instance class wins for which application class),
not to match absolute EC2 wall clocks.
"""

from .base import MPIApplication, WorkloadCategory
from .bt import BT
from .sp import SP
from .lu import LU
from .ft import FT
from .is_ import IS
from .btio import BTIO
from .lammps import LAMMPS
from .cg import CG
from .mg import MG

#: The kernels the paper's evaluation uses (Section 5.1).
PAPER_APPS = ("BT", "SP", "LU", "FT", "IS", "BTIO")

#: Extensions beyond the paper (same machinery, extra NPB kernels).
EXTRA_APPS = ("CG", "MG")


def make_app(name: str, **kwargs) -> MPIApplication:
    """Factory by kernel name (case-insensitive)."""
    table = {
        "BT": BT,
        "SP": SP,
        "LU": LU,
        "FT": FT,
        "IS": IS,
        "BTIO": BTIO,
        "LAMMPS": LAMMPS,
        "CG": CG,
        "MG": MG,
    }
    try:
        cls = table[name.upper()]
    except KeyError:
        raise ValueError(f"unknown application {name!r}; known: {sorted(table)}") from None
    return cls(**kwargs)


__all__ = [
    "MPIApplication",
    "WorkloadCategory",
    "BT",
    "SP",
    "LU",
    "FT",
    "IS",
    "BTIO",
    "LAMMPS",
    "CG",
    "MG",
    "PAPER_APPS",
    "EXTRA_APPS",
    "make_app",
]
