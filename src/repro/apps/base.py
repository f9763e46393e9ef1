"""Application abstraction.

An :class:`MPIApplication` is characterised by a *single-run* profile
(one execution of the kernel) and a ``repeats`` count — the paper runs
each NPB kernel 100-200 times back to back "to extend to large scale
computing".  The extended profile is the single-run profile scaled by
``repeats``; that is what the optimizer sees.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod

from ..errors import ConfigurationError
from ..mpi.profile import ApplicationProfile


class WorkloadCategory(enum.Enum):
    """The paper's three application classes (Section 5.1)."""

    COMPUTE = "computation-intensive"
    COMMUNICATION = "communication-intensive"
    IO = "io-intensive"


class MPIApplication(ABC):
    """Base class for the NPB kernels and LAMMPS."""

    #: Kernel name, e.g. ``"BT"``.
    name: str = "?"
    #: Which of the paper's classes this kernel belongs to.
    category: WorkloadCategory = WorkloadCategory.COMPUTE

    def __init__(
        self,
        problem_class: str = "B",
        n_processes: int = 128,
        repeats: int = 150,
    ) -> None:
        if n_processes < 1:
            raise ConfigurationError("n_processes must be >= 1")
        if repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        if problem_class not in self.problem_classes():
            raise ConfigurationError(
                f"{self.name}: unknown problem class {problem_class!r}; "
                f"known: {sorted(self.problem_classes())}"
            )
        self.problem_class = problem_class
        self.n_processes = n_processes
        self.repeats = repeats

    # ------------------------------------------------------------------
    @classmethod
    def problem_classes(cls) -> tuple[str, ...]:
        """Problem classes this kernel supports (NPB S/W/A/B/C)."""
        return ("S", "W", "A", "B", "C")

    @abstractmethod
    def single_run_profile(self) -> ApplicationProfile:
        """Profile of ONE execution of the kernel."""

    def profile(self) -> ApplicationProfile:
        """Profile of the extended workload (``repeats`` executions)."""
        single = self.single_run_profile()
        return single.scaled(
            self.repeats,
            name=f"{self.name}.{self.problem_class} x{self.repeats}",
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(class={self.problem_class}, "
            f"N={self.n_processes}, repeats={self.repeats})"
        )


def class_volume_factor(problem_class: str, grids: dict[str, float]) -> float:
    """Problem-size factor relative to CLASS B from a per-class table."""
    try:
        return grids[problem_class] / grids["B"]
    except KeyError:
        raise ConfigurationError(f"unknown problem class {problem_class!r}") from None
