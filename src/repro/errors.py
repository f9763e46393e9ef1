"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch library failures with a single ``except`` clause
while still distinguishing configuration problems from runtime ones.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError):
    """A model or optimizer was constructed with inconsistent parameters."""


class TraceError(ReproError):
    """A spot-price trace is malformed (non-monotonic time, negative price, ...)."""


class InfeasibleError(ReproError):
    """No decision satisfies the deadline constraint.

    Raised by the on-demand type selector when even the fastest instance
    type cannot finish within ``Deadline * (1 - Slack)``.
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class MPIRuntimeError(SimulationError):
    """The simulated MPI runtime detected a protocol violation.

    Examples: mismatched collective participation, a receive with no
    matching send, or communication with a terminated rank.
    """


class AuditError(ReproError):
    """A result violated a cost-conservation or bookkeeping invariant.

    Raised only in audit mode (:mod:`repro.obs`): the replayed totals
    and their ledgers disagreed, which means a table built from them
    would be silently biased.
    """
