"""Collective-algorithm cost formulas.

Standard algorithm costs in the alpha-beta model (Thakur et al.,
"Optimization of Collective Communication Operations in MPICH"), with
``p`` processes, per-process payload ``n`` bytes, latency ``alpha``
seconds and inverse bandwidth ``beta`` seconds/byte:

================  ==========================  =============================
collective        algorithm                   cost
================  ==========================  =============================
allreduce         Rabenseifner                ``2 log2 p alpha + 2 n beta (p-1)/p``
alltoall          pairwise exchange           ``(p-1)(alpha + n/p beta)``
================  ==========================  =============================

For ``alltoall``, ``n`` is the *total* per-process buffer (each peer
receives ``n/p``).  These two are the collectives the application
profiles issue, and the collective term of the analytic timing
estimator.  The formulas of the other collectives the oracle MPI runtime
executes (barrier, bcast, reduce, allgather, scatter/gather) live with
it in ``tests/oracles/mpi_runtime/costs.py``.
"""

from __future__ import annotations

from math import ceil, log2
from typing import Callable, Dict

from ..errors import ConfigurationError


def _log2ceil(p: int) -> int:
    return ceil(log2(p)) if p > 1 else 0


def _allreduce(p: int, n: float, alpha: float, beta: float) -> float:
    if p == 1:
        return 0.0
    return 2.0 * _log2ceil(p) * alpha + 2.0 * n * beta * (p - 1) / p


def _alltoall(p: int, n: float, alpha: float, beta: float) -> float:
    if p == 1:
        return 0.0
    return (p - 1) * (alpha + (n / p) * beta)


COLLECTIVE_ALGORITHMS: Dict[str, Callable[[int, float, float, float], float]] = {
    "allreduce": _allreduce,
    "alltoall": _alltoall,
}


def collective_time(
    name: str, p: int, nbytes: float, alpha: float, beta: float
) -> float:
    """Seconds for one collective of type ``name``.

    ``nbytes`` is the per-process buffer size (total buffer for
    alltoall, message size for allreduce).
    """
    if p < 1:
        raise ConfigurationError(f"p must be >= 1, got {p}")
    if nbytes < 0:
        raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
    if alpha < 0 or beta < 0:
        raise ConfigurationError("alpha and beta must be >= 0")
    try:
        fn = COLLECTIVE_ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown collective {name!r}; known: {sorted(COLLECTIVE_ALGORITHMS)}"
        ) from None
    return fn(p, nbytes, alpha, beta)
