"""What the oracle MPI runtime prices and the analytic estimator never
does: one message between two given ranks, and the collectives that no
application profile issues.

:mod:`repro.mpi.collectives` keeps the two formulas the profiles use
(``allreduce``, ``alltoall``); :func:`collective_time` here prices all
eight collectives the runtime's ``RankHandle`` offers, in the same
alpha-beta model (Thakur et al.):

================  ==========================  =============================
collective        algorithm                   cost
================  ==========================  =============================
barrier           dissemination               ``ceil(log2 p) * alpha``
bcast             binomial tree               ``ceil(log2 p) (alpha+n beta)``
reduce            binomial tree               same as bcast
allgather         ring                        ``(p-1)(alpha + n/p beta)``
scatter/gather    binomial tree               ``log2 p alpha + n beta (p-1)/p``
================  ==========================  =============================

For ``allgather``, ``n`` is the *total* per-process buffer (each peer
receives ``n/p``).
"""

from __future__ import annotations

from math import ceil, log2
from typing import Callable, Dict

from repro.errors import ConfigurationError
from repro.mpi.collectives import COLLECTIVE_ALGORITHMS
from repro.mpi.network import ClusterShape, NetworkModel


def _log2ceil(p: int) -> int:
    return ceil(log2(p)) if p > 1 else 0


def _barrier(p: int, n: float, alpha: float, beta: float) -> float:
    return _log2ceil(p) * alpha


def _bcast(p: int, n: float, alpha: float, beta: float) -> float:
    return _log2ceil(p) * (alpha + n * beta)


def _reduce(p: int, n: float, alpha: float, beta: float) -> float:
    return _log2ceil(p) * (alpha + n * beta)


def _allgather(p: int, n: float, alpha: float, beta: float) -> float:
    if p == 1:
        return 0.0
    return (p - 1) * (alpha + (n / p) * beta)


def _scatter(p: int, n: float, alpha: float, beta: float) -> float:
    if p == 1:
        return 0.0
    return _log2ceil(p) * alpha + n * beta * (p - 1) / p


ALL_ALGORITHMS: Dict[str, Callable[[int, float, float, float], float]] = {
    **COLLECTIVE_ALGORITHMS,
    "barrier": _barrier,
    "bcast": _bcast,
    "reduce": _reduce,
    "allgather": _allgather,
    "scatter": _scatter,
    "gather": _scatter,  # symmetric cost
}


def collective_time(
    name: str, p: int, nbytes: float, alpha: float, beta: float
) -> float:
    """Seconds for one collective of type ``name``, any of
    :data:`ALL_ALGORITHMS`; validates like
    :func:`repro.mpi.collectives.collective_time`."""
    if p < 1:
        raise ConfigurationError(f"p must be >= 1, got {p}")
    if nbytes < 0:
        raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
    if alpha < 0 or beta < 0:
        raise ConfigurationError("alpha and beta must be >= 0")
    try:
        fn = ALL_ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown collective {name!r}; known: {sorted(ALL_ALGORITHMS)}"
        ) from None
    return fn(p, nbytes, alpha, beta)


def node_of(shape: ClusterShape, rank: int) -> int:
    """Instance index hosting ``rank`` (block placement, as OpenMPI
    fills machines in order)."""
    if not 0 <= rank < shape.n_processes:
        raise ConfigurationError(
            f"rank {rank} outside [0, {shape.n_processes})"
        )
    return rank // shape.itype.vcpus


def p2p_seconds(net: NetworkModel, src: int, dst: int, nbytes: float) -> float:
    """Transfer time of one point-to-point message from ``src`` to ``dst``."""
    if nbytes < 0:
        raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
    if src == dst:
        return 0.0
    if node_of(net.shape, src) == node_of(net.shape, dst):
        return net.intra_alpha + nbytes * net.intra_beta
    return net.inter_alpha + nbytes * net.inter_beta
