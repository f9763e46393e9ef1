"""Cluster network model.

A cluster is ``M`` identical instances hosting ``N`` MPI processes, one
per core.  Messages between processes on the *same* instance move through
shared memory; messages between instances share the instance NIC.  The
model exposes LogGP-style parameters — latency ``alpha`` (seconds) and
inverse bandwidth ``beta`` (seconds/byte) — for both paths, which is all
the collective cost formulas and the timing estimator need.  Pricing one
message between two given ranks is the oracle MPI runtime's business
(``tests/oracles/mpi_runtime/costs.py``).

This is where the paper's instance-type trade-offs become mechanical:
cc2.8xlarge packs 32 processes per 10 GbE NIC but converts 3/4 of a
128-process job's traffic into shared-memory transfers, while m1.small
gives every process a whole (slow) NIC and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from ..cloud.instance_types import InstanceType
from ..errors import ConfigurationError

#: Shared-memory transfer parameters (same for all types).
INTRA_LATENCY_S = 1.0e-6
INTRA_BANDWIDTH_BPS = 3.0e9  # bytes/second per process pair

#: Cloud inter-instance latency (virtualised, 2014-era EC2).
INTER_LATENCY_S = 1.2e-4

GBPS_TO_BPS = 1.0e9 / 8.0  # gigabits/s -> bytes/s

#: Fleets spanning many instances cross oversubscribed aggregation links;
#: cc2.8xlarge placement groups (few instances) see full bisection.  The
#: factor ramps from 1 (<= OVERSUB_FREE_INSTANCES instances) to
#: OVERSUB_MAX and divides the effective inter-instance bandwidth.
OVERSUB_FREE_INSTANCES = 8
OVERSUB_MAX = 4.0


@dataclass(frozen=True)
class ClusterShape:
    """Static layout of a homogeneous MPI cluster."""

    itype: InstanceType
    n_processes: int

    def __post_init__(self) -> None:
        if self.n_processes < 1:
            raise ConfigurationError("n_processes must be >= 1")

    @property
    def n_instances(self) -> int:
        return ceil(self.n_processes / self.itype.vcpus)

    @property
    def procs_per_instance(self) -> int:
        return min(self.itype.vcpus, self.n_processes)

    @property
    def inter_node_fraction(self) -> float:
        """Probability a uniformly random peer lives on another instance."""
        if self.n_processes <= 1:
            return 0.0
        same = self.procs_per_instance - 1
        return 1.0 - same / (self.n_processes - 1)

    @property
    def aggregate_disk_bps(self) -> float:
        """Whole-fleet local-disk bandwidth in bytes/second."""
        return self.n_instances * self.itype.disk_mbps * 1024.0**2


@dataclass(frozen=True)
class NetworkModel:
    """LogGP parameters of one cluster shape."""

    shape: ClusterShape

    @property
    def inter_alpha(self) -> float:
        return INTER_LATENCY_S

    @property
    def oversubscription(self) -> float:
        """Bandwidth division factor of the aggregation fabric."""
        m = self.shape.n_instances
        if m <= OVERSUB_FREE_INSTANCES:
            return 1.0
        return min(OVERSUB_MAX, m / OVERSUB_FREE_INSTANCES)

    @property
    def inter_beta(self) -> float:
        """Seconds/byte of a process's share of its instance NIC,
        degraded by fabric oversubscription for large fleets."""
        nic_bps = self.shape.itype.network_gbps * GBPS_TO_BPS
        per_proc = nic_bps / self.shape.procs_per_instance / self.oversubscription
        return 1.0 / per_proc

    @property
    def intra_alpha(self) -> float:
        return INTRA_LATENCY_S

    @property
    def intra_beta(self) -> float:
        return 1.0 / INTRA_BANDWIDTH_BPS

    def effective_alpha(self) -> float:
        """Average message latency for a random peer."""
        f = self.shape.inter_node_fraction
        return f * self.inter_alpha + (1.0 - f) * self.intra_alpha

    def effective_beta(self) -> float:
        """Average seconds/byte for a random peer."""
        f = self.shape.inter_node_fraction
        return f * self.inter_beta + (1.0 - f) * self.intra_beta
