"""TAU-like application profiles (Section 4.4).

The paper characterises an application as
``<#instr, Data_send, Data_recv, IO_seq, IO_rnd>`` plus the process
count; the estimator turns that into per-instance-type execution times.
We additionally break communication into point-to-point and per-
collective volumes, because the collective algorithm determines how much
of the payload actually crosses the network (an allreduce moves ~2x its
buffer, an alltoall moves ``(p-1)/p`` of it, ...).

Profiles are additive — running an application twice doubles every
counter — so repeated executions (the paper runs each NPB kernel
100-200x) are expressed with :meth:`ApplicationProfile.scaled`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping

from ..errors import ConfigurationError
from ..units import check_nonnegative


@dataclass(frozen=True)
class CollectiveCounts:
    """Volume and invocation count of one collective type."""

    total_bytes: float  # sum over all invocations of per-process payload
    count: float  # number of invocations

    def __post_init__(self) -> None:
        check_nonnegative("total_bytes", self.total_bytes)
        check_nonnegative("count", self.count)

    def scaled(self, factor: float) -> "CollectiveCounts":
        return CollectiveCounts(self.total_bytes * factor, self.count * factor)


@dataclass(frozen=True)
class ApplicationProfile:
    """Aggregate resource demands of one application execution.

    Attributes
    ----------
    name:
        Application identifier (e.g. ``"BT.B x150"``).
    n_processes:
        ``N`` — fixed for the execution (a paper assumption).
    instr_giga:
        Total giga-instructions across all ranks.
    p2p_bytes:
        Total bytes sent point-to-point (``Data_send``; ``Data_recv`` is
        symmetric for the paper's kernels).
    p2p_messages:
        Total point-to-point messages (drives the latency term).
    collectives:
        Per-collective :class:`CollectiveCounts`, keyed by collective
        name.  ``total_bytes`` is the per-process payload summed over
        invocations.
    io_seq_bytes / io_rnd_bytes:
        Sequential and random local-disk traffic (``IO_seq``/``IO_rnd``).
    memory_gb_per_process:
        Resident set per rank — this is what a coordinated checkpoint
        must persist, so it sizes ``O_i`` and ``R_i``.
    """

    name: str
    n_processes: int
    instr_giga: float
    p2p_bytes: float = 0.0
    p2p_messages: float = 0.0
    collectives: Mapping[str, CollectiveCounts] = field(default_factory=dict)
    io_seq_bytes: float = 0.0
    io_rnd_bytes: float = 0.0
    memory_gb_per_process: float = 0.1

    def __post_init__(self) -> None:
        if self.n_processes < 1:
            raise ConfigurationError("n_processes must be >= 1")
        check_nonnegative("instr_giga", self.instr_giga)
        check_nonnegative("p2p_bytes", self.p2p_bytes)
        check_nonnegative("p2p_messages", self.p2p_messages)
        check_nonnegative("io_seq_bytes", self.io_seq_bytes)
        check_nonnegative("io_rnd_bytes", self.io_rnd_bytes)
        check_nonnegative("memory_gb_per_process", self.memory_gb_per_process)

    @property
    def total_comm_bytes(self) -> float:
        """``Data_send`` analog: p2p plus all collective payloads."""
        return self.p2p_bytes + sum(
            c.total_bytes * self.n_processes for c in self.collectives.values()
        )

    @property
    def checkpoint_bytes(self) -> float:
        """Size of one coordinated checkpoint image (all ranks)."""
        return self.memory_gb_per_process * self.n_processes * 1024.0**3

    def scaled(self, factor: float, name: str | None = None) -> "ApplicationProfile":
        """Profile of ``factor`` back-to-back executions."""
        check_nonnegative("factor", factor)
        return replace(
            self,
            name=name if name is not None else f"{self.name} x{factor:g}",
            instr_giga=self.instr_giga * factor,
            p2p_bytes=self.p2p_bytes * factor,
            p2p_messages=self.p2p_messages * factor,
            collectives={
                k: v.scaled(factor) for k, v in self.collectives.items()
            },
            io_seq_bytes=self.io_seq_bytes * factor,
            io_rnd_bytes=self.io_rnd_bytes * factor,
        )

    def merged(self, other: "ApplicationProfile") -> "ApplicationProfile":
        """Profile of this execution followed by ``other``."""
        if other.n_processes != self.n_processes:
            raise ConfigurationError(
                "cannot merge profiles with different process counts"
            )
        colls: Dict[str, CollectiveCounts] = dict(self.collectives)
        for k, v in other.collectives.items():
            if k in colls:
                v = CollectiveCounts(
                    colls[k].total_bytes + v.total_bytes, colls[k].count + v.count
                )
            colls[k] = v
        return replace(
            self,
            name=f"{self.name}+{other.name}",
            instr_giga=self.instr_giga + other.instr_giga,
            p2p_bytes=self.p2p_bytes + other.p2p_bytes,
            p2p_messages=self.p2p_messages + other.p2p_messages,
            collectives=colls,
            io_seq_bytes=self.io_seq_bytes + other.io_seq_bytes,
            io_rnd_bytes=self.io_rnd_bytes + other.io_rnd_bytes,
            memory_gb_per_process=max(
                self.memory_gb_per_process, other.memory_gb_per_process
            ),
        )
