"""Result containers for replayed and Monte-Carlo-evaluated executions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..cloud.billing import CostLedger
from ..errors import ConfigurationError
from ..market.history import MarketKey

if TYPE_CHECKING:  # pragma: no cover
    from .batch_replay import ReplayBatch


@dataclass(frozen=True)
class GroupRunRecord:
    """What one circle group did during a replay.

    ``productive`` is the productive work achieved (hours on the group's
    own time scale); ``saved`` is the checkpointed part of it that
    survives the group's death.
    """

    key: MarketKey
    bid: float
    interval: float
    launched: bool
    launch_time: Optional[float]
    end_time: float
    terminated: bool  # True = out-of-bid event; False = ran to horizon/completion
    completed: bool
    productive: float
    saved: float
    n_checkpoints: int
    spot_cost: float

    @property
    def wall_hours(self) -> float:
        return 0.0 if self.launch_time is None else self.end_time - self.launch_time


@dataclass
class RunResult:
    """Outcome of replaying one decision from one starting point."""

    start_time: float
    cost: float
    makespan: float  # hours from start to application completion
    completed_by: Optional[str]  # market key string, "ondemand", or None
    ondemand_hours: float
    group_records: Sequence[GroupRunRecord] = field(default_factory=tuple)
    ledger: CostLedger = field(default_factory=CostLedger)

    @property
    def completed(self) -> bool:
        return self.completed_by is not None


@dataclass(frozen=True)
class MonteCarloSummary:
    """Statistics over many replays from random starting points."""

    n_samples: int
    mean_cost: float
    std_cost: float
    mean_time: float
    std_time: float
    p95_cost: float
    p95_time: float
    deadline_miss_rate: float
    spot_completion_rate: float  # finished on a circle group
    ondemand_fallback_rate: float  # finished on the on-demand recovery

    @classmethod
    def from_results(
        cls, results: "ReplayBatch", deadline: Optional[float]
    ) -> "MonteCarloSummary":
        """Statistics read from a replay batch's columns."""
        if not len(results):
            # Without this, numpy would hand back NaN means and
            # np.percentile would crash with an opaque IndexError.
            raise ConfigurationError(
                "cannot summarise an empty result list; draw at least one "
                "Monte-Carlo sample"
            )
        costs, times = results.cost, results.makespan
        # Every replay completes (on spot or on demand), so a miss is
        # just a late finish.
        misses = (
            float(np.mean(~(times <= deadline + 1e-9)))
            if deadline is not None
            else 0.0
        )
        return cls(
            n_samples=len(results),
            mean_cost=float(costs.mean()),
            std_cost=float(costs.std()),
            mean_time=float(times.mean()),
            std_time=float(times.std()),
            p95_cost=float(np.percentile(costs, 95)),
            p95_time=float(np.percentile(times, 95)),
            deadline_miss_rate=misses,
            spot_completion_rate=float(np.mean(results.spot_completed)),
            ondemand_fallback_rate=float(np.mean(results.ondemand_completed)),
        )
