"""Hybrid execution: replay, Monte-Carlo evaluation, adaptive algorithm.

This package *executes* decisions against spot-price traces, with the
hybrid semantics of Section 3.1.1:

* every selected circle group runs a replica with independent
  checkpointing;
* the first group to finish completes the application and terminates the
  others;
* if all groups die, the checkpoint closest to completion seeds an
  on-demand recovery run.

:mod:`~repro.execution.replay` walks one decision through the actual
trace (the paper's "replaying the trace from the spot market"
methodology, Section 5.1) on the batched engine of
:mod:`~repro.execution.batch_replay`; :mod:`~repro.execution.montecarlo`
repeats replays from random starting points to estimate expected cost
and time; :mod:`~repro.execution.adaptive` implements Algorithm 1
(windowed re-optimization with refreshed failure models).
"""

from .results import GroupRunRecord, RunResult, MonteCarloSummary
from .replay import replay_decision, WindowOutcome
from .montecarlo import evaluate_decision_mc
from .adaptive import AdaptiveExecutor, AdaptiveResult, WindowRecord

__all__ = [
    "GroupRunRecord",
    "RunResult",
    "MonteCarloSummary",
    "replay_decision",
    "WindowOutcome",
    "evaluate_decision_mc",
    "AdaptiveExecutor",
    "AdaptiveResult",
    "WindowRecord",
]
