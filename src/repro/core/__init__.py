"""SOMPI — the paper's contribution.

Monetary-cost optimization of deadline-constrained MPI applications on a
mix of spot and on-demand instances (Sections 3-4 of the paper):

* :mod:`~repro.core.problem` — circle groups, decision variables, the
  constrained problem (Formula 1).
* :mod:`~repro.core.ratio` — the remaining-work function ``Ratio(t, F)``
  (Formula 7).
* :mod:`~repro.core.cost_model` — expected monetary cost and execution
  time (Formulas 2-11), with an exact ``O(sum T_i)`` evaluator.
* :mod:`~repro.core.ondemand_select` — fallback on-demand type selection
  with Slack (Section 4.1).
* :mod:`~repro.core.interval` — the checkpoint-interval function
  ``F = phi(P)`` (dimension reduction, Section 4.2.2).
* :mod:`~repro.core.bid_search` — logarithmic bid-price candidates.
* :mod:`~repro.core.two_level` — vectorised two-level optimization.
* :mod:`~repro.core.subset` — kappa-of-K circle-group selection.
* :mod:`~repro.core.optimizer` — the :class:`SompiOptimizer` facade.
"""

from .problem import CircleGroupSpec, OnDemandOption, Problem, Decision, GroupDecision
from .ratio import ratio, ratio_array
from .cost_model import GroupOutcome, Expectation, evaluate
from .ondemand_select import select_ondemand
from .interval import young_interval, optimal_interval
from .bid_search import log_bid_candidates
from .two_level import TwoLevelOptimizer, SubsetResult
from .subset import enumerate_subsets
from .optimizer import SompiOptimizer, SompiPlan
from .chance import miss_probability, cost_quantile, sample_outcomes

__all__ = [
    "CircleGroupSpec",
    "OnDemandOption",
    "Problem",
    "Decision",
    "GroupDecision",
    "ratio",
    "ratio_array",
    "GroupOutcome",
    "Expectation",
    "evaluate",
    "select_ondemand",
    "young_interval",
    "optimal_interval",
    "log_bid_candidates",
    "TwoLevelOptimizer",
    "SubsetResult",
    "enumerate_subsets",
    "SompiOptimizer",
    "SompiPlan",
    "miss_probability",
    "cost_quantile",
    "sample_outcomes",
]
