"""Per-subset exhaustive traversal: the parity oracle of the size-by-size
subset search.

This is the loop ``exhaustive_subset_search`` ran before each subset
size became one :meth:`TwoLevelOptimizer.search_size` call: one
``optimize_subset`` per subset in ``enumerate_subsets`` order, each
pruned against the live incumbent by the scalar ``_subset_bound``,
scored batch by batch with the one-shot expression of
``tests/oracles/subset_scores.py``, and resolved by the exact fallback.

Scores go into a memo private to one :class:`SubsetWalk`, filled the
way the shared score cache was — only when a subset is scored, and a
memo hit skips the spot-cost test — so a walk and a production search
that start from empty caches take the same path through the same
sequence of searches.  Exact re-evaluations go through the optimizer's
``_evaluate_exact`` (pure, and parity-tested on its own).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import two_level
from repro.core.subset import enumerate_subsets
from repro.core.two_level import SubsetResult, _combo_batches
from tests.oracles.subset_scores import subset_score_sums


class SubsetWalk:
    """Per-subset traversals sharing one score memo."""

    def __init__(self) -> None:
        self.scores: dict = {}
        #: ``(size, position in size)`` of every incumbent replacement.
        self.replacements: list = []
        #: Subsets skipped by the bound, over all walks.
        self.pruned = 0

    def exhaustive(self, opt, kappa: int):
        """``(best SubsetResult or None, combos covered)``."""
        best = None
        combos = 0
        position = {}
        for subset in enumerate_subsets(opt.problem.n_groups, kappa):
            size = len(subset)
            pos = position[size] = position.get(size, -1) + 1
            prune_above = None if best is None else best.expectation.cost
            result, total = self.visit(opt, subset, prune_above)
            combos += total
            if result is None:
                continue
            if best is None or result.expectation.cost < best.expectation.cost:
                self.replacements.append((size, pos))
                best = result
        return best, combos

    def visit(self, opt, subset, prune_above):
        """One subset of the loop, as the per-subset
        ``optimize_subset(subset, prune_above)`` ran it: ``(result or
        None, combos covered)``."""
        opt._build_tables()
        tables = [opt._tables[i] for i in subset]
        total = math.prod(t.n_bids for t in tables)
        if prune_above is not None and opt._subset_bound(tables) >= (
            prune_above * (1.0 + two_level._PRUNE_MARGIN) + 1e-12
        ):
            self.pruned += 1
            return None, total
        return self._optimize(opt, subset, tables, total, prune_above), total

    def _batches(self, opt, tables, total, prune_above):
        key = None
        if total <= two_level._MAX_BATCH:
            key = (tuple(t.token for t in tables), opt._wall_hi)
            if key in self.scores:
                yield self.scores[key]
                return
        for batch in _combo_batches([t.n_bids for t in tables], two_level._MAX_BATCH):
            cost_spot = np.zeros(batch.shape[0])
            for g, table in enumerate(tables):
                cost_spot += table.e_spot[batch[:, g]]
            if prune_above is not None and float(cost_spot.min()) >= prune_above:
                continue
            sum_r, sum_w = subset_score_sums(tables, batch)
            e_min_ratio = opt._ratio_delta * sum_r
            e_max_wall = opt._wall_delta * sum_w
            cost = cost_spot + e_min_ratio * opt.ondemand.full_run_cost
            time = e_max_wall + e_min_ratio * opt.ondemand.exec_time
            if key is not None:
                self.scores[key] = (batch, cost, time)
            yield batch, cost, time

    def _optimize(self, opt, subset, tables, total, prune_above):
        tries = two_level._EXACT_FALLBACK_TRIES
        deadline = opt.problem.deadline
        candidates = []
        for batch, cost, time in self._batches(opt, tables, total, prune_above):
            feasible = np.flatnonzero(time <= deadline * 1.02 + 1e-9)
            if feasible.size > tries:
                top = np.argpartition(cost[feasible], tries)
                feasible = feasible[top[:tries]]
            candidates += [(float(cost[c]), tuple(batch[c].tolist())) for c in feasible]
        # Python's sort is stable: ties keep collection order.
        candidates.sort(key=lambda item: item[0])
        for _cost, combo in candidates[:tries]:
            outcomes = [t.outcomes[b] for t, b in zip(tables, combo)]
            exact = opt._evaluate_exact(tables, combo, outcomes)
            ok = exact.meets_deadline(deadline)
            if ok and opt.config.max_miss_probability is not None:
                from repro.core.chance import miss_probability

                ok = (
                    miss_probability(outcomes, opt.ondemand, deadline)
                    <= opt.config.max_miss_probability + 1e-9
                )
            if ok:
                return SubsetResult(
                    group_indices=tuple(subset),
                    bids=tuple(float(t.bids[b]) for t, b in zip(tables, combo)),
                    intervals=tuple(
                        float(t.intervals[b]) for t, b in zip(tables, combo)
                    ),
                    expectation=exact,
                    combos_evaluated=total,
                )
        return None
