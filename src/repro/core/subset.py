"""Circle-group subset selection (Section 4.4).

Only ``kappa`` of the ``K`` candidate circle groups actually run the
application.  The paper traverses every combination of ``kappa`` groups
and keeps the cheapest feasible solution; since a solution that leaves a
slot empty is also admissible (a zero bid means "do not use the group"),
we traverse all subsets of size ``1..kappa``.

A greedy alternative (grow the subset by the group that improves the
expected cost most) is provided as an extension; the ablation benchmark
compares its solution quality and search cost against the exhaustive
traversal.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from . import grid_eval
from .two_level import SubsetResult, TwoLevelOptimizer


def enumerate_subsets(
    n_groups: int, kappa: int, exact_size: bool = False
) -> Iterator[Tuple[int, ...]]:
    """All candidate subsets of the ``K`` groups.

    ``exact_size=True`` yields only size-``kappa`` subsets (the paper's
    literal traversal); the default also yields smaller subsets, which is
    never worse and lets the optimizer drop useless replicas.
    """
    if n_groups < 1:
        raise ConfigurationError(f"n_groups must be >= 1, got {n_groups}")
    if kappa < 1:
        raise ConfigurationError(f"kappa must be >= 1, got {kappa}")
    kappa = min(kappa, n_groups)
    sizes = [kappa] if exact_size else range(1, kappa + 1)
    for size in sizes:
        yield from itertools.combinations(range(n_groups), size)


def _precomputed_bounds(
    optimizer: TwoLevelOptimizer,
    subsets: Sequence[Tuple[int, ...]],
) -> Dict[Tuple[int, ...], float]:
    """Admissible bounds for every candidate subset in one array program.

    The traversal's per-subset bounds come from one
    :func:`repro.core.grid_eval.subset_bounds` call per subset size.
    The per-group floors and the accumulation order are the scalar
    ``TwoLevelOptimizer._subset_bound``'s (its parity oracle), so every
    bound — and therefore every incumbent pruning decision — is
    bit-identical to deriving it subset by subset.
    """
    subsets = list(subsets)
    if not subsets:
        return {}
    n = optimizer.problem.n_groups
    min_spot = np.empty(n)
    min_ratio = np.empty(n)
    for i in range(n):
        table = optimizer.group_table(i)
        min_spot[i] = table.e_spot.min()
        min_ratio[i] = table.e_ratio.min()
    by_size: Dict[int, list] = {}
    for subset in subsets:
        by_size.setdefault(len(subset), []).append(subset)
    bounds: Dict[Tuple[int, ...], float] = {}
    for group in by_size.values():
        cost_b = grid_eval.subset_bounds(
            min_spot, min_ratio,
            np.array(group, dtype=np.intp),
            optimizer.ondemand.full_run_cost,
        )
        for subset, value in zip(group, cost_b):
            bounds[subset] = float(value)
    return bounds


def exhaustive_subset_search(
    optimizer: TwoLevelOptimizer,
    kappa: int,
    exact_size: bool = False,
) -> Optional[SubsetResult]:
    """Best result over all subsets (``None`` if every subset is infeasible).

    The traversal keeps an incumbent and hands its score to
    :meth:`TwoLevelOptimizer.optimize_subset` as ``prune_above``: subsets
    whose admissible lower bound cannot beat the best feasible score seen
    so far are skipped without evaluating their bid combinations.  The
    bound is a true lower bound on the exact score, so the winner (and
    the reported ``combos_evaluated``) is identical with pruning off.
    """
    best: Optional[SubsetResult] = None
    subsets = list(
        enumerate_subsets(optimizer.problem.n_groups, kappa, exact_size)
    )
    bounds = _precomputed_bounds(optimizer, subsets)
    for subset in subsets:
        result = optimizer.optimize_subset(
            subset,
            prune_above=None if best is None else best.expectation.cost,
            bound=bounds[subset],
        )
        if result is None:
            continue
        if best is None or result.expectation.cost < best.expectation.cost:
            best = result
    return best


def greedy_subset_search(
    optimizer: TwoLevelOptimizer,
    kappa: int,
) -> Optional[SubsetResult]:
    """Grow the subset greedily: start from the best single group, then
    repeatedly add the group that lowers the expected cost the most.

    Evaluates ``O(K * kappa)`` subsets instead of ``O(C(K, kappa))``.
    """
    n = optimizer.problem.n_groups
    kappa = min(kappa, n)
    chosen: list[int] = []
    best: Optional[SubsetResult] = None
    remaining = set(range(n))
    for _ in range(kappa):
        round_best: Optional[SubsetResult] = None
        round_pick: Optional[int] = None
        candidates = [tuple(chosen + [g]) for g in sorted(remaining)]
        bounds = _precomputed_bounds(optimizer, candidates)
        for subset in candidates:
            g = subset[-1]
            # Prune against the *round* incumbent only: the stop rule
            # below compares round_best against the overall best, so
            # round_best itself must come out exactly as without pruning.
            result = optimizer.optimize_subset(
                subset,
                prune_above=(
                    None if round_best is None else round_best.expectation.cost
                ),
                bound=bounds[subset],
            )
            if result is None:
                continue
            if (
                round_best is None
                or result.expectation.cost < round_best.expectation.cost
            ):
                round_best, round_pick = result, g
        if round_pick is None:
            break
        # Keep growing only while it helps; adding a replica costs money,
        # so the curve is not monotone.
        if best is not None and round_best.expectation.cost >= best.expectation.cost:
            break
        chosen.append(round_pick)
        remaining.discard(round_pick)
        best = round_best
    return best
