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
from typing import Iterator, Optional, Tuple

from ..errors import ConfigurationError
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


def exhaustive_subset_search(
    optimizer: TwoLevelOptimizer,
    kappa: int,
    exact_size: bool = False,
) -> Optional[SubsetResult]:
    """Best result over all subsets (``None`` if every subset is infeasible).

    One :meth:`TwoLevelOptimizer.search_size` call per subset size, in
    size order, carries the incumbent across sizes: subsets whose
    admissible lower bound cannot beat the best feasible score seen so
    far are skipped without evaluating their bid combinations.  The
    bound is a true lower bound on the exact score, so the winner (and
    the reported ``combos_evaluated``) is identical with pruning off.
    """
    best: Optional[SubsetResult] = None
    subsets = enumerate_subsets(optimizer.problem.n_groups, kappa, exact_size)
    for _size, group in itertools.groupby(subsets, key=len):
        best = optimizer.search_size(list(group), best)
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
        # Each round's candidates are one subset size searched from no
        # incumbent: the stop rule below compares the round's best
        # against the overall best, so the round's best itself must come
        # out exactly as without pruning.
        round_best = optimizer.search_size(
            [tuple(chosen + [g]) for g in sorted(remaining)]
        )
        if round_best is None:
            break
        # Keep growing only while it helps; adding a replica costs money,
        # so the curve is not monotone.
        if best is not None and round_best.expectation.cost >= best.expectation.cost:
            break
        round_pick = round_best.group_indices[-1]
        chosen.append(round_pick)
        remaining.discard(round_pick)
        best = round_best
    return best
