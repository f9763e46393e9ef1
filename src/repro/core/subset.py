"""Circle-group subset selection (Section 4.4).

Only ``kappa`` of the ``K`` candidate circle groups actually run the
application.  The paper traverses every combination of ``kappa`` groups
and keeps the cheapest feasible solution; since a solution that leaves a
slot empty is also admissible (a zero bid means "do not use the group"),
we traverse all subsets of size ``1..kappa``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Tuple

from ..errors import ConfigurationError
from .two_level import SubsetResult, TwoLevelOptimizer


def enumerate_subsets(n_groups: int, kappa: int) -> Iterator[Tuple[int, ...]]:
    """All candidate subsets of the ``K`` groups: every size
    ``1..min(kappa, K)``, smallest first, each size in
    :func:`itertools.combinations` order.

    Smaller subsets are never worse than the paper's literal size-``kappa``
    traversal and let the optimizer drop useless replicas.
    """
    if n_groups < 1:
        raise ConfigurationError(f"n_groups must be >= 1, got {n_groups}")
    if kappa < 1:
        raise ConfigurationError(f"kappa must be >= 1, got {kappa}")
    for size in range(1, min(kappa, n_groups) + 1):
        yield from itertools.combinations(range(n_groups), size)


def exhaustive_subset_search(
    optimizer: TwoLevelOptimizer,
    kappa: int,
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
    subsets = enumerate_subsets(optimizer.problem.n_groups, kappa)
    for _size, group in itertools.groupby(subsets, key=len):
        best = optimizer.search_size(list(group), best)
    return best
