"""The paper's literal joint enumeration of Formulas 2 and 8.

:func:`repro.core.cost_model.evaluate` factors the expectations through
per-group marginals in ``O(sum_i T_i log)``; this oracle sums over every
joint failure-time vector ``(t_1, ..., t_K)`` in ``O(prod_i T_i)``, as
the paper writes them.  The test suite cross-validates the two on small
instances, and the ablation bench times both.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.cost_model import Expectation, GroupOutcome
from repro.core.problem import OnDemandOption
from repro.errors import ConfigurationError


def evaluate_enumerated(
    outcomes: Sequence[GroupOutcome],
    ondemand: OnDemandOption,
    max_states: int = 20_000_000,
) -> Expectation:
    """Naive joint enumeration over all failure-time vectors.

    This is the paper's literal ``O(prod_i T_i)`` sum (Formulas 2 and 8),
    the verification oracle of :func:`repro.core.cost_model.evaluate`.
    """
    if not outcomes:
        raise ConfigurationError("need at least one group outcome")
    sizes = [o.pmf.size for o in outcomes]
    total = int(np.prod(sizes))
    if total > max_states:
        raise ConfigurationError(
            f"joint state space {total} exceeds max_states={max_states}; "
            "use evaluate() instead"
        )
    k = len(outcomes)
    shape_of = lambda i: tuple(
        sizes[j] if j == i else 1 for j in range(k)
    )  # noqa: E731 - local broadcasting helper

    joint_p = np.ones((1,) * k)
    for i, o in enumerate(outcomes):
        joint_p = joint_p * o.pmf.reshape(shape_of(i))

    spot = np.zeros((1,) * k)
    for i, o in enumerate(outcomes):
        per_state = o.expected_price * o.spec.n_instances * o.wall
        spot = spot + per_state.reshape(shape_of(i))

    min_ratio = np.full(tuple(sizes), np.inf)
    max_wall = np.zeros(tuple(sizes))
    for i, o in enumerate(outcomes):
        min_ratio = np.minimum(min_ratio, o.ratios.reshape(shape_of(i)))
        max_wall = np.maximum(max_wall, o.wall.reshape(shape_of(i)))

    e_spot = float((joint_p * spot).sum())
    e_min_ratio = float((joint_p * min_ratio).sum())
    e_max_wall = float((joint_p * max_wall).sum())
    od_cost = e_min_ratio * ondemand.full_run_cost
    time = e_max_wall + e_min_ratio * ondemand.exec_time
    completion = 1.0 - float(
        np.prod([1.0 - o.completion_probability for o in outcomes])
    )
    return Expectation(
        cost=e_spot + od_cost,
        time=time,
        spot_cost=e_spot,
        ondemand_cost=od_cost,
        expected_min_ratio=e_min_ratio,
        expected_max_wall=e_max_wall,
        completion_probability=completion,
    )
