"""Prepared marginals are bit-identical to per-call survival lookups.

``cost_model.prepare_marginal`` computes a row's distinct values, its
stably sorted values and its tail sums once; ``expected_min``,
``expected_max``, ``evaluate`` and the planner's quadrature grids and
exact re-evaluations read them instead of re-sorting the row on every
call.  The oracle in ``tests/oracles/exact_eval.py`` is the per-call
code they replaced; every comparison here is ``==`` on float64
(DESIGN.md §8, "Prepared marginals").
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instance_types import get_instance_type
from repro.config import SompiConfig
from repro.core.cost_model import (
    GroupOutcome,
    evaluate,
    expected_max,
    expected_min,
    prepare_marginal,
    survival_at,
)
from repro.core.ondemand_select import select_ondemand
from repro.core.problem import OnDemandOption, Problem
from repro.core.two_level import TwoLevelOptimizer, clear_shared_caches
from repro.market.failure import FailureModel
from repro.market.trace import SpotPriceTrace
from tests.conftest import make_group
from tests.oracles import exact_eval as oracle


def _pmf(rng, n):
    return rng.dirichlet(np.ones(n))


def assert_both_extremes_equal(values, pmfs):
    assert expected_min(values, pmfs) == oracle.expected_min(values, pmfs)
    assert expected_max(values, pmfs) == oracle.expected_max(values, pmfs)


class TestExtremesParity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ties_within_and_across_rows(self, k):
        rng = np.random.default_rng(10 + k)
        values = [
            np.array([2.0, 1.0, 2.0, 3.0, 1.0, 2.0])[rng.permutation(6)]
            for _ in range(k)
        ]
        pmfs = [_pmf(rng, 6) for _ in range(k)]
        assert_both_extremes_equal(values, pmfs)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_values(self, k):
        rng = np.random.default_rng(20 + k)
        values = [
            np.array([0.0, 0.5, 0.0, 1.5, -0.0, 2.5])[rng.permutation(6)]
            for _ in range(k)
        ]
        pmfs = [_pmf(rng, 6) for _ in range(k)]
        assert_both_extremes_equal(values, pmfs)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_zero_support_is_zero(self, k):
        values = [np.zeros(4) for _ in range(k)]
        pmfs = [np.full(4, 0.25) for _ in range(k)]
        assert expected_min(values, pmfs) == 0.0
        assert expected_max(values, pmfs) == 0.0
        assert_both_extremes_equal(values, pmfs)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_completion_atom_rows(self, k):
        """Real outcome rows: the completion atom is ratio 0.0 and the
        largest wall, with a heavy pmf tail on it."""
        outcomes = _outcomes(k)
        for field in ("ratios", "wall"):
            values = [getattr(o, field) for o in outcomes]
            pmfs = [o.pmf for o in outcomes]
            assert_both_extremes_equal(values, pmfs)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.integers(1, 8).flatmap(
                lambda n: st.tuples(
                    st.lists(
                        st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])
                        | st.floats(0.0, 10.0),
                        min_size=n,
                        max_size=n,
                    ),
                    st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                )
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_hypothesis_rows(self, rows):
        values = [np.array(v, dtype=float) for v, _ in rows]
        pmfs = []
        for _, w in rows:
            w = np.array(w, dtype=float) + 1e-3
            pmfs.append(w / w.sum())
        assert_both_extremes_equal(values, pmfs)


class TestSurvivalParity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_quadrature_rows_match_per_call_survival(self, k):
        # The planner's wall grid spans the largest wall of any group,
        # so a row's midpoints run past its own largest value.
        mid = (np.arange(256) + 0.5) / 256
        for o in _outcomes(k):
            for values in (o.ratios, o.wall):
                grid = mid * 1.5 * max(float(values.max()), 1e-9)
                got = survival_at(prepare_marginal(values, o.pmf), grid)
                want = oracle._survival_at(values, o.pmf, grid)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestEvaluateParity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_evaluate_reads_the_oracle_extremes(self, k):
        outcomes = _outcomes(k)
        od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 6.0)
        exp = evaluate(outcomes, od)
        pmfs = [o.pmf for o in outcomes]
        e_min = oracle.expected_min([o.ratios for o in outcomes], pmfs)
        e_max = oracle.expected_max([o.wall for o in outcomes], pmfs)
        assert exp.expected_min_ratio == e_min
        assert exp.expected_max_wall == e_max
        assert exp.ondemand_cost == e_min * od.full_run_cost
        assert exp.time == e_max + e_min * od.exec_time

    def test_planner_exact_reevaluation_reads_cached_marginals(self):
        """The optimizer's exact re-evaluation (row marginals prepared
        once per table row) equals a from-scratch ``evaluate``."""
        clear_shared_caches()
        groups = tuple(
            make_group(zone=z, exec_time=8.0, overhead=0.1, recovery=0.1)
            for z in ("us-east-1a", "us-east-1b")
        )
        problem = Problem(
            groups=groups,
            ondemand_options=(
                OnDemandOption(get_instance_type("c3.xlarge"), 8, 7.0),
            ),
            deadline=14.0,
        )
        models = {
            g.key: FailureModel(_stepped_trace(period))
            for g, period in zip(groups, (6.0, 9.0))
        }
        _, od = select_ondemand(problem.ondemand_options, problem.deadline, 0.2)
        opt = TwoLevelOptimizer(
            problem, models, od, SompiConfig(kappa=2, bid_levels=4)
        )
        opt._build_tables()
        tables = [opt._tables[0], opt._tables[1]]
        for combo in [(0, 0), (1, 3), (4, 2), (1, 3)]:
            outcomes = [t.outcomes[b] for t, b in zip(tables, combo)]
            got = opt._evaluate_exact(tables, combo, outcomes)
            assert got == evaluate(outcomes, od)
        assert set(tables[0].marginals) >= {0, 1, 4}
        clear_shared_caches()


def _stepped_trace(period, hours=240.0):
    times, prices = [], []
    k = 0
    while k * period < hours:
        times += [k * period, k * period + period / 2]
        prices += [0.04, 0.9]
        k += 1
    return SpotPriceTrace(times, prices, hours + period)


def _outcomes(k):
    specs = [
        make_group(zone=z, exec_time=t, overhead=0.2, recovery=0.1)
        for z, t in zip(("us-east-1a", "us-east-1b", "us-east-1c"), (6.0, 7.5, 5.0))
    ][:k]
    out = []
    for i, spec in enumerate(specs):
        n = int(np.ceil(spec.exec_time))
        pmf = np.full(n + 1, 0.4 / n)
        pmf[n] = 0.6  # the completion atom
        out.append(
            GroupOutcome.from_pmf(spec, 0.05, 2.0 + i, pmf, expected_price=0.04)
        )
    return out
