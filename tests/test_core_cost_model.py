"""Cost-model tests (Formulas 1-11).

The central check: the fast marginal-decomposition evaluator must agree
exactly with the naive joint enumeration the paper describes.
"""

import numpy as np
import pytest

from repro.cloud.instance_types import get_instance_type
from repro.core.cost_model import (
    Expectation,
    GroupOutcome,
    evaluate,
    expected_max,
    expected_min,
)
from repro.core.problem import OnDemandOption
from repro.errors import ConfigurationError
from tests.conftest import make_group
from tests.oracles.joint_enumeration import evaluate_enumerated


def outcome_from(spec, pmf, bid=0.05, interval=3.0, price=0.04, step=1.0):
    return GroupOutcome.from_pmf(spec, bid, interval, np.asarray(pmf, float), price, step)


@pytest.fixture
def ondemand():
    return OnDemandOption(get_instance_type("c3.xlarge"), 8, 6.0)


class TestGroupOutcome:
    def test_pmf_validation(self):
        spec = make_group(exec_time=4.0)
        with pytest.raises(ConfigurationError):
            outcome_from(spec, [0.5, 0.6])  # does not sum to 1
        with pytest.raises(ConfigurationError):
            outcome_from(spec, [1.0])  # too short

    def test_productive_and_wall_values(self):
        spec = make_group(exec_time=4.0, overhead=0.5)
        o = outcome_from(spec, [0.1, 0.1, 0.1, 0.1, 0.6], interval=2.0)
        assert np.allclose(o.productive, [0, 1, 2, 3, 4])
        # checkpoints at 2 only (the one at 4 == T is never taken)
        assert np.allclose(o.wall, [0, 1, 2.5, 3.5, 4.5])

    def test_completion_ratio_zero(self):
        spec = make_group(exec_time=4.0)
        o = outcome_from(spec, [0.25, 0.25, 0.25, 0.0, 0.25], interval=2.0)
        assert o.ratios[-1] == 0.0
        assert o.ratios[0] == 1.0

    def test_expected_spot_cost_hand_computed(self):
        spec = make_group(exec_time=2.0, overhead=0.0, n_instances=3)
        o = outcome_from(spec, [0.5, 0.0, 0.5], interval=2.0, price=0.1)
        # E[wall] = 0.5*0 + 0.5*2 = 1.0; cost = 0.1 * 3 * 1.0
        assert o.expected_spot_cost() == pytest.approx(0.3)

    def test_completion_probability(self):
        spec = make_group(exec_time=2.0)
        o = outcome_from(spec, [0.2, 0.3, 0.5])
        assert o.completion_probability == 0.5


class TestExtremes:
    def test_expected_min_single(self):
        v = np.array([0.0, 1.0, 2.0])
        p = np.array([0.2, 0.3, 0.5])
        assert expected_min([v], [p]) == pytest.approx(1.3)

    def test_expected_max_single(self):
        v = np.array([0.0, 1.0, 2.0])
        p = np.array([0.2, 0.3, 0.5])
        assert expected_max([v], [p]) == pytest.approx(1.3)

    def test_min_of_two_hand_computed(self):
        v1, p1 = np.array([1.0, 3.0]), np.array([0.5, 0.5])
        v2, p2 = np.array([2.0]), np.array([1.0])
        # min is 1 w.p. .5 and 2 w.p. .5
        assert expected_min([v1, v2], [p1, p2]) == pytest.approx(1.5)

    def test_max_of_two_hand_computed(self):
        v1, p1 = np.array([1.0, 3.0]), np.array([0.5, 0.5])
        v2, p2 = np.array([2.0]), np.array([1.0])
        assert expected_max([v1, v2], [p1, p2]) == pytest.approx(2.5)

    def test_min_le_max(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            vs, ps = [], []
            for _g in range(3):
                v = np.sort(rng.uniform(0, 5, size=4))
                p = rng.dirichlet(np.ones(4))
                vs.append(v)
                ps.append(p)
            assert expected_min(vs, ps) <= expected_max(vs, ps) + 1e-12


class TestEvaluateAgainstEnumeration:
    """evaluate() must equal the paper's literal joint sum."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_match(self, seed, ondemand):
        rng = np.random.default_rng(seed)
        outcomes = []
        for g in range(rng.integers(1, 4)):
            T = float(rng.integers(3, 7))
            spec = make_group(
                zone=f"us-east-1{'abc'[g]}",
                exec_time=T,
                overhead=float(rng.uniform(0, 0.5)),
                recovery=float(rng.uniform(0, 0.5)),
                n_instances=int(rng.integers(1, 8)),
            )
            n = int(np.ceil(T))
            pmf = rng.dirichlet(np.ones(n + 1))
            outcomes.append(
                outcome_from(
                    spec,
                    pmf,
                    interval=float(rng.uniform(0.5, T)),
                    price=float(rng.uniform(0.01, 0.2)),
                )
            )
        fast = evaluate(outcomes, ondemand)
        slow = evaluate_enumerated(outcomes, ondemand)
        assert fast.cost == pytest.approx(slow.cost, rel=1e-9)
        assert fast.time == pytest.approx(slow.time, rel=1e-9)
        assert fast.spot_cost == pytest.approx(slow.spot_cost, rel=1e-9)
        assert fast.ondemand_cost == pytest.approx(slow.ondemand_cost, rel=1e-9)
        assert fast.expected_min_ratio == pytest.approx(
            slow.expected_min_ratio, rel=1e-9
        )
        assert fast.expected_max_wall == pytest.approx(
            slow.expected_max_wall, rel=1e-9
        )

    def test_enumeration_guard(self, ondemand):
        spec = make_group(exec_time=10.0)
        o = outcome_from(spec, np.full(11, 1 / 11))
        with pytest.raises(ConfigurationError):
            evaluate_enumerated([o] * 8, ondemand, max_states=1000)

    def test_empty_outcomes_rejected(self, ondemand):
        with pytest.raises(ConfigurationError):
            evaluate([], ondemand)


class TestSemantics:
    def test_certain_completion_means_no_ondemand_cost(self, ondemand):
        spec = make_group(exec_time=4.0)
        pmf = [0, 0, 0, 0, 1.0]
        o = outcome_from(spec, pmf)
        exp = evaluate([o], ondemand)
        assert exp.ondemand_cost == 0.0
        assert exp.completion_probability == 1.0
        assert exp.time == pytest.approx(o.wall[-1])

    def test_certain_instant_failure_means_full_rerun(self, ondemand):
        spec = make_group(exec_time=4.0)
        pmf = [1.0, 0, 0, 0, 0]
        o = outcome_from(spec, pmf)
        exp = evaluate([o], ondemand)
        assert exp.expected_min_ratio == 1.0
        assert exp.ondemand_cost == pytest.approx(ondemand.full_run_cost)
        assert exp.completion_probability == 0.0

    def test_replication_raises_completion_probability(self, ondemand):
        spec_a = make_group(zone="us-east-1a", exec_time=4.0)
        spec_b = make_group(zone="us-east-1b", exec_time=4.0)
        pmf = [0.3, 0.1, 0.1, 0.0, 0.5]
        oa = outcome_from(spec_a, pmf)
        ob = outcome_from(spec_b, pmf)
        single = evaluate([oa], ondemand)
        double = evaluate([oa, ob], ondemand)
        assert double.completion_probability > single.completion_probability
        assert double.expected_min_ratio < single.expected_min_ratio

    def test_replication_costs_more_spot_but_less_ondemand(self, ondemand):
        spec_a = make_group(zone="us-east-1a", exec_time=4.0)
        spec_b = make_group(zone="us-east-1b", exec_time=4.0)
        pmf = [0.3, 0.1, 0.1, 0.0, 0.5]
        oa, ob = outcome_from(spec_a, pmf), outcome_from(spec_b, pmf)
        single = evaluate([oa], ondemand)
        double = evaluate([oa, ob], ondemand)
        assert double.spot_cost > single.spot_cost
        assert double.ondemand_cost < single.ondemand_cost

    def test_meets_deadline(self):
        exp = Expectation(1, 5.0, 1, 0, 0, 5, 1)
        assert exp.meets_deadline(5.0)
        assert not exp.meets_deadline(4.9)
