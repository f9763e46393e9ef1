"""On-demand instance tests."""

import pytest

from repro.cloud.billing import HOURLY
from repro.cloud.instance_types import get_instance_type
from repro.cloud.ondemand import OnDemandInstance


class TestOnDemand:
    def test_cost_scales_with_count_and_time(self):
        inst = OnDemandInstance(get_instance_type("c3.xlarge"))
        assert inst.cost(2.0, count=32) == pytest.approx(2.0 * 0.210 * 32)

    def test_hourly_billing_policy(self):
        inst = OnDemandInstance(get_instance_type("m1.small"), billing=HOURLY)
        assert inst.cost(1.5) == pytest.approx(2 * 0.044)

    def test_negative_count_rejected(self):
        inst = OnDemandInstance(get_instance_type("m1.small"))
        with pytest.raises(ValueError):
            inst.cost(1.0, count=-1)
