"""S3 store and on-demand instance tests."""

import pytest

from repro.cloud.billing import HOURLY
from repro.cloud.instance_types import get_instance_type
from repro.cloud.ondemand import OnDemandInstance
from repro.cloud.s3 import S3Store
from repro.errors import CheckpointError
from repro.units import BYTES_PER_GB


class TestS3:
    def test_put_get_delete(self):
        s3 = S3Store()
        s3.put("ckpt/1", 10 * BYTES_PER_GB, now=0.0)
        assert s3.get("ckpt/1").size_bytes == 10 * BYTES_PER_GB
        s3.delete("ckpt/1", now=5.0)
        with pytest.raises(CheckpointError):
            s3.get("ckpt/1")

    def test_overwrite_stops_old_accrual(self):
        s3 = S3Store()
        s3.put("k", BYTES_PER_GB, now=0.0)
        s3.put("k", BYTES_PER_GB, now=10.0)
        # 10 GB-hours from the old object + 10 from the new one at t=20.
        cost = s3.storage_cost(now=20.0)
        assert cost == pytest.approx(20 * 0.03 / 730.0)

    def test_storage_cost_is_tiny_relative_to_compute(self):
        """The paper's claim: checkpoint storage < 0.1% of the bill."""
        s3 = S3Store()
        s3.put("ckpt", 45 * BYTES_PER_GB, now=0.0)  # BT-sized image
        storage = s3.storage_cost(now=24.0)
        compute = 24.0 * 0.044 * 128  # one day of 128 m1.smalls
        assert storage / compute < 0.001

    def test_transfer_hours(self):
        s3 = S3Store(bandwidth_mbps=50.0)
        secs = s3.transfer_hours(50.0 * 1024**2) * 3600.0
        assert secs == pytest.approx(1.0)

    def test_missing_object(self):
        with pytest.raises(CheckpointError):
            S3Store().get("nope")


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
