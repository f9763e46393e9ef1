"""EC2-like cloud substrate.

Models the parts of Amazon EC2 the paper's system touches: the instance
catalog with 2014-era prices and capabilities, availability zones, the
spot-market primitives over a price trace (launch, out-of-bid,
integrated price), on-demand instances, hourly billing, and the
bandwidths of an S3-like checkpoint store.
"""

from .instance_types import (
    InstanceType,
    CATALOG,
    PAPER_TYPES,
    get_instance_type,
    instances_needed,
)
from .zones import Zone, DEFAULT_ZONES
from .billing import BillingPolicy, CostLedger, CostItem
from .spot import (
    first_exceedance,
    first_at_or_below,
    integrate_price,
)
from .ondemand import OnDemandInstance
from .s3 import S3Store

__all__ = [
    "InstanceType",
    "CATALOG",
    "PAPER_TYPES",
    "get_instance_type",
    "instances_needed",
    "Zone",
    "DEFAULT_ZONES",
    "BillingPolicy",
    "CostLedger",
    "CostItem",
    "first_exceedance",
    "first_at_or_below",
    "integrate_price",
    "OnDemandInstance",
    "S3Store",
]
