"""S3-like checkpoint store: the bandwidth a checkpoint upload sees.

The paper stores BLCR checkpoints in Amazon S3 and observes that storage
adds < 0.1% to the total bill.  The storage bill itself is accounted per
replay by :func:`repro.execution.replay.checkpoint_storage_cost`; this
model supplies the transfer bandwidths the checkpoint overhead model
(:func:`repro.mpi.timing.estimate_checkpoint`) prices uploads with.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class S3Store:
    """A bucket's 2014-era transfer bandwidths.

    Attributes
    ----------
    bandwidth_mbps:
        Effective per-instance transfer bandwidth to S3 in MB/s, used to
        estimate checkpoint upload/download time.
    aggregate_mbps:
        A single bucket/prefix sustains only so much parallel throughput
        (2014-era S3); a 128-instance fleet cannot upload 128x faster.
    """

    bandwidth_mbps: float = 50.0
    aggregate_mbps: float = 400.0
