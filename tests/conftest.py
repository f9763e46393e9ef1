"""Shared fixtures.

``step_trace`` is a tiny hand-written price trace with known first-
exceedance structure, used wherever exactness matters.  ``small_env`` is
a reduced :class:`ExperimentEnv` (two instance types, two zones, short
history) that keeps integration tests fast while exercising the full
pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.instance_types import get_instance_type
from repro.cloud.zones import Zone
from repro.config import SompiConfig
from repro.core.problem import CircleGroupSpec, OnDemandOption, Problem
from repro.execution.batch_replay import replay_window_batch
from repro.experiments.env import ExperimentEnv
from repro.market.history import MarketKey
from repro.market.trace import SpotPriceTrace


@pytest.fixture(autouse=True, scope="session")
def _hermetic_artifact_dir(tmp_path_factory):
    """Point the artifact store at a per-run temp dir.

    Without this, any test that plans or replays would read/write the
    developer's real ``~/.cache`` store, making test outcomes depend on
    what was planned before.

    ``REPRO_TEST_ARTIFACT_DIR`` overrides the temp dir with a shared,
    pre-warmed store (CI pre-warms one with ``repro artifacts --warm``
    before the test shards, so every shard starts disk-warm).  Safe
    because artifacts are keyed by trace content + engine fingerprint
    and loads are fail-open: a warm store changes timings, never
    results.
    """
    import os

    from repro.execution.artifacts import ARTIFACT_DIR_ENV

    prev = os.environ.get(ARTIFACT_DIR_ENV)
    os.environ[ARTIFACT_DIR_ENV] = os.environ.get(
        "REPRO_TEST_ARTIFACT_DIR"
    ) or str(tmp_path_factory.mktemp("artifact-store"))
    yield
    if prev is None:
        os.environ.pop(ARTIFACT_DIR_ENV, None)
    else:
        os.environ[ARTIFACT_DIR_ENV] = prev


@pytest.fixture
def step_trace() -> SpotPriceTrace:
    """Price: 0.10 on [0,5), 0.50 on [5,8), 0.05 on [8,20), 2.0 on [20,24)."""
    return SpotPriceTrace(
        times=[0.0, 5.0, 8.0, 20.0],
        prices=[0.10, 0.50, 0.05, 2.0],
        end_time=24.0,
    )


@pytest.fixture
def flat_trace() -> SpotPriceTrace:
    """Constant price 0.10 over ten days."""
    return SpotPriceTrace(times=[0.0], prices=[0.10], end_time=240.0)


def make_group(
    key_type: str = "m1.small",
    zone: str = "us-east-1a",
    exec_time: float = 10.0,
    overhead: float = 0.1,
    recovery: float = 0.2,
    n_instances: int = 4,
) -> CircleGroupSpec:
    return CircleGroupSpec(
        key=MarketKey(key_type, zone),
        itype=get_instance_type(key_type),
        n_instances=n_instances,
        exec_time=exec_time,
        checkpoint_overhead=overhead,
        recovery_overhead=recovery,
    )


def replay_one_window(problem, decision, history, t0, t1, works=None, **kw):
    """One window ``[t0, t1)`` through the batched window kernel.

    ``works`` is the per-group remaining work (hours), for windows of a
    partially done run; the default is each group's full work.
    """
    if works is not None:
        works = np.asarray(works, dtype=float).reshape(-1, 1)
    return replay_window_batch(
        problem, decision, history, np.array([t0]), np.array([t1]),
        works=works, **kw,
    )[0]


@pytest.fixture
def simple_problem() -> Problem:
    """Two m1.small groups in different zones + two on-demand options."""
    g1 = make_group(zone="us-east-1a")
    g2 = make_group(zone="us-east-1b")
    it_small = get_instance_type("m1.small")
    it_big = get_instance_type("cc2.8xlarge")
    return Problem(
        groups=(g1, g2),
        ondemand_options=(
            OnDemandOption(it_small, 4, 10.0),
            OnDemandOption(it_big, 1, 4.0),
        ),
        deadline=20.0,
    )


@pytest.fixture(scope="session")
def small_env() -> ExperimentEnv:
    """Reduced environment: 2 types x 2 zones, 21 days of history."""
    return ExperimentEnv.paper_default(
        seed=11,
        history_days=21.0,
        train_days=7.0,
        config=SompiConfig(kappa=2, bid_levels=5),
        instance_types=("m1.medium", "cc2.8xlarge"),
        zones=(Zone("us-east-1a"), Zone("us-east-1b")),
    )


@pytest.fixture(scope="session")
def paper_env() -> ExperimentEnv:
    """Full paper environment (4 types x 3 zones); session-scoped because
    building failure models is the slow part."""
    return ExperimentEnv.paper_default(seed=7)
