"""Trace-generation benchmark: scalar reference vs event-level sampler.

Samples long repricing grids from a few canonical market presets (plus
a deliberately spiky stress market) with the scalar reference kernel
(``tests/oracles/market_generator.py``, one Python step per grid point
— the seed implementation) and with the event-level
sampler the generator now uses, asserts the two are byte-identical
under a shared seed, and reports the step throughput of both.
"""

from __future__ import annotations

import time

import numpy as np

from repro.market.generator import RegimeSwitchingGenerator, SpotMarketParams
from repro.market.presets import market_params
from tests.oracles.market_generator import sample_grid_reference

#: (label, params) markets exercised by the benchmark.  The presets are
#: the experiments' own calm/spiky calibrations; the stress market keeps
#: the sampler honest where nearly every step is an event.
_MARKETS = [
    ("m1.medium/us-east-1a", market_params("m1.medium", "us-east-1a")),
    ("cc2.8xlarge/us-east-1c", market_params("cc2.8xlarge", "us-east-1c")),
    (
        "stress-spiky",
        SpotMarketParams(
            base_price=0.05,
            calm_change_rate=6.0,
            spike_rate=1.5,
            spike_duration_mean=0.3,
        ),
    ),
]

_SEED = 20140731


def run(quick: bool = False) -> dict:
    # 30 (quick) / 180 days of 5-minute grid per market.
    n = 12 * 24 * (30 if quick else 180)
    steps = 0
    scalar_s = 0.0
    vector_s = 0.0
    for i, (label, params) in enumerate(_MARKETS):
        gen = RegimeSwitchingGenerator(
            params, np.random.default_rng(_SEED + i)
        )
        t0 = time.perf_counter()
        vec = gen._sample_grid(n)
        t1 = time.perf_counter()
        ref = sample_grid_reference(params, np.random.default_rng(_SEED + i), n)
        t2 = time.perf_counter()
        assert vec.tobytes() == ref.tobytes(), (
            f"event-level sampler diverged from scalar reference ({label})"
        )
        steps += n
        vector_s += t1 - t0
        scalar_s += t2 - t1

    return {
        "suite": "market",
        "grid_steps": steps,
        "metrics": {
            "generation": {
                "scalar_steps_per_s": round(steps / scalar_s, 1),
                "vectorized_steps_per_s": round(steps / vector_s, 1),
                "seed_s": round(scalar_s, 4),
                "optimized_s": round(vector_s, 4),
                "speedup": round(scalar_s / vector_s, 2) if vector_s > 0 else None,
            },
        },
        "primary": {"name": "generation.optimized_s", "seconds": vector_s},
    }
