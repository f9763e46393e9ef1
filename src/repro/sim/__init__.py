"""Reproducible randomness.

:mod:`~repro.sim.rng` — named, reproducibly-seeded random streams that
the market presets, the experiments and the backtest harness draw
from.
"""

from .rng import RngRegistry, derive_seed

__all__ = [
    "RngRegistry",
    "derive_seed",
]
