"""Spot-price history store.

The optimizer addresses markets by ``(instance_type_name, zone_name)``
pairs — the paper's *circle group* identity.  The history store owns one
trace per market and supports windowed views, which is what the adaptive
algorithm (Section 4.3) consumes: "update the spot price trace with the
spot price history from the previous window".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from ..errors import TraceError
from .trace import SpotPriceTrace


@dataclass(frozen=True, order=True)
class MarketKey:
    """Identity of one spot market: an instance type in an availability zone."""

    instance_type: str
    zone: str

    def __str__(self) -> str:
        return f"{self.instance_type}@{self.zone}"


class SpotPriceHistory:
    """A mapping from :class:`MarketKey` to :class:`SpotPriceTrace`."""

    def __init__(self) -> None:
        self._traces: Dict[MarketKey, SpotPriceTrace] = {}

    def add(self, key: MarketKey, trace: SpotPriceTrace) -> None:
        """Register or replace the trace for ``key``."""
        self._traces[key] = trace

    def extend(self, key: MarketKey, trace: SpotPriceTrace) -> None:
        """Append new observations to an existing market's history."""
        existing = self._traces.get(key)
        self._traces[key] = trace if existing is None else existing.concat(trace)

    def get(self, key: MarketKey) -> SpotPriceTrace:
        try:
            return self._traces[key]
        except KeyError:
            raise TraceError(f"no history for market {key}") from None

    def window(self, key: MarketKey, t0: float, t1: float) -> SpotPriceTrace:
        """History of ``key`` restricted to ``[t0, t1)``."""
        return self.get(key).slice(t0, t1)

    def keys(self) -> Iterator[MarketKey]:
        return iter(sorted(self._traces))

    def items(self) -> Iterator[Tuple[MarketKey, SpotPriceTrace]]:
        for key in self.keys():
            yield key, self._traces[key]

    def __contains__(self, key: MarketKey) -> bool:
        return key in self._traces

    def __len__(self) -> int:
        return len(self._traces)
