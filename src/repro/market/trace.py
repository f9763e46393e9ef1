"""Piecewise-constant spot-price traces.

Amazon repriced spot instances at irregular intervals; a price series is
therefore a right-open step function: the price set at ``times[k]`` holds
until ``times[k+1]`` (or ``end_time`` for the last segment).  All times
are hours, all prices dollars per instance-hour.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np

from ..errors import TraceError


class SpotPriceTrace:
    """A spot-price step function on ``[times[0], end_time)``.

    Parameters
    ----------
    times:
        Segment start times in hours, strictly increasing.
    prices:
        Price of each segment, same length as ``times``, all >= 0.
    end_time:
        End of the observation window; must exceed ``times[-1]``.
    """

    # _chash caches the content hash used by the on-disk artifact store.
    __slots__ = ("times", "prices", "end_time", "_chash")

    def __init__(
        self,
        times: Iterable[float],
        prices: Iterable[float],
        end_time: float,
    ) -> None:
        t = np.asarray(list(times) if not isinstance(times, np.ndarray) else times, dtype=float)
        p = np.asarray(list(prices) if not isinstance(prices, np.ndarray) else prices, dtype=float)
        if t.ndim != 1 or p.ndim != 1 or t.shape != p.shape:
            raise TraceError("times and prices must be 1-D arrays of equal length")
        if t.size == 0:
            raise TraceError("a trace needs at least one segment")
        if np.any(np.diff(t) <= 0):
            raise TraceError("times must be strictly increasing")
        if np.any(~np.isfinite(t)) or np.any(~np.isfinite(p)):
            raise TraceError("times and prices must be finite")
        if np.any(p < 0):
            raise TraceError("prices must be non-negative")
        if end_time <= t[-1]:
            raise TraceError(
                f"end_time ({end_time}) must exceed the last segment start ({t[-1]})"
            )
        self.times = t
        self.prices = p
        self.end_time = float(end_time)
        self._chash: str | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def start_time(self) -> float:
        return float(self.times[0])

    @property
    def duration(self) -> float:
        """Length of the observation window in hours."""
        return self.end_time - self.start_time

    @property
    def n_segments(self) -> int:
        return int(self.times.size)

    def segment_durations(self) -> np.ndarray:
        """Duration of each constant-price segment."""
        ends = np.append(self.times[1:], self.end_time)
        return ends - self.times

    def segments(self) -> Iterator[Tuple[float, float, float]]:
        """Yield ``(start, end, price)`` triples."""
        ends = np.append(self.times[1:], self.end_time)
        for start, end, price in zip(self.times, ends, self.prices):
            yield float(start), float(end), float(price)

    # ------------------------------------------------------------------
    # Point and array evaluation
    # ------------------------------------------------------------------
    def price_at(self, t: float) -> float:
        """Price in effect at time ``t`` (must lie inside the window)."""
        if not self.start_time <= t < self.end_time:
            raise TraceError(
                f"t={t} outside trace window [{self.start_time}, {self.end_time})"
            )
        idx = int(np.searchsorted(self.times, t, side="right") - 1)
        return float(self.prices[idx])

    def prices_at(self, ts: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`price_at` (no bounds clamping — raises)."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < self.start_time or ts.max() >= self.end_time):
            raise TraceError("sample times outside trace window")
        idx = np.searchsorted(self.times, ts, side="right") - 1
        return self.prices[idx]

    def resample(self, step: float) -> np.ndarray:
        """Sample the trace on a regular grid of spacing ``step`` hours.

        Returns the price at ``start, start+step, ...`` for every grid
        point strictly inside the window.  This is the representation the
        failure model operates on.
        """
        if step <= 0:
            raise TraceError(f"step must be > 0, got {step}")
        n = int(np.floor(self.duration / step))
        if n == 0:
            raise TraceError("window shorter than one step")
        grid = self.start_time + step * np.arange(n)
        return self.prices_at(grid)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def slice(self, t0: float, t1: float) -> "SpotPriceTrace":
        """Restrict to the window ``[t0, t1)``."""
        if not (self.start_time <= t0 < t1 <= self.end_time):
            raise TraceError(
                f"slice [{t0}, {t1}) outside window "
                f"[{self.start_time}, {self.end_time})"
            )
        lo = int(np.searchsorted(self.times, t0, side="right") - 1)
        hi = int(np.searchsorted(self.times, t1, side="left"))
        times = self.times[lo:hi].copy()
        prices = self.prices[lo:hi].copy()
        times[0] = t0
        return SpotPriceTrace(times, prices, t1)

    def shift(self, dt: float) -> "SpotPriceTrace":
        """Translate the whole trace by ``dt`` hours."""
        return SpotPriceTrace(self.times + dt, self.prices, self.end_time + dt)

    def concat(self, other: "SpotPriceTrace") -> "SpotPriceTrace":
        """Append ``other`` (shifted to start at this trace's end)."""
        shifted = other.shift(self.end_time - other.start_time)
        return SpotPriceTrace(
            np.concatenate([self.times, shifted.times]),
            np.concatenate([self.prices, shifted.prices]),
            shifted.end_time,
        )

    # ------------------------------------------------------------------
    # Time-weighted statistics
    # ------------------------------------------------------------------
    def max_price(self) -> float:
        """Highest price in the window (the paper's ``H_i``)."""
        return float(self.prices.max())

    def min_price(self) -> float:
        return float(self.prices.min())

    def mean_price(self) -> float:
        """Time-weighted mean price."""
        w = self.segment_durations()
        return float(np.average(self.prices, weights=w))

    def quantile(self, q: float) -> float:
        """Time-weighted price quantile, ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise TraceError(f"quantile must be in [0, 1], got {q}")
        order = np.argsort(self.prices, kind="stable")
        w = self.segment_durations()[order]
        cum = np.cumsum(w)
        target = q * cum[-1]
        idx = int(np.searchsorted(cum, target, side="left"))
        idx = min(idx, order.size - 1)
        return float(self.prices[order][idx])

    def fraction_below(self, price: float) -> float:
        """Fraction of window time with spot price <= ``price``."""
        w = self.segment_durations()
        return float(w[self.prices <= price].sum() / w.sum())

    def content_hash(self) -> str:
        """SHA-256 over the exact float64 bytes of the trace.

        Two traces share a hash iff their step functions are
        bit-identical, which is the keying contract of the on-disk
        artifact store (:mod:`repro.execution.artifacts`): equal hash
        implies every table derived from the trace is bit-identical
        too.  Traces are value objects — nothing mutates ``times`` /
        ``prices`` after construction — so the digest is computed once
        and cached on the instance.
        """
        if self._chash is None:
            import hashlib

            h = hashlib.sha256()
            h.update(self.times.tobytes())
            h.update(self.prices.tobytes())
            h.update(self.end_time.hex().encode())
            self._chash = h.hexdigest()
        return self._chash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpotPriceTrace):
            return NotImplemented
        return (
            self.end_time == other.end_time
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.prices, other.prices)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SpotPriceTrace(window=[{self.start_time:.3g}, {self.end_time:.3g})h, "
            f"segments={self.n_segments}, "
            f"price=[{self.min_price():.4g}, {self.max_price():.4g}]$)"
        )
