"""Shared array kernels for batched trace replay.

Everything the batched replay paths (:mod:`.batch_replay`) need to turn
per-sample ``while`` loops into level-by-level array iteration lives
here:

* **Per-(trace, bid) index tables** — the ``searchsorted`` scaffolding
  (segment times with a ``+inf`` sentinel, the below-bid mask, and the
  next-launch / next-death segment indices) that resolves every
  ``first_at_or_below`` / ``first_exceedance`` query in O(log n) instead
  of an O(n) suffix scan.  The planner and the Monte-Carlo evaluator
  replay the *same* (trace, bid) pairs thousands of times, so the tables
  are promoted into a shared cache alongside the planner's group-table
  caches: always on (the cache is exact, so a cold and a warm lookup
  return identical tables), cleared by
  :func:`repro.core.two_level.clear_shared_caches`, and evicted
  automatically when the trace is garbage collected.

* **Batch spot billing** — :func:`billed_cost_batch` bills a whole
  array of run windows under either billing policy, bitwise equal per
  window to :func:`repro.cloud.spot.billed_spot_cost`.

* **Vectorised checkpoint-timeline arithmetic** — elementwise versions
  of :func:`repro.core.ckpt_math.checkpoints_completed`,
  :func:`~repro.core.ckpt_math.total_wall` and
  :func:`~repro.core.ckpt_math.progress_after_wall` with the identical
  branch structure and float operations, so batched results are
  bit-identical to the scalar loop they replace.  That bit-identity is
  the hard contract of the whole kernel layer (DESIGN.md §8): same IEEE
  ops in the same order, verified by the parity tests and the
  :mod:`repro.obs` audit layer.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..core.two_level import register_cache_clearer
from ..errors import TraceError

#: Scalar reference for every public kernel: each entry pairs a
#: vectorized function with the dotted path of the scalar code it must
#: be bit-identical to, and the name must be exercised by
#: tests/test_batch_parity.py (coverage: tests/test_kernel_oracles.py).
KERNEL_ORACLES = {
    "trace_tables": "repro.cloud.spot.first_at_or_below",
    "billed_cost_batch": "repro.cloud.spot.billed_spot_cost",
    "checkpoints_completed_arr": "repro.core.ckpt_math.checkpoints_completed",
    "total_wall_arr": "repro.core.ckpt_math.total_wall",
    "progress_after_wall_arr": "repro.core.ckpt_math.progress_after_wall",
}


# ----------------------------------------------------------------------
# Per-(trace, bid) index tables
# ----------------------------------------------------------------------

@dataclass
class TraceBidTables:
    """Precomputed launch/death scaffolding for one (trace, bid) pair."""

    times: np.ndarray  # segment start times
    times_ext: np.ndarray  # times with +inf sentinel (index n = "never")
    below: np.ndarray  # prices <= bid per segment
    nxt_below_ext: np.ndarray  # smallest j >= i with prices[j] <= bid, else n
    nxt_above_ext: np.ndarray  # smallest j >= i with prices[j] >  bid, else n

    @property
    def n_segments(self) -> int:
        return int(self.below.size)


def _next_index(mask: np.ndarray) -> np.ndarray:
    """``out[i]`` = smallest ``j >= i`` with ``mask[j]``, else ``n``;
    length ``n + 1`` so a query one past the end is the sentinel."""
    n = mask.size
    pos = np.where(mask, np.arange(n), n)
    nxt = np.minimum.accumulate(pos[::-1])[::-1]
    return np.concatenate([nxt, [n]])


def _build_tables(trace, bid: float) -> TraceBidTables:
    below = trace.prices <= bid
    return TraceBidTables(
        times=trace.times,
        times_ext=np.concatenate([trace.times, [np.inf]]),
        below=below,
        nxt_below_ext=_next_index(below),
        nxt_above_ext=_next_index(~below),
    )


# The cache is keyed by (id(trace), bid): traces are immutable value
# objects but define __eq__ without __hash__, so identity is the right
# key — and a weakref finalizer evicts the entry the moment the trace
# dies, which means there are no invalidation rules to get wrong (a new
# trace is a new identity, exactly like the planner's per-model caches).
_TABLE_CACHE: dict[tuple[int, float], TraceBidTables] = {}
_TABLE_FINALIZERS: dict[int, object] = {}

#: Disk tier cutoff: below this many segments, rebuilding the tables is
#: no slower than reading them back, so small traces never touch the
#: artifact store (the memory tier still serves repeats).  Medians on a
#: 2-vCPU VM (CPython 3.11.7, random prices, one bid): at 4096 segments
#: a store load takes 117-119 us and a rebuild 119-126 us, the
#: break-even; at 16384 a load takes 294-327 us against a 785-823 us
#: rebuild.  (The npz format of ``ARTIFACT_VERSION`` 1 took 562-646 us
#: to load at 4096.)  A save costs about 1 ms, once per (trace, bid).
_STORE_MIN_SEGMENTS = 4096


def _artifact_io(trace, bid: float):
    """(store, key) for this pair, or ``(None, None)`` when the disk
    tier is off (``REPRO_ARTIFACT_DIR=""``, or the trace is too small to
    pay for a round-trip)."""
    if trace.prices.size < _STORE_MIN_SEGMENTS:
        return None, None
    from .artifacts import engine_fingerprint, get_store

    store = get_store(None)
    if store is None:
        return None, None
    from ..core.keys import hash_key

    return store, hash_key(
        trace.content_hash(), float(bid), engine_fingerprint()
    )


def _tables_from_store(trace, bid: float) -> TraceBidTables | None:
    """Reload the (trace, bid) tables from disk; ``None`` on any miss.

    Only the bid-dependent arrays are persisted — ``times`` /
    ``times_ext`` are rebuilt from the trace itself, which is exact
    because the artifact key embeds the trace *content* hash.
    """
    store, key = _artifact_io(trace, bid)
    if store is None:
        return None
    arrays = store.load("trace_bid", key)
    if arrays is None:
        return None
    n = trace.prices.size
    below = arrays.get("below")
    nxt_below = arrays.get("nxt_below_ext")
    nxt_above = arrays.get("nxt_above_ext")
    if (
        below is None or nxt_below is None or nxt_above is None
        or below.shape != (n,) or below.dtype != np.bool_
        or nxt_below.shape != (n + 1,) or nxt_above.shape != (n + 1,)
    ):
        return None
    return TraceBidTables(
        times=trace.times,
        times_ext=np.concatenate([trace.times, [np.inf]]),
        below=below,
        nxt_below_ext=nxt_below,
        nxt_above_ext=nxt_above,
    )


def _tables_to_store(trace, bid: float, tables: TraceBidTables) -> None:
    store, key = _artifact_io(trace, bid)
    if store is not None:
        store.save("trace_bid", key, {
            "below": tables.below,
            "nxt_below_ext": tables.nxt_below_ext,
            "nxt_above_ext": tables.nxt_above_ext,
        })


def _evict_trace(trace_id: int) -> None:
    _TABLE_FINALIZERS.pop(trace_id, None)
    for key in [k for k in _TABLE_CACHE if k[0] == trace_id]:
        del _TABLE_CACHE[key]


def clear_table_cache() -> None:
    """Drop every cached (trace, bid) table (tests, memory pressure)."""
    _TABLE_CACHE.clear()
    for fin in _TABLE_FINALIZERS.values():
        fin.detach()
    _TABLE_FINALIZERS.clear()


register_cache_clearer(clear_table_cache)


def table_cache_size() -> int:
    return len(_TABLE_CACHE)


def trace_tables(trace, bid: float) -> TraceBidTables:
    """The (trace, bid) index tables, served from the shared cache.

    Two tiers: the in-process ``_TABLE_CACHE`` above, then (for traces
    with at least ``_STORE_MIN_SEGMENTS`` segments) the on-disk
    artifact store keyed by trace content + engine fingerprint, so a
    cold process skips the build for big markets.  Results are
    identical on every tier, cold or warm.
    """
    key = (id(trace), float(bid))
    tables = _TABLE_CACHE.get(key)
    if tables is None:
        tables = _tables_from_store(trace, float(bid))
        if tables is None:
            tables = _build_tables(trace, float(bid))
            _tables_to_store(trace, float(bid), tables)
        _TABLE_CACHE[key] = tables
        if key[0] not in _TABLE_FINALIZERS:
            _TABLE_FINALIZERS[key[0]] = weakref.finalize(
                trace, _evict_trace, key[0]
            )
    return tables


# ----------------------------------------------------------------------
# Spot billing (bit-identical to cloud.spot.billed_spot_cost)
# ----------------------------------------------------------------------

def billed_cost_batch(trace, launch, end, interrupted, policy) -> np.ndarray:
    """:func:`repro.cloud.spot.billed_spot_cost` over arrays of windows.

    Returns what one instance owes for each run ``[launch_i, end_i)``;
    ``interrupted_i`` marks a provider-initiated end.  Every element is
    bitwise equal to the scalar call on the same arguments, and the
    scalar's checks are kept: reversed bounds, and any billed instant
    outside the trace window, raise :class:`TraceError`.
    """
    launch = np.asarray(launch, dtype=float)
    end = np.asarray(end, dtype=float)
    if np.any(end < launch):
        i = int(np.flatnonzero(end < launch)[0])
        raise TraceError(f"billing bounds reversed: [{launch[i]}, {end[i]}]")
    g = getattr(policy, "granularity_hours", 0.0)
    if not g:  # granularity 0 = continuous billing (BillingPolicy.is_continuous)
        return _integrate_batch(trace, launch, end)
    return _hourly_batch(
        trace, launch, end, np.asarray(interrupted, dtype=bool), g,
        getattr(policy, "refund_interrupted_hour", False),
    )


def _integrate_batch(trace, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Per-window price integrals, each equal to ``integrate_price``.

    The scalar dots the window's prices with ``ends - starts``, where
    the window's segment starts are ``times[lo:hi]`` with the first
    replaced by ``t0`` and its ends are ``times[lo+1:hi]`` followed by
    ``t1``.  Every inner duration is therefore ``times[j+1] - times[j]``,
    the very subtraction ``np.diff`` makes once for the whole trace; only
    the first and last duration of each window differ, and those two
    are patched per window.  The dot itself stays one ``np.dot`` per
    window over the same slices, because its summation order belongs to
    BLAS.  A one-segment window is a single product, the one rounding
    any dot of length one makes, so those are computed for all windows
    at once.
    """
    cost = np.zeros(t0.size)
    bill = np.flatnonzero(t1 > t0)  # t0 == t1 is free, unchecked
    if bill.size == 0:
        return cost
    times, prices = trace.times, trace.prices
    t0, t1 = t0[bill], t1[bill]
    if t0.min() < times[0] or t1.max() > trace.end_time:
        i = int(np.flatnonzero((t0 < times[0]) | (t1 > trace.end_time))[0])
        raise TraceError(
            f"slice [{t0[i]}, {t1[i]}) outside window "
            f"[{trace.start_time}, {trace.end_time})"
        )
    lo = np.searchsorted(times, t0, side="right") - 1
    hi = np.searchsorted(times, t1, side="left")
    single = hi - lo == 1
    cost[bill[single]] = prices[lo[single]] * (t1[single] - t0[single])
    multi = np.flatnonzero(~single)
    if multi.size:
        inner = np.append(np.diff(times), 0.0)  # last slot always patched
        lo, hi = lo[multi], hi[multi]
        first = times[lo + 1] - t0[multi]
        last = t1[multi] - times[hi - 1]
        out = bill[multi]
        for k, a, b, d0, d1 in zip(
            out.tolist(), lo.tolist(), hi.tolist(), first.tolist(),
            last.tolist(),
        ):
            dur = inner[a:b].copy()
            dur[0] = d0
            dur[-1] = d1
            cost[k] = np.dot(prices[a:b], dur)
    return cost


def _hourly_batch(trace, launch, end, interrupted, g: float, refund: bool):
    """Hour-locked bills, each equal to the scalar's ``cost += p * g``.

    Window ``i`` owes ``n_full_i`` whole hours plus, unless refunded,
    its final partial hour, billed at the price in effect when that hour
    began.  The hours are added one column at a time, so each window's
    sum runs strictly in hour order exactly like the scalar loop; a
    window with fewer hours adds ``0.0``, which leaves every float
    unchanged.  Memory stays at a few ``n``-element columns however long
    the windows are.  The scalar clamps hour starts to
    ``nextafter(end_time, -inf)`` so ``price_at`` accepts them; the
    ``searchsorted`` here already maps every instant at or past the last
    change point to the last segment, so it needs no clamp.
    """
    duration = end - launch
    n_full = np.floor(duration / g + 1e-12)
    partial = duration - n_full * g
    hours = n_full + ((partial > 1e-12) & ~(interrupted & refund))
    cost = np.zeros(launch.size)
    billed = hours > 0
    if not billed.any():
        return cost
    if launch[billed].min() < trace.start_time:
        bad = launch[billed & (launch < trace.start_time)][0]
        raise TraceError(
            f"t={bad} outside trace window [{trace.start_time}, {trace.end_time})"
        )
    times, prices = trace.times, trace.prices
    for k in range(int(hours.max())):
        price = prices[np.searchsorted(times, launch + k * g, side="right") - 1]
        cost += np.where(k < hours, price * g, 0.0)
    return cost


# ----------------------------------------------------------------------
# Vectorised checkpoint-timeline arithmetic (bit-identical to ckpt_math)
# ----------------------------------------------------------------------

def checkpoints_completed_arr(
    productive: np.ndarray, exec_time: np.ndarray, interval: np.ndarray
) -> np.ndarray:
    """Elementwise :func:`repro.core.ckpt_math.checkpoints_completed`.

    Returns float counts (exact small integers); the scalar's ``while``
    decrement loop becomes a masked decrement iterated to fixpoint,
    which performs the identical comparisons in the identical order per
    element.
    """
    k = np.floor(productive / interval + 1e-12)
    while True:
        over = (k >= 1.0) & (k * interval >= exec_time - 1e-12)
        if not over.any():
            return k
        k = np.where(over, k - 1.0, k)


def total_wall_arr(
    exec_time: np.ndarray, interval: np.ndarray, overhead: float
) -> np.ndarray:
    """Elementwise :func:`repro.core.ckpt_math.total_wall`."""
    k = checkpoints_completed_arr(exec_time, exec_time, interval)
    return exec_time + overhead * k


def progress_after_wall_arr(
    wall: np.ndarray,
    exec_time: np.ndarray,
    interval: np.ndarray,
    overhead: float,
    done_wall: np.ndarray,
    k_done: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise :func:`repro.core.ckpt_math.progress_after_wall`.

    ``exec_time`` / ``interval`` may be scalars or per-element arrays
    (the persistent kernel re-enters with per-sample remaining work);
    ``done_wall`` / ``k_done`` are the matching precomputed completion
    wall time and checkpoint count.  Identical branch structure and
    float operations to the scalar, elementwise.
    """
    cycle = interval + overhead
    k_full = np.floor(wall / cycle + 1e-12)
    rem = wall - k_full * cycle
    productive = np.where(
        rem <= interval + 1e-12, k_full * interval + rem, (k_full + 1.0) * interval
    )
    productive = np.minimum(productive, exec_time)
    saved = np.minimum(k_full * interval, productive)
    done = wall >= done_wall - 1e-12
    productive = np.where(done, exec_time, productive)
    saved = np.where(done, exec_time, saved)
    n_ckpt = np.where(done, k_done, k_full).astype(np.int64)
    return productive, saved, n_ckpt
