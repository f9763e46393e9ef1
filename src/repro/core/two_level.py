"""Two-level optimization (Section 4.2).

Level 1 — *dimension reduction*: for every group and every candidate bid,
the checkpoint interval is fixed to ``phi(P)`` (:mod:`.interval`), so the
search runs over bids alone.

Level 2 — *logarithmic bid search*: each group contributes ``L + 1``
geometric bid candidates; a subset of ``k`` groups therefore has
``(L+1)**k`` bid combinations.  All combinations are evaluated **at
once** with NumPy broadcasting:

* the separable spot cost is a sum of per-(group, bid) scalars,
* ``E[min_i Ratio_i]`` is a product of per-(group, bid) survival rows on
  a shared midpoint grid, and
* ``E[max_i X_i]`` is a product of per-(group, bid) CDF rows likewise,

so one subset evaluation is a handful of ``(combos, grid)`` array
products (the last group extending a shared prefix product, tile by
tile, in :func:`.grid_eval.extend_score_sums`) instead of ``(L+1)**k``
python-level model evaluations.  The subset search runs one subset size
per :meth:`TwoLevelOptimizer.search_size` call (DESIGN.md §8).  The
grid introduces a small quadrature error, so the winning combination is
re-evaluated exactly (and, if the exact check violates the deadline, the
next-best candidates are tried in order).

Performance layer (see DESIGN.md "Performance"): the per-group tables
(bid candidates, refined intervals, outcome pmfs) depend only on
``(market, spec, ondemand cost, config)`` — not on the deadline — so
they are shared across optimizer instances through a cache that lives
with each group's :class:`FailureModel`.  Subset score vectors and exact
re-evaluations are likewise memoised, and the subset search prunes
against an incumbent (:meth:`TwoLevelOptimizer.search_size`): it skips
subsets that provably cannot beat the best feasible cost found so
far.  All caches are exact and every pruning bound is admissible, so
results are bit-identical whether the caches are cold or warm.

Disk tier (DESIGN.md §10): every shared cache entry is keyed by a
*content token* — a hash of the trace content plus every scalar that
enters the computation — so keys survive process boundaries.  The
per-problem table bundle (with each group's survival grids) and the
search sidecar (subset score vectors + exact re-evaluations) are
persisted to the on-disk artifact store
(:mod:`repro.execution.artifacts`) at ``config.artifact_dir``: a cold
process warms from disk instead of rebuilding.  The sidecar is written
in parts: each optimizer saves only the entries it computed itself, and
a load merges every part of the scope.  Loads are fail-open and
artifacts store the exact float64 arrays the build produced, so results
are bit-identical with the store on, off (``REPRO_ARTIFACT_DIR=""``),
deleted or corrupted mid-run.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..config import DEFAULT_CONFIG, SompiConfig
from ..errors import ConfigurationError
from ..market.failure import FailureModel
from ..market.history import MarketKey
from . import grid_eval
from .cost_model import (
    Expectation,
    GroupOutcome,
    Marginal,
    evaluate_prepared,
    outcome_marginals,
    survival_at,
)
from .keys import hash_key
from .problem import Decision, GroupDecision, OnDemandOption, Problem

_RATIO_GRID = 256
_WALL_GRID = 256
_MAX_BATCH = 65536
_EXACT_FALLBACK_TRIES = 32
#: Rows of one prefix-product chunk: its two ``(rows, 256)`` float64
#: arrays hold at most 4 MB.  Longer prefixes are scored in chunks.
_PREFIX_ROWS = 1024

#: Relative safety margin applied to the admissible pruning bound before
#: a subset is skipped.  The bound is mathematically a true lower bound;
#: the margin absorbs last-ulp float differences between the bound's
#: summation order and the exact evaluator's, so pruning can never drop
#: a combination that exact evaluation would have scored strictly below
#: the incumbent.
_PRUNE_MARGIN = 1e-9


# ----------------------------------------------------------------------
# Cross-instance caches
# ----------------------------------------------------------------------
# The expensive per-group precomputation (interval refinement + outcome
# pmfs) is keyed by everything that enters it and stored *with the
# failure model* (weakly), so fig5/fig6/fig7/fig8 and Algorithm 1's
# windowed re-optimisation stop rebuilding identical tables.  A new
# trace means a new FailureModel means a fresh cache — no invalidation
# rules to get wrong.  Subset score vectors and exact re-evaluations are
# capped insertion-ordered dicts that evict their oldest entries when
# full (they are pure caches, and evicting only the overflow keeps the
# live working set); their keys are built from content tokens, so entries loaded from the
# on-disk sidecar and entries computed live are interchangeable.

_RAW_TABLE_CACHE: "weakref.WeakKeyDictionary[FailureModel, dict]" = (
    weakref.WeakKeyDictionary()
)

_SUBSET_EVAL_CACHE: OrderedDict = OrderedDict()
_SUBSET_EVAL_CACHE_MAX = 2048
_EXACT_EVAL_CACHE: OrderedDict = OrderedDict()
_EXACT_EVAL_CACHE_MAX = 65536

#: Sidecar artifact keys already merged into the process caches — a
#: second optimizer over the same scope skips the redundant disk read.
_SIDECAR_LOADED: set = set()


# Other layers (the artifact-store handles, the shared worker pool)
# register their cache clearers here so clear_shared_caches() stays the
# single switch for "drop every shared cache" without this module having
# to import them (which would cycle).
_EXTERNAL_CACHE_CLEARERS: list = []


def _bounded_put(cache: OrderedDict, key, value, cap: int) -> None:
    """Store ``key`` in ``cache``, evicting the oldest entries past
    ``cap``.  An ``OrderedDict`` pops its oldest entry in O(1); a plain
    dict would rescan the slots of earlier deletions on every eviction,
    a cost that grows with the cap."""
    cache[key] = value
    while len(cache) > cap:
        cache.popitem(last=False)


def register_cache_clearer(fn) -> None:
    """Register a callable to be invoked by :func:`clear_shared_caches`."""
    if fn not in _EXTERNAL_CACHE_CLEARERS:
        _EXTERNAL_CACHE_CLEARERS.append(fn)


def clear_shared_caches() -> None:
    """Drop every cross-instance planner cache (tests, memory pressure).

    Only *memory* is dropped — on-disk artifacts survive by design
    (that a cleared process re-warms from disk is the artifact store's
    whole point; tests simulate a truly cold machine by also pointing
    ``config.artifact_dir`` at an empty directory).
    """
    _RAW_TABLE_CACHE.clear()
    _SUBSET_EVAL_CACHE.clear()
    _EXACT_EVAL_CACHE.clear()
    _SIDECAR_LOADED.clear()
    for fn in _EXTERNAL_CACHE_CLEARERS:
        fn()


@dataclass
class _RawGroupEntry:
    """Deadline-independent per-group precomputation, shareable across
    optimizer instances (cached per failure model)."""

    token: str  # content hash keying downstream caches and artifacts
    bids: np.ndarray
    intervals: np.ndarray
    outcomes: list[GroupOutcome]
    e_spot: np.ndarray  # (nb,) expected spot cost S*M*E[X]
    e_ratio: np.ndarray  # (nb,) expected recovery ratio E[Ratio]
    wall_max: float
    # wall_hi -> (surv_ratio, surv_wall, below_wall); below_wall is
    # 1 - surv_wall, derived on load and never persisted.
    grids: dict = field(default_factory=dict)
    # bid row -> its (ratio, wall) marginals, filled on first use by the
    # grid build and the exact re-evaluation; never persisted.
    marginals: dict = field(default_factory=dict)


def _entry_to_arrays(entry: _RawGroupEntry, prefix: str) -> dict:
    """Flatten one entry into named arrays for the artifact bundle."""
    return {
        prefix + "bids": entry.bids,
        prefix + "intervals": entry.intervals,
        prefix + "e_spot": entry.e_spot,
        prefix + "e_ratio": entry.e_ratio,
        prefix + "wall_max": np.array([entry.wall_max]),
        prefix + "pmf": np.stack([o.pmf for o in entry.outcomes]),
        prefix + "price": np.array(
            [o.expected_price for o in entry.outcomes]
        ),
        prefix + "productive": np.stack(
            [o.productive for o in entry.outcomes]
        ),
        prefix + "wall": np.stack([o.wall for o in entry.outcomes]),
        prefix + "ratios": np.stack([o.ratios for o in entry.outcomes]),
    }


def _entry_from_arrays(
    arrays: dict, prefix: str, token: str, spec, step_hours: float
) -> Optional[_RawGroupEntry]:
    """Rebuild an entry from its persisted arrays; ``None`` on any
    schema damage (the caller falls open to a rebuild)."""
    try:
        bids = arrays[prefix + "bids"]
        intervals = arrays[prefix + "intervals"]
        pmf = arrays[prefix + "pmf"]
        price = arrays[prefix + "price"]
        productive = arrays[prefix + "productive"]
        wall = arrays[prefix + "wall"]
        ratios = arrays[prefix + "ratios"]
        nb = int(bids.size)
        if not (
            intervals.shape == (nb,)
            and price.shape == (nb,)
            and pmf.ndim == 2
            and pmf.shape[0] == nb
            and pmf.shape == productive.shape == wall.shape == ratios.shape
        ):
            return None
        outcomes = [
            GroupOutcome(
                spec=spec,
                bid=float(bids[b]),
                interval=float(intervals[b]),
                step_hours=step_hours,
                pmf=pmf[b],
                expected_price=float(price[b]),
                productive=productive[b],
                wall=wall[b],
                ratios=ratios[b],
            )
            for b in range(nb)
        ]
        return _RawGroupEntry(
            token=token,
            bids=bids,
            intervals=intervals,
            outcomes=outcomes,
            e_spot=arrays[prefix + "e_spot"],
            e_ratio=arrays[prefix + "e_ratio"],
            wall_max=float(arrays[prefix + "wall_max"][0]),
        )
    except (KeyError, IndexError, ValueError):
        return None


@dataclass
class _GroupTable:
    """Per-group precomputation: one row per candidate bid."""

    group_index: int
    bids: np.ndarray  # (nb,)
    intervals: np.ndarray  # (nb,)
    outcomes: list[GroupOutcome]
    e_spot: np.ndarray  # (nb,) expected spot cost S*M*E[X]
    e_ratio: np.ndarray  # (nb,) expected recovery ratio E[Ratio]
    surv_ratio: np.ndarray  # (nb, RATIO_GRID) P(ratio >= midpoint)
    surv_wall: np.ndarray  # (nb, WALL_GRID)  P(wall  >= midpoint)
    below_wall: np.ndarray  # (nb, WALL_GRID)  1 - surv_wall
    token: str = ""
    marginals: dict = field(default_factory=dict)  # the entry's, shared

    @property
    def n_bids(self) -> int:
        return int(self.bids.size)


@dataclass(frozen=True)
class SubsetResult:
    """Best decision found for one fixed subset of circle groups."""

    group_indices: Tuple[int, ...]
    bids: Tuple[float, ...]
    intervals: Tuple[float, ...]
    expectation: Expectation
    combos_evaluated: int

    def to_decision(self, ondemand_index: int) -> Decision:
        return Decision(
            groups=tuple(
                GroupDecision(gi, bid, interval)
                for gi, bid, interval in zip(
                    self.group_indices, self.bids, self.intervals
                )
            ),
            ondemand_index=ondemand_index,
        )


def _row_marginals(
    marginals: dict, outcomes: Sequence[GroupOutcome], b: int
) -> Tuple[Marginal, Marginal]:
    """Bid row ``b``'s ``(ratio, wall)`` marginals, prepared once per row."""
    pair = marginals.get(b)
    if pair is None:
        pair = marginals[b] = outcome_marginals(outcomes[b])
    return pair


class TwoLevelOptimizer:
    """Optimizes bids and intervals for subsets of circle groups."""

    def __init__(
        self,
        problem: Problem,
        failure_models: Mapping[MarketKey, FailureModel],
        ondemand: OnDemandOption,
        config: SompiConfig = DEFAULT_CONFIG,
    ) -> None:
        self.problem = problem
        self.ondemand = ondemand
        self.config = config
        self._models: dict[int, FailureModel] = {}
        for i, spec in enumerate(problem.groups):
            try:
                self._models[i] = failure_models[spec.key]
            except KeyError:
                raise ConfigurationError(
                    f"no failure model supplied for market {spec.key}"
                ) from None
        self._tables: dict[int, _GroupTable] = {}
        self._grids_ready = False
        self._wall_hi = 0.0
        self._sidecar_key: Optional[str] = None
        # Cache entries this optimizer computed itself (not served from
        # memory or disk): exactly what its sidecar part persists.
        self._added_scores: dict = {}
        self._added_exacts: dict = {}
        self.combos_evaluated = 0
        self.subsets_pruned = 0
        from ..execution.artifacts import get_store

        self._store = get_store(config.artifact_dir)

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def _entry_key(self, spec) -> tuple:
        """Everything the per-group table computation reads."""
        cfg = self.config
        return (
            spec.key,
            spec.n_instances,
            spec.exec_time,
            spec.checkpoint_overhead,
            spec.recovery_overhead,
            self.ondemand.full_run_cost,
            cfg.bid_levels,
            cfg.time_step_hours,
            cfg.checkpointing,
        )

    def _group_token(self, fm: FailureModel, spec) -> str:
        """Content token: everything :meth:`_entry_key` pins plus the
        trace content and model discretisation, so equal tokens imply
        bit-identical tables — across optimizer instances *and* across
        processes (the artifact store's keying contract)."""
        return hash_key(
            fm.trace.content_hash(), fm.step_hours, fm.circular,
            self._entry_key(spec),
        )

    def _build_entry(
        self, fm: FailureModel, spec, token: str, bids: np.ndarray
    ) -> _RawGroupEntry:
        """Compute one group's table from scratch (both cache tiers missed)."""
        step = self.config.time_step_hours
        intervals = np.empty(bids.size)
        outcomes: list[GroupOutcome] = []
        wall_max = 0.0
        for b, bid in enumerate(bids):
            if not self.config.checkpointing:
                interval = spec.exec_time  # w/o-CK ablation: no checkpoints
            else:
                interval = grid_eval.optimal_interval_grid(
                    spec, float(bid), fm, self.ondemand, step_hours=step
                )
            outcome = GroupOutcome.build(spec, float(bid), interval, fm, step)
            intervals[b] = interval
            outcomes.append(outcome)
            wall_max = max(wall_max, float(outcome.wall.max()))
        return _RawGroupEntry(
            token=token,
            bids=bids,
            intervals=intervals,
            outcomes=outcomes,
            e_spot=np.array([o.expected_spot_cost() for o in outcomes]),
            e_ratio=np.array([float(np.dot(o.pmf, o.ratios)) for o in outcomes]),
            wall_max=wall_max,
        )

    def _build_tables(self) -> None:
        """Build all group tables and the shared quadrature grids.

        Entries and their survival grids come through three tiers:
        process memory, the disk bundle, a fresh build.  The bundle is
        loaded at most once and saved once, only when something was
        built, so a warm re-plan writes nothing.
        """
        if self._grids_ready:
            return
        cfg = self.config
        metrics = obs.get_metrics()
        specs = list(enumerate(self.problem.groups))
        # A memory hit carries its token; only misses hash theirs.
        tokens: list[str] = []
        entries: dict[int, _RawGroupEntry] = {}
        keys = {i: self._entry_key(spec) for i, spec in specs}
        for i, spec in specs:
            pm = _RAW_TABLE_CACHE.setdefault(self._models[i], {})
            entry = pm.get(keys[i])
            if entry is not None:
                metrics.inc("cache.table_hits")
                entries[i] = entry
                tokens.append(entry.token)
            else:
                metrics.inc("cache.table_misses")
                tokens.append(self._group_token(self._models[i], spec))

        store = self._store
        bundle_key = None
        arrays = None

        def load_bundle():
            from ..execution.artifacts import engine_fingerprint

            key = hash_key(tuple(tokens), engine_fingerprint())
            return key, store.load("group_tables", key)

        missing = [i for i, _ in specs if i not in entries]
        if missing and store is not None:
            bundle_key, arrays = load_bundle()
            if arrays is not None:
                for i in missing:
                    entry = _entry_from_arrays(
                        arrays, f"g{i}_", tokens[i],
                        self.problem.groups[i], cfg.time_step_hours,
                    )
                    if entry is None:
                        break  # damaged schema: rebuild the rest below
                    entries[i] = entry
                    _RAW_TABLE_CACHE[self._models[i]][keys[i]] = entry
                missing = [i for i, _ in specs if i not in entries]

        built = bool(missing)
        if missing:
            bid_rows = grid_eval.bid_matrix_rows(
                [self._models[i].max_price() for i in missing],
                cfg.bid_levels,
                [self._models[i].min_price() for i in missing],
            )
            for j, i in enumerate(missing):
                entry = self._build_entry(
                    self._models[i], self.problem.groups[i], tokens[i],
                    bid_rows[j],
                )
                entries[i] = entry
                _RAW_TABLE_CACHE[self._models[i]][keys[i]] = entry

        # wall_hi is a function of the entries, hence of the bundle key:
        # the bundle's grid columns always belong to this grid.
        wall_hi = max([e.wall_max for e in entries.values()] + [1e-9])
        ratio_mid = (np.arange(_RATIO_GRID) + 0.5) / _RATIO_GRID  # over [0, 1]
        wall_mid = (np.arange(_WALL_GRID) + 0.5) * (wall_hi / _WALL_GRID)
        self._ratio_delta = 1.0 / _RATIO_GRID
        self._wall_delta = wall_hi / _WALL_GRID
        self._wall_hi = wall_hi

        missing = [i for i in entries if wall_hi not in entries[i].grids]
        if missing and store is not None and bundle_key is None:
            bundle_key, arrays = load_bundle()
        for i in missing:
            entry = entries[i]
            nb = entry.bids.size
            surv_ratio = surv_wall = None
            if arrays is not None:
                surv_ratio = arrays.get(f"g{i}_surv_ratio")
                surv_wall = arrays.get(f"g{i}_surv_wall")
            if (
                surv_ratio is None or surv_wall is None
                or surv_ratio.shape != (nb, _RATIO_GRID)
                or surv_wall.shape != (nb, _WALL_GRID)
            ):
                built = True
                surv_ratio = np.empty((nb, _RATIO_GRID))
                surv_wall = np.empty((nb, _WALL_GRID))
                for b in range(nb):
                    ratio_m, wall_m = _row_marginals(
                        entry.marginals, entry.outcomes, b
                    )
                    surv_ratio[b] = survival_at(ratio_m, ratio_mid)
                    surv_wall[b] = survival_at(wall_m, wall_mid)
            entry.grids[wall_hi] = (surv_ratio, surv_wall, 1.0 - surv_wall)

        if built and store is not None:
            arrays = {}
            for i, entry in entries.items():
                arrays.update(_entry_to_arrays(entry, f"g{i}_"))
                surv_ratio, surv_wall, _below = entry.grids[wall_hi]
                arrays[f"g{i}_surv_ratio"] = surv_ratio
                arrays[f"g{i}_surv_wall"] = surv_wall
            store.save("group_tables", bundle_key, arrays)

        for i, entry in entries.items():
            self._tables[i] = _GroupTable(
                i,
                entry.bids,
                entry.intervals,
                entry.outcomes,
                entry.e_spot,
                entry.e_ratio,
                *entry.grids[wall_hi],
                entry.token,
                entry.marginals,
            )
        self._grids_ready = True
        self._load_sidecar()

    def group_table(self, group_index: int) -> _GroupTable:
        """Expose a group's precomputed table (used by experiments)."""
        self._build_tables()
        return self._tables[group_index]

    # ------------------------------------------------------------------
    # Search sidecar (disk tier of the subset-score / exact-eval caches)
    # ------------------------------------------------------------------
    def _sidecar_scope(self) -> Optional[str]:
        """Artifact key of this optimizer's search scope: the group
        tokens, the shared grid, and the on-demand scalars that enter
        every score — but *not* the deadline, which only selects among
        cached scores and never changes them."""
        if self._store is None:
            return None
        if self._sidecar_key is None:
            from ..execution.artifacts import engine_fingerprint

            self._sidecar_key = hash_key(
                tuple(sorted(t.token for t in self._tables.values())),
                self._wall_hi,
                self.ondemand.full_run_cost,
                self.ondemand.exec_time,
                engine_fingerprint(),
            )
        return self._sidecar_key

    def _load_sidecar(self) -> None:
        """Merge every persisted part of this scope's sidecar (subset
        score vectors and exact re-evaluations) into the process caches.

        Entries are pure functions of their keys, so a key already
        cached, or repeated across parts, merges idempotently.
        """
        key = self._sidecar_scope()
        if key is None or key in _SIDECAR_LOADED:
            return
        _SIDECAR_LOADED.add(key)
        for arrays in self._store.load("search_sidecar", key, parts=True) or ():
            try:
                self._merge_sidecar_part(arrays)
            except (KeyError, IndexError, TypeError, ValueError):
                # A part whose checksum holds but whose schema does not
                # fit: whatever merged so far is exact; the rest
                # recomputes.
                continue

    def _merge_sidecar_part(self, arrays: dict) -> None:
        # Packed schema: a part's entries live in flat columns (one
        # container column per field, not per entry), token strings
        # once per part with entries holding indices into them.
        tokens = arrays["tokens"].tolist()
        s_ntok = arrays["s_ntok"].tolist()
        s_rows = arrays["s_rows"].tolist()
        s_tok = arrays["s_tok"].tolist()
        s_batch = arrays["s_batch"].astype(np.intp, copy=False)
        s_cost, s_time = arrays["s_cost"], arrays["s_time"]
        if not (
            len(s_rows) == len(s_ntok)
            and s_cost.shape == s_time.shape == (sum(s_rows),)
            and s_batch.size == sum(k * r for k, r in zip(s_ntok, s_rows))
        ):
            raise ValueError("inconsistent score columns")
        tok_off = row_off = cell_off = 0
        for k, rows in zip(s_ntok, s_rows):
            ck = (tuple(tokens[t] for t in s_tok[tok_off:tok_off + k]),
                  self._wall_hi)
            if ck not in _SUBSET_EVAL_CACHE:
                _bounded_put(_SUBSET_EVAL_CACHE, ck, (
                    s_batch[cell_off:cell_off + rows * k].reshape(rows, k),
                    s_cost[row_off:row_off + rows],
                    s_time[row_off:row_off + rows],
                ), _SUBSET_EVAL_CACHE_MAX)
            tok_off += k
            row_off += rows
            cell_off += rows * k
        odc, odt = self.ondemand.full_run_cost, self.ondemand.exec_time
        e_ntok = arrays["e_ntok"].tolist()
        e_tok = arrays["e_tok"].tolist()
        e_combo = arrays["e_combo"].tolist()
        e_vals = arrays["e_vals"]
        if e_vals.shape != (len(e_ntok), 7):
            raise ValueError("bad exact-value block")
        off = 0
        for k, vals in zip(e_ntok, e_vals.tolist()):
            ek = (tuple(tokens[t] for t in e_tok[off:off + k]),
                  tuple(e_combo[off:off + k]), odc, odt)
            off += k
            if ek not in _EXACT_EVAL_CACHE:
                _bounded_put(
                    _EXACT_EVAL_CACHE, ek, Expectation(*vals),
                    _EXACT_EVAL_CACHE_MAX,
                )

    def save_search_sidecar(self) -> None:
        """Persist the cache entries this optimizer computed as one new
        part of its scope's sidecar.

        Called by :class:`~repro.core.optimizer.SompiOptimizer` after a
        search completes.  Only entries computed here are written —
        never the scope's whole slice of the caches — so a fully warm
        search writes nothing, and two processes saving the same scope
        add parts side by side instead of overwriting each other.  A
        no-op when the store is off.
        """
        scores, exacts = self._added_scores, self._added_exacts
        if not (scores or exacts):
            return
        key = self._sidecar_scope()
        if key is None:
            return
        tokens = sorted(t.token for t in self._tables.values())
        index = {t: i for i, t in enumerate(tokens)}
        s_tok: list = []
        s_batch: list = []
        s_cost: list = []
        s_time: list = []
        s_rows: list = []
        for (toks, _wall_hi), (batch, cost, time_v) in scores.items():
            s_tok.extend(index[t] for t in toks)
            s_rows.append(batch.shape[0])
            s_batch.append(np.asarray(batch, dtype=np.int64).ravel())
            s_cost.append(cost)
            s_time.append(time_v)
        e_tok: list = []
        e_combo: list = []
        e_vals = np.empty((len(exacts), 7))
        for j, ((toks, combo, _c, _t), exact) in enumerate(exacts.items()):
            e_tok.extend(index[t] for t in toks)
            e_combo.extend(combo)
            e_vals[j] = (
                exact.cost,
                exact.time,
                exact.spot_cost,
                exact.ondemand_cost,
                exact.expected_min_ratio,
                exact.expected_max_wall,
                exact.completion_probability,
            )
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0)
        self._store.save("search_sidecar", key, {
            "tokens": np.array(tokens),
            "s_ntok": np.array([len(k[0]) for k in scores], dtype=np.int64),
            "s_rows": np.array(s_rows, dtype=np.int64),
            "s_tok": np.array(s_tok, dtype=np.int64),
            "s_batch": np.concatenate(s_batch) if s_batch else empty_i,
            "s_cost": np.concatenate(s_cost) if s_cost else empty_f,
            "s_time": np.concatenate(s_time) if s_time else empty_f,
            "e_ntok": np.array([len(k[0]) for k in exacts], dtype=np.int64),
            "e_tok": np.array(e_tok, dtype=np.int64),
            "e_combo": np.array(e_combo, dtype=np.int64),
            "e_vals": e_vals,
        }, part=True)
        scores.clear()
        exacts.clear()

    # ------------------------------------------------------------------
    # Pruning bound
    # ------------------------------------------------------------------
    def _subset_bound(self, tables: Sequence[_GroupTable]) -> float:
        """Admissible lower bound on the subset's best exact cost.

        Every combo pays at least each group's cheapest spot bill, and
        the on-demand recovery term satisfies
        ``E[min_i R_i] >= prod_i E[R_i]`` (``min(a, b) >= a * b`` for
        values in ``[0, 1]``, then independence), so
        ``sum_i min_b e_spot + D * prod_i min_b E[R]`` is admissible.
        """
        spot_floor = sum(float(t.e_spot.min()) for t in tables)
        ratio_floor = 1.0
        for t in tables:
            ratio_floor *= float(t.e_ratio.min())
        return spot_floor + ratio_floor * self.ondemand.full_run_cost

    # ------------------------------------------------------------------
    # Subset optimization
    # ------------------------------------------------------------------
    def search_size(
        self,
        subsets: Sequence[Tuple[int, ...]],
        incumbent: Optional[SubsetResult] = None,
    ) -> Optional[SubsetResult]:
        """The best of ``incumbent`` and every subset in ``subsets``.

        ``subsets`` all have one size and are visited in the given
        order, as a per-subset loop would visit them: each is pruned
        against the best feasible result found so far, and a result
        replaces the incumbent only when it is strictly cheaper.  One
        :func:`repro.core.grid_eval.subset_bounds` call bounds them all,
        and every subset that the starting incumbent already prunes is
        dropped before the walk — the incumbent never rises, so the walk
        would prune it too.  Because each bound is a true lower bound on
        the subset's *exact* score, a pruned subset could never have
        replaced the incumbent, so the result is the one without
        pruning.
        """
        tables = [self.group_table(i) for i in range(self.problem.n_groups)]
        idx = np.array(subsets, dtype=np.intp).reshape(len(subsets), -1)
        n_bids = np.array([t.n_bids for t in tables], dtype=np.int64)
        totals = np.prod(n_bids[idx], axis=1).tolist()
        # Counts the search-space coverage (the paper's "bid combinations
        # traversed"), not the arithmetic actually performed — pruned and
        # cache-served combinations are still logically covered.
        self.combos_evaluated += sum(totals)
        bounds = grid_eval.subset_bounds(
            np.array([t.e_spot.min() for t in tables]),
            np.array([t.e_ratio.min() for t in tables]),
            idx,
            self.ondemand.full_run_cost,
        )
        best = incumbent
        visit = range(len(subsets))
        if best is not None:
            limit = best.expectation.cost * (1.0 + _PRUNE_MARGIN) + 1e-12
            visit = np.flatnonzero(~(bounds >= limit)).tolist()
            self.subsets_pruned += len(subsets) - len(visit)
        bounds = bounds.tolist()
        for s in visit:
            prune_above = None if best is None else best.expectation.cost
            if (
                prune_above is not None
                and bounds[s] >= prune_above * (1.0 + _PRUNE_MARGIN) + 1e-12
            ):
                self.subsets_pruned += 1
                continue
            result = self._best_combo(tuple(subsets[s]), totals[s], prune_above)
            if result is not None and (
                best is None or result.expectation.cost < best.expectation.cost
            ):
                best = result
        return best

    def optimize_subset(
        self, group_indices: Sequence[int]
    ) -> Optional[SubsetResult]:
        """Best (bids, intervals) for this subset, or ``None`` if no bid
        combination meets the deadline in exact evaluation.

        The paper's problem: minimise expected cost subject to expected
        time <= deadline.  A one-subset :meth:`search_size`.
        """
        indices = tuple(group_indices)
        if len(indices) == 0:
            raise ConfigurationError("subset must contain at least one group")
        if len(set(indices)) != len(indices):
            raise ConfigurationError(f"duplicate groups in subset {indices}")
        return self.search_size([indices])

    def _best_combo(
        self,
        indices: Tuple[int, ...],
        total: int,
        prune_above: Optional[float],
    ) -> Optional[SubsetResult]:
        """The subset's best feasible combo: the approximate scores'
        cheapest candidates, re-evaluated exactly in order."""
        tables = [self._tables[i] for i in indices]
        sizes = [t.n_bids for t in tables]
        cand_cost: list[np.ndarray] = []
        cand_rows: list[np.ndarray] = []
        for batch, cost, time in self._scored_batches(
            tables, sizes, total, prune_above
        ):
            # Keep a slightly generous feasibility margin; the exact
            # re-evaluation below is the authority.
            feasible = np.flatnonzero(time <= self.problem.deadline * 1.02 + 1e-9)
            if feasible.size > _EXACT_FALLBACK_TRIES:
                top = np.argpartition(cost[feasible], _EXACT_FALLBACK_TRIES)
                feasible = feasible[top[:_EXACT_FALLBACK_TRIES]]
            cand_cost.append(cost[feasible])
            cand_rows.append(batch[feasible])

        if not cand_cost:
            return None
        if len(cand_cost) == 1:  # one batch: nothing to concatenate
            costs, rows = cand_cost[0], cand_rows[0]
        else:
            costs, rows = np.concatenate(cand_cost), np.concatenate(cand_rows)
        if costs.size == 0:
            return None
        # A stable sort over the candidates in collection order: ties
        # keep batch order, then argpartition order, as a stable list
        # sort of per-candidate tuples would.
        order = np.argsort(costs, kind="stable")[:_EXACT_FALLBACK_TRIES]
        for row in rows[order].tolist():
            combo = tuple(row)
            outcomes = [t.outcomes[b] for t, b in zip(tables, combo)]
            exact = self._evaluate_exact(tables, combo, outcomes)
            ok = exact.meets_deadline(self.problem.deadline)
            if ok and self.config.max_miss_probability is not None:
                from .chance import miss_probability

                ok = (
                    miss_probability(
                        outcomes, self.ondemand, self.problem.deadline
                    )
                    <= self.config.max_miss_probability + 1e-9
                )
            if ok:
                return SubsetResult(
                    group_indices=indices,
                    bids=tuple(float(t.bids[b]) for t, b in zip(tables, combo)),
                    intervals=tuple(
                        float(t.intervals[b]) for t, b in zip(tables, combo)
                    ),
                    expectation=exact,
                    combos_evaluated=total,
                )
        return None

    # ------------------------------------------------------------------
    def _scored_batches(
        self,
        tables: Sequence[_GroupTable],
        sizes: Sequence[int],
        total: int,
        prune_above: Optional[float],
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(batch, cost, time)`` score vectors for the subset.

        Single-batch subsets (the common case) are served from / stored
        into the shared score cache, because the score vectors depend
        only on the group tables — not on the deadline.  Whole
        batches whose *separable* spot cost already exceeds the incumbent
        are skipped before the grid products: every combination they
        contain has exact cost >= its spot cost, and their approximate
        scores likewise, so the skipped candidates sort strictly after
        every candidate that could still beat the incumbent — dropping
        them cannot change which combination the exact fallback returns
        to the traversal.

        The grid sums come from :meth:`_range_sums`, bit-identical to
        the one-shot ``(C, grid)`` expression kept in
        ``tests/oracles/subset_scores.py`` (DESIGN.md §8).
        """
        cache_key = None
        if total <= _MAX_BATCH:
            cache_key = (tuple(t.token for t in tables), self._wall_hi)
            cached = _SUBSET_EVAL_CACHE.get(cache_key)
            if cached is not None:
                obs.get_metrics().inc("cache.subset_hits")
                yield cached
                return
            obs.get_metrics().inc("cache.subset_misses")

        lo = 0
        for batch in _combo_batches(sizes, _MAX_BATCH):
            hi = lo + batch.shape[0]
            cost_spot = np.zeros(batch.shape[0])
            for g, table in enumerate(tables):
                cost_spot += table.e_spot[batch[:, g]]
            if prune_above is not None and float(cost_spot.min()) >= prune_above:
                # Applies to cacheable batches too (lazy fill): the
                # cache entry simply stays unfilled until some caller
                # actually needs the full score vectors, so a cold
                # cache never pays for grid products a warm one skips.
                lo = hi
                continue
            sum_r, sum_w = self._range_sums(tables, lo, hi)
            lo = hi
            e_min_ratio = self._ratio_delta * sum_r
            e_max_wall = self._wall_delta * sum_w
            cost = cost_spot + e_min_ratio * self.ondemand.full_run_cost
            time = e_max_wall + e_min_ratio * self.ondemand.exec_time
            if cache_key is not None:
                _bounded_put(
                    _SUBSET_EVAL_CACHE, cache_key, (batch, cost, time),
                    _SUBSET_EVAL_CACHE_MAX,
                )
                self._added_scores[cache_key] = (batch, cost, time)
            yield batch, cost, time

    def _range_sums(
        self, tables: Sequence[_GroupTable], lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Grid sums of combos ``lo..hi`` of the subset's row-major
        product space: prefix rows of the first ``k - 1`` groups, at
        most ``_PREFIX_ROWS`` at a time, extended by the last group."""
        *head, last = tables
        if not head:
            sum_r, sum_w = grid_eval.extend_score_sums(None, None, last)
            return sum_r[lo:hi], sum_w[lo:hi]
        nb = last.n_bids
        first, end = lo // nb, -(-hi // nb)
        parts = [
            grid_eval.extend_score_sums(
                *_prefix_rows(head, p, min(p + _PREFIX_ROWS, end)), last
            )
            for p in range(first, end, _PREFIX_ROWS)
        ]
        skip = lo - first * nb
        if len(parts) == 1:
            sum_r, sum_w = parts[0]
        else:
            sum_r = np.concatenate([r for r, _ in parts])
            sum_w = np.concatenate([w for _, w in parts])
        return sum_r[skip:skip + hi - lo], sum_w[skip:skip + hi - lo]

    def _evaluate_exact(
        self,
        tables: Sequence[_GroupTable],
        combo: Tuple[int, ...],
        outcomes: Sequence[GroupOutcome],
    ) -> Expectation:
        """Exact re-evaluation of one combination, memoised across
        optimizer instances (the Expectation depends only on the group
        outcomes and the on-demand option, both part of the key)."""
        key = (
            tuple(t.token for t in tables),
            combo,
            self.ondemand.full_run_cost,
            self.ondemand.exec_time,
        )
        exact = _EXACT_EVAL_CACHE.get(key)
        if exact is None:
            obs.get_metrics().inc("cache.exact_misses")
            marginals = [
                _row_marginals(t.marginals, t.outcomes, b)
                for t, b in zip(tables, combo)
            ]
            exact = evaluate_prepared(outcomes, marginals, self.ondemand)
            _bounded_put(_EXACT_EVAL_CACHE, key, exact, _EXACT_EVAL_CACHE_MAX)
            self._added_exacts[key] = exact
        else:
            obs.get_metrics().inc("cache.exact_hits")
        return exact


def _prefix_rows(
    head: Sequence[_GroupTable], lo: int, hi: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Grid products of rows ``lo..hi`` of ``head``'s row-major product
    space: one group's rows are the seed itself, and a longer head
    extends the rows of its own prefix that cover ``lo..hi`` by its last
    group (:func:`.grid_eval.extend_products`)."""
    if len(head) == 1:
        return head[0].surv_ratio[lo:hi], head[0].below_wall[lo:hi]
    nb = head[-1].n_bids
    first, end = lo // nb, -(-hi // nb)
    prod_r, prod_w = grid_eval.extend_products(
        *_prefix_rows(head[:-1], first, end), head[-1]
    )
    skip = lo - first * nb
    return prod_r[skip:skip + hi - lo], prod_w[skip:skip + hi - lo]


def _combo_batches(sizes: Sequence[int], max_batch: int):
    """Yield (C, k) index arrays covering the product space in batches.

    Both paths enumerate the product space in row-major order (last
    index fastest, matching ``itertools.product``); the streaming path
    decodes flat indices arithmetically instead of materialising python
    tuples, so even huge spaces stream as pure array work.
    """
    total = math.prod(sizes)
    k = len(sizes)
    if total <= max_batch:
        grids = np.indices(sizes).reshape(k, total).T
        yield np.ascontiguousarray(grids)
        return
    # Stream the product in chunks: decode flat indices lo..hi into
    # mixed-radix digits (row-major, matching itertools.product order).
    radix = np.asarray(sizes, dtype=np.intp)
    divisors = np.ones(k, dtype=np.intp)
    for j in range(k - 2, -1, -1):
        divisors[j] = divisors[j + 1] * radix[j + 1]
    for lo in range(0, total, max_batch):
        flat = np.arange(lo, min(lo + max_batch, total), dtype=np.intp)
        yield (flat[:, None] // divisors[None, :]) % radix[None, :]
