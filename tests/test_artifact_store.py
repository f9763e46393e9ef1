"""Artifact-store lifecycle tests (DESIGN.md §10).

Cold write → warm load bit-identity, content-hash invalidation,
engine-fingerprint invalidation, corruption fail-open (the container
fault matrix), the search sidecar's per-plan parts, and the disk
tier's one off-switch (``REPRO_ARTIFACT_DIR=""``) — at the store level
and through the full planning and replay pipeline.
"""

from __future__ import annotations

import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.cloud.instance_types import get_instance_type
from repro.config import SompiConfig
from repro.core.optimizer import SompiOptimizer
from repro.core.problem import OnDemandOption, Problem
from repro.core.two_level import TwoLevelOptimizer, clear_shared_caches
from repro.execution import artifacts
from repro.execution.artifacts import ARTIFACT_SUFFIX, ArtifactStore, get_store
from repro.execution.batch_replay import replay_batch
from repro.execution.montecarlo import sample_start_times
from repro.market.history import SpotPriceHistory
from repro.market.trace import SpotPriceTrace
from tests.conftest import make_group


def alternating_trace(cheap=0.05, dear=0.8, period=6.0, hours=240.0):
    times, prices = [], []
    k = 0
    while k * period < hours:
        times += [k * period, k * period + period / 2]
        prices += [cheap, dear]
        k += 1
    return SpotPriceTrace(times, prices, hours + period)


def _problem_and_history(flat_price=0.04):
    g1 = make_group(zone="us-east-1a", exec_time=8.0, overhead=0.1, recovery=0.1)
    g2 = make_group(zone="us-east-1b", exec_time=8.0, overhead=0.1, recovery=0.1)
    problem = Problem(
        groups=(g1, g2),
        ondemand_options=(
            OnDemandOption(get_instance_type("c3.xlarge"), 8, 7.0),
        ),
        deadline=14.0,
    )
    history = SpotPriceHistory()
    history.add(g1.key, alternating_trace())
    history.add(g2.key, SpotPriceTrace([0.0], [flat_price], 300.0))
    return problem, history


def _plan(history, tmp_root, problem=None):
    """Plan with the store at ``tmp_root``; ``None`` resolves the store
    through ``REPRO_ARTIFACT_DIR`` (empty: disk tier off)."""
    if problem is None:
        problem, _ = _problem_and_history()
    cfg = SompiConfig(
        kappa=2,
        bid_levels=5,
        artifact_dir=None if tmp_root is None else str(tmp_root),
    )
    return SompiOptimizer.from_history(problem, history, cfg).plan()


def _assert_same_plan(a, b):
    assert a.decision == b.decision
    assert a.expectation.cost == b.expectation.cost  # exact, not approx
    assert a.expectation.time == b.expectation.time


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_shared_caches()
    yield
    clear_shared_caches()


class TestStoreUnit:
    def test_roundtrip_is_bit_identical(self, tmp_path):
        store = ArtifactStore(tmp_path)
        rng = np.random.default_rng(0)
        arrays = {
            "f": rng.standard_normal(257),
            "i": np.arange(19, dtype=np.int64),
            "b": rng.standard_normal(31) > 0.0,
        }
        assert store.save("k", "ab" + "0" * 62, arrays)
        loaded = store.load("k", "ab" + "0" * 62)
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            assert loaded[name].dtype == arr.dtype
            assert loaded[name].tobytes() == arr.tobytes()

    def test_missing_artifact_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        before = obs.get_metrics().get("cache.artifact_misses.k")
        assert store.load("k", "ff" + "0" * 62) is None
        assert obs.get_metrics().get("cache.artifact_misses.k") == before + 1

    def test_corrupt_artifact_fails_open_and_is_unlinked(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "cd" + "0" * 62
        store.save("k", key, {"x": np.arange(4.0)})
        path = store.path_for("k", key)
        path.write_bytes(b"this is not an npz file")
        before = obs.get_metrics().get("cache.artifact_errors.k")
        assert store.load("k", key) is None
        assert obs.get_metrics().get("cache.artifact_errors.k") == before + 1
        assert not path.exists()  # bad file dropped so a rebuild repairs it

    def test_save_leaves_no_temp_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("k", "ee" + "0" * 62, {"x": np.arange(3.0)})
        assert not list(tmp_path.rglob("*.tmp"))


class TestStoreGating:
    def test_explicit_dir_always_opens_a_store(self, tmp_path, monkeypatch):
        assert get_store(str(tmp_path)) is not None
        # The env off-switch only governs the default location.
        monkeypatch.setenv(artifacts.ARTIFACT_DIR_ENV, "")
        assert get_store(str(tmp_path)) is not None

    def test_empty_env_override_disables_default_dir(self, monkeypatch):
        monkeypatch.setenv(artifacts.ARTIFACT_DIR_ENV, "")
        assert get_store(SompiConfig().artifact_dir) is None


class TestPlannerLifecycle:
    def test_cold_write_then_warm_load_is_bit_identical(self, tmp_path):
        problem, history = _problem_and_history()
        metrics = obs.get_metrics()
        cold = _plan(history, tmp_path, problem)
        assert metrics.get("cache.artifact_writes.group_tables") >= 1
        # Simulate a fresh process: memory caches emptied, disk intact.
        clear_shared_caches()
        hits = metrics.get("cache.artifact_hits.group_tables")
        warm = _plan(history, tmp_path, problem)
        assert metrics.get("cache.artifact_hits.group_tables") > hits
        _assert_same_plan(cold, warm)

    def test_content_hash_invalidates(self, tmp_path):
        problem, history_a = _problem_and_history(flat_price=0.04)
        _plan(history_a, tmp_path, problem)
        clear_shared_caches()
        # Different trace content must key differently: no table hits.
        _, history_b = _problem_and_history(flat_price=0.06)
        metrics = obs.get_metrics()
        hits = metrics.get("cache.artifact_hits.group_tables")
        from_store = _plan(history_b, tmp_path, problem)
        assert metrics.get("cache.artifact_hits.group_tables") == hits
        # And the stale artifacts never leak into the new plan.
        clear_shared_caches()
        fresh = _plan(history_b, tmp_path / "empty", problem)
        _assert_same_plan(from_store, fresh)

    def test_engine_fingerprint_invalidates(self, tmp_path, monkeypatch):
        problem, history = _problem_and_history()
        cold = _plan(history, tmp_path, problem)
        clear_shared_caches()
        monkeypatch.setitem(artifacts._FINGERPRINT_MEMO, "fp", "0" * 64)
        metrics = obs.get_metrics()
        hits = metrics.get("cache.artifact_hits.group_tables")
        rebuilt = _plan(history, tmp_path, problem)
        assert metrics.get("cache.artifact_hits.group_tables") == hits
        _assert_same_plan(cold, rebuilt)

    def test_corrupted_store_fails_open(self, tmp_path):
        problem, history = _problem_and_history()
        cold = _plan(history, tmp_path, problem)
        clear_shared_caches()
        damaged = list(tmp_path.rglob(f"*{ARTIFACT_SUFFIX}"))
        assert damaged
        for path in damaged:
            path.write_bytes(b"garbage")
        errors_before = obs.get_metrics().get(
            "cache.artifact_errors.group_tables"
        )
        warm = _plan(history, tmp_path, problem)
        _assert_same_plan(cold, warm)
        assert (
            obs.get_metrics().get("cache.artifact_errors.group_tables")
            > errors_before
        )
        # The bad files were unlinked and the rebuild re-saved valid
        # artifacts in their place: every surviving file loads cleanly.
        store = ArtifactStore(tmp_path)
        for path in tmp_path.rglob(f"*{ARTIFACT_SUFFIX}"):
            assert path.read_bytes() != b"garbage"
            kind, _shard, name = path.relative_to(store.root).parts[:3]
            if name == path.name:
                assert store.load(kind, path.stem) is not None
            else:  # one part of a parted artifact: ``name`` is its key
                assert len(store.load(kind, name, parts=True)) == len(
                    list(path.parent.glob(f"*{ARTIFACT_SUFFIX}"))
                )

    def test_bundle_without_grids_rebuilds_only_the_grids(
        self, tmp_path, monkeypatch
    ):
        """A bundle whose survival-grid columns are gone, checksum
        intact, still gives the identical plan: its entries load, only
        the grids are rebuilt, and the bundle is re-saved with them, so
        the next cold process reads the grids back."""
        problem, history = _problem_and_history()
        cold = _plan(history, tmp_path, problem)
        store = ArtifactStore(tmp_path)
        (path,) = (store.root / "group_tables").rglob(f"*{ARTIFACT_SUFFIX}")
        full = {k: v.copy() for k, v in store.load("group_tables", path.stem).items()}
        stripped = {k: v for k, v in full.items() if "_surv_" not in k}
        assert len(stripped) == len(full) - 2 * len(problem.groups)
        assert store.save("group_tables", path.stem, stripped)

        def no_entry_build(*args, **kwargs):
            raise AssertionError("an entry was rebuilt, not loaded")

        monkeypatch.setattr(TwoLevelOptimizer, "_build_entry", no_entry_build)
        metrics = obs.get_metrics()
        name = "cache.artifact_writes.group_tables"
        clear_shared_caches()
        writes = metrics.get(name)
        _assert_same_plan(cold, _plan(history, tmp_path, problem))
        assert metrics.get(name) == writes + 1  # re-saved with its grids
        resaved = store.load("group_tables", path.stem)
        assert set(resaved) == set(full)
        for k, v in full.items():
            assert resaved[k].dtype == v.dtype
            assert resaved[k].tobytes() == v.tobytes()
        # A fresh process reads the grids back: nothing to save.
        clear_shared_caches()
        _assert_same_plan(cold, _plan(history, tmp_path, problem))
        assert metrics.get(name) == writes + 1

    def test_plan_invariant_under_cache_and_grid_config(
        self, tmp_path, monkeypatch
    ):
        """A fully cold plan (memory cleared, empty store) matches every
        warmer state of the two tiers, and a run with the disk tier off."""
        problem, history = _problem_and_history()
        reference = _plan(history, tmp_path / "ref", problem)
        # Memory and disk warm.
        _assert_same_plan(reference, _plan(history, tmp_path / "ref", problem))
        # Memory cold, disk warm.
        clear_shared_caches()
        _assert_same_plan(reference, _plan(history, tmp_path / "ref", problem))
        # Memory cold, disk tier off.
        clear_shared_caches()
        monkeypatch.setenv(artifacts.ARTIFACT_DIR_ENV, "")
        _assert_same_plan(reference, _plan(history, None, problem))


def _flip_last_byte(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 0xFF])


#: Damage applied to a container's bytes; a lookup of the damaged
#: file is a counted error.
_DAMAGE = {
    "truncated_header": lambda d: d[:artifacts._HEAD + 5],
    "truncated_payload": lambda d: d[:-7],
    "flipped_payload_byte": _flip_last_byte,
    "wrong_magic": lambda d: b"NOTSOMPI" + d[8:],
}


def _leave_v1_npz(store: ArtifactStore, path) -> None:
    """Replace a container by the same arrays in the retired ``v1`` npz
    layout, which the current store must never read."""
    rel = path.relative_to(store.root)
    arrays = artifacts._read(path)
    old = store.root.parent / "v1" / rel.with_suffix(".npz")
    old.parent.mkdir(parents=True, exist_ok=True)
    np.savez(old, **arrays)
    path.unlink()


def _damage(store: ArtifactStore, path, case: str) -> str:
    """Apply one fault case to ``path``; the counter a lookup bumps."""
    if case == "v1_leftover":
        _leave_v1_npz(store, path)
        return "misses"
    path.write_bytes(_DAMAGE[case](path.read_bytes()))
    return "errors"


class TestContainerFaults:
    """The artifact row of the fault matrix: every damaged container is
    a counted error and is unlinked, a retired ``v1`` store is a counted
    miss, and the plan is identical either way."""

    CASES = sorted(_DAMAGE) + ["v1_leftover"]

    @pytest.mark.parametrize("case", CASES)
    def test_store_level(self, tmp_path, case):
        store = ArtifactStore(tmp_path)
        key = "ab" + "1" * 62
        store.save("k", key, {"x": np.arange(40.0), "y": np.ones(3, bool)})
        path = store.path_for("k", key)
        counter = _damage(store, path, case)
        metrics = obs.get_metrics()
        before = metrics.get(f"cache.artifact_{counter}.k")
        assert store.load("k", key) is None
        assert metrics.get(f"cache.artifact_{counter}.k") == before + 1
        assert not path.exists()
        if case == "v1_leftover":  # ignored, never read or removed
            assert list((tmp_path / "v1").rglob("*.npz"))

    @pytest.mark.parametrize("case", CASES)
    def test_plan_is_identical(self, tmp_path, case):
        problem, history = _problem_and_history()
        reference = _plan(history, tmp_path / "ref", problem)
        clear_shared_caches()
        root = tmp_path / "store"
        _assert_same_plan(reference, _plan(history, root, problem))
        store = ArtifactStore(root)
        paths = list(root.rglob(f"*{ARTIFACT_SUFFIX}"))
        kinds = {p.relative_to(store.root).parts[0] for p in paths}
        assert kinds == {"group_tables", "search_sidecar"}
        counter = {_damage(store, path, case) for path in paths}.pop()

        def counted():
            counters = obs.get_metrics().snapshot()["counters"]
            return sum(v for name, v in counters.items()
                       if name.startswith(f"cache.artifact_{counter}."))

        before = counted()
        clear_shared_caches()
        _assert_same_plan(reference, _plan(history, root, problem))
        # One count per lookup: one per damaged file, or one miss per kind.
        expected = len(kinds) if case == "v1_leftover" else len(paths)
        assert counted() == before + expected
        # Every damaged file was unlinked; what the store holds now is
        # what the rebuild re-saved, and it reads back cleanly.
        for path in root.rglob(f"*{ARTIFACT_SUFFIX}"):
            artifacts._read(path)


class TestSearchSidecar:
    """The search sidecar is written in per-plan parts and merged on
    load (DESIGN.md §10)."""

    def _optimizer(self, problem, history, tmp_path):
        cfg = SompiConfig(kappa=2, bid_levels=5, artifact_dir=str(tmp_path))
        models = SompiOptimizer.from_history(problem, history, cfg).failure_models
        return TwoLevelOptimizer(
            problem, models, problem.ondemand_options[0], cfg
        )

    @staticmethod
    def _counts(*names):
        metrics = obs.get_metrics()
        return tuple(metrics.get(name) for name in names)

    def test_cold_plan_then_cleared_replan_hits(self, tmp_path):
        problem, history = _problem_and_history()
        (writes,) = self._counts("cache.artifact_writes.search_sidecar")
        cold = _plan(history, tmp_path, problem)
        assert self._counts("cache.artifact_writes.search_sidecar") == (
            writes + 1,
        )
        clear_shared_caches()
        names = ("cache.subset_hits", "cache.exact_hits",
                 "cache.subset_misses", "cache.exact_misses",
                 "cache.artifact_hits.search_sidecar")
        before = self._counts(*names)
        warm = _plan(history, tmp_path, problem)
        after = self._counts(*names)
        assert after[0] > before[0] and after[1] > before[1]
        assert after[2:4] == before[2:4]  # nothing recomputed
        assert after[4] == before[4] + 1  # one scope lookup, one hit
        _assert_same_plan(cold, warm)

    def test_fully_warm_plan_writes_nothing(self, tmp_path):
        problem, history = _problem_and_history()
        _plan(history, tmp_path, problem)
        name = "cache.artifact_writes.search_sidecar"
        writes = obs.get_metrics().get(name)
        _plan(history, tmp_path, problem)  # memory-warm
        clear_shared_caches()
        _plan(history, tmp_path, problem)  # disk-warm
        assert obs.get_metrics().get(name) == writes

    def _two_parts(self, problem, history, tmp_path):
        """Two optimizers of one scope that never see each other's
        entries (two processes), saving after both searched.  Returns
        both results and the part each one wrote."""
        first = self._optimizer(problem, history, tmp_path)
        a = first.optimize_subset((0,))
        clear_shared_caches()
        second = self._optimizer(problem, history, tmp_path)
        b = second.optimize_subset((1,))
        key = first._sidecar_scope()
        assert key == second._sidecar_scope()
        folder = ArtifactStore(tmp_path).parts_dir("search_sidecar", key)
        second.save_search_sidecar()
        (part_b,) = folder.glob(f"*{ARTIFACT_SUFFIX}")
        first.save_search_sidecar()
        (part_a,) = set(folder.glob(f"*{ARTIFACT_SUFFIX}")) - {part_b}
        return a, b, part_a, part_b

    def test_two_optimizers_write_two_parts_and_both_merge(self, tmp_path):
        problem, history = _problem_and_history()
        a, b, _part_a, _part_b = self._two_parts(problem, history, tmp_path)
        clear_shared_caches()
        names = ("cache.subset_misses", "cache.exact_misses",
                 "cache.artifact_hits.search_sidecar")
        before = self._counts(*names)
        fresh = self._optimizer(problem, history, tmp_path)
        assert fresh.optimize_subset((0,)) == a
        assert fresh.optimize_subset((1,)) == b
        assert self._counts(*names) == (before[0], before[1], before[2] + 1)

    def test_damaged_part_is_dropped_and_the_rest_merges(self, tmp_path):
        problem, history = _problem_and_history()
        a, b, _part_a, part_b = self._two_parts(problem, history, tmp_path)
        part_b.write_bytes(_flip_last_byte(part_b.read_bytes()))
        clear_shared_caches()
        names = ("cache.artifact_errors.search_sidecar",
                 "cache.artifact_hits.search_sidecar",
                 "cache.subset_misses")
        before = self._counts(*names)
        fresh = self._optimizer(problem, history, tmp_path)
        assert fresh.optimize_subset((0,)) == a  # the good part merged
        assert self._counts(*names) == (before[0] + 1, before[1] + 1,
                                        before[2])
        assert not part_b.exists()
        assert fresh.optimize_subset((1,)) == b  # recomputed, identical
        assert self._counts(*names)[2] == before[2] + 1


def _kernel_problem():
    """Two groups on random many-segment traces, planned and replayed."""
    n = 256
    g1 = make_group(zone="us-east-1a", exec_time=8.0)
    g2 = make_group(zone="us-east-1b", exec_time=8.0)
    problem = Problem(
        groups=(g1, g2),
        ondemand_options=(
            OnDemandOption(get_instance_type("c3.xlarge"), 8, 7.0),
        ),
        deadline=14.0,
    )
    history = SpotPriceHistory()
    for seed, spec in enumerate((g1, g2)):
        rng = np.random.default_rng(seed)
        times = np.arange(n, dtype=np.float64) * 0.25
        history.add(spec.key, SpotPriceTrace(
            times, 0.01 + 0.02 * rng.random(n), float(n) * 0.25
        ))
    return problem, history


def _plan_and_replay(problem, history, tmp_root):
    plan = _plan(history, tmp_root, problem)
    assert plan.decision.groups, "expected a spot-using plan"
    starts = sample_start_times(
        problem, plan.decision, history, 16, np.random.default_rng(5)
    )
    return plan, replay_batch(problem, plan.decision, history, starts)


def _artifact_counters():
    counters = obs.get_metrics().snapshot()["counters"]
    return {
        name: value for name, value in counters.items()
        if name.startswith("cache.artifact_")
    }


def _isolate_store_env(tmp_path, monkeypatch):
    """Every other place a store could resolve to lives in tmp_path."""
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.chdir(tmp_path)


class TestDiskOffSwitch:
    """``REPRO_ARTIFACT_DIR=""`` turns off every disk tier at once: the
    planner's group-table bundles and its search sidecar."""

    def test_empty_env_writes_nothing_and_matches_warm_store(
        self, tmp_path, monkeypatch
    ):
        _isolate_store_env(tmp_path, monkeypatch)
        monkeypatch.setenv(artifacts.ARTIFACT_DIR_ENV, "")
        problem, history = _kernel_problem()

        before = _artifact_counters()
        off_plan, off_runs = _plan_and_replay(problem, history, None)
        assert not list(tmp_path.rglob(f"*{ARTIFACT_SUFFIX}"))
        assert _artifact_counters() == before  # no disk event counted

        # The same run on a private store, cold (writes both kinds) and
        # then warm from disk.
        store_dir = tmp_path / "store"
        monkeypatch.setenv(artifacts.ARTIFACT_DIR_ENV, str(store_dir))
        clear_shared_caches()
        _plan_and_replay(problem, history, None)
        root = ArtifactStore(store_dir).root
        kinds = {
            p.relative_to(root).parts[0]
            for p in store_dir.rglob(f"*{ARTIFACT_SUFFIX}")
        }
        assert kinds == {"group_tables", "search_sidecar"}
        clear_shared_caches()
        names = ("cache.artifact_hits.group_tables",
                 "cache.artifact_hits.search_sidecar")
        hits = [obs.get_metrics().get(name) for name in names]
        warm_plan, warm_runs = _plan_and_replay(problem, history, None)
        assert all(
            obs.get_metrics().get(name) > hit for name, hit in zip(names, hits)
        )
        _assert_same_plan(off_plan, warm_plan)
        assert off_runs == warm_runs  # exact, field by field


class TestWriteFaults:
    """The write row of the fault matrix: on a read-only or full store
    directory every ``save`` is a counted ``False`` that leaves no temp
    file behind, and planning and replay give exactly the results of
    the disk tier switched off.  The filesystem calls are patched, not
    the directory ``chmod``-ed, because root ignores file modes."""

    @pytest.mark.parametrize("call", ["mkstemp", "replace"])
    @pytest.mark.parametrize(
        "code", [errno.EROFS, errno.ENOSPC], ids=["EROFS", "ENOSPC"]
    )
    def test_failed_writes_match_disk_off(
        self, tmp_path, monkeypatch, code, call
    ):
        _isolate_store_env(tmp_path, monkeypatch)
        monkeypatch.setenv(artifacts.ARTIFACT_DIR_ENV, "")
        problem, history = _kernel_problem()
        off_plan, off_runs = _plan_and_replay(problem, history, None)

        def fail(*args, **kwargs):
            raise OSError(code, os.strerror(code))

        if call == "mkstemp":
            monkeypatch.setattr(artifacts.tempfile, "mkstemp", fail)
        else:
            monkeypatch.setattr(artifacts.os, "replace", fail)
        store_dir = tmp_path / "store"
        assert ArtifactStore(store_dir).save(
            "k", "ab" + "1" * 62, {"x": np.arange(4.0)}
        ) is False

        monkeypatch.setenv(artifacts.ARTIFACT_DIR_ENV, str(store_dir))
        clear_shared_caches()
        before = _artifact_counters()
        plan, runs = _plan_and_replay(problem, history, None)
        _assert_same_plan(off_plan, plan)
        assert off_runs == runs  # exact, field by field

        counted = {
            name: value - before.get(name, 0)
            for name, value in _artifact_counters().items()
            if value != before.get(name, 0)
        }
        prefix = "cache.artifact_write_errors."
        failed = {name[len(prefix):] for name in counted if name.startswith(prefix)}
        assert failed == {"group_tables", "search_sidecar"}
        assert not any(n.startswith("cache.artifact_writes.") for n in counted)
        assert not list(tmp_path.rglob("*.tmp"))
        assert not list(tmp_path.rglob(f"*{ARTIFACT_SUFFIX}"))


class TestEviction:
    """LRU size/age eviction and the config/env cap resolution."""

    def _fill(self, store, n=4, kind="kernel"):
        """``n`` same-size artifacts with mtimes 1000, 1001, ... (oldest
        first by key order)."""
        paths = []
        for i in range(n):
            key = f"{i:02x}" + "f" * 62
            assert store.save(kind, key, {"a": np.arange(32.0)})
            p = store.path_for(kind, key)
            os.utime(p, (1000.0 + i, 1000.0 + i))
            paths.append(p)
        return paths

    def test_size_eviction_drops_least_recently_used(self, tmp_path):
        store = ArtifactStore(tmp_path)
        paths = self._fill(store, n=4)
        keep = sum(p.stat().st_size for p in paths[2:])
        removed, freed = store.evict(max_bytes=keep)
        assert removed == 2
        assert freed > 0
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists() and paths[3].exists()

    def test_load_touches_mtime_so_hits_stay_resident(self, tmp_path):
        store = ArtifactStore(tmp_path)
        (old,) = self._fill(store, n=1)
        assert old.stat().st_mtime == 1000.0
        assert store.load("kernel", "00" + "f" * 62) is not None
        assert old.stat().st_mtime > 1000.0

    def test_age_eviction_against_explicit_now(self, tmp_path):
        store = ArtifactStore(tmp_path)
        paths = self._fill(store, n=4)  # mtimes 1000..1003
        removed, _freed = store.evict(
            max_age_days=1.0, now=1002.0 + 86400.0
        )
        assert removed == 2
        assert [p.exists() for p in paths] == [False, False, True, True]

    def test_evict_without_bounds_is_a_noop(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._fill(store, n=2)
        assert store.evict() == (0, 0)
        assert store.stats()["files"] == 2

    def test_clear_removes_everything(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._fill(store, n=3, kind="planner")
        removed, freed = store.clear()
        assert removed == 3 and freed > 0
        assert store.stats() == {"files": 0, "bytes": 0, "by_kind": {}}

    def test_clear_cli_removes_a_retired_version(self, tmp_path):
        retired = tmp_path / "v1" / "group_tables" / "ab" / "ab00.npz"
        retired.parent.mkdir(parents=True)
        retired.write_bytes(b"\0" * 64)
        store = ArtifactStore(tmp_path)
        self._fill(store, n=1)
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", "artifacts",
             "--dir", str(tmp_path), "--clear"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout
        assert "cleared 2 artifact(s)" in out
        assert not retired.exists()
        assert not (tmp_path / "v1").exists()
        assert store.stats()["files"] == 0

    def test_stats_and_evict_see_a_retired_version(self, tmp_path):
        retired = tmp_path / "v1" / "group_tables" / "ab" / "ab00.npz"
        retired.parent.mkdir(parents=True)
        retired.write_bytes(b"\0" * 64)
        store = ArtifactStore(tmp_path)
        (current,) = self._fill(store, n=1)
        size = current.stat().st_size
        stats = store.stats()
        assert stats["files"] == 2 and stats["bytes"] == size + 64
        assert stats["by_kind"]["(retired)"] == {"files": 1, "bytes": 64}
        # The cap fits the current artifact: only the retired file goes,
        # and its version's directory goes with it.
        assert store.evict(max_bytes=size) == (1, 64)
        assert current.exists()
        assert not (tmp_path / "v1").exists()
        one = {"files": 1, "bytes": size}
        assert store.stats() == {**one, "by_kind": {"kernel": one}}

    def test_a_newer_version_is_not_retired(self, tmp_path):
        """A newer checkout sharing the directory keeps its store: stats,
        evict and clear of this version neither count nor remove it."""
        newer = tmp_path / f"v{artifacts.ARTIFACT_VERSION + 1}"
        live = newer / "group_tables" / "ab" / "ab00.art"
        live.parent.mkdir(parents=True)
        live.write_bytes(b"\0" * 64)
        retired = tmp_path / "v1" / "group_tables" / "ab" / "ab00.npz"
        retired.parent.mkdir(parents=True)
        retired.write_bytes(b"\0" * 32)
        store = ArtifactStore(tmp_path)
        (current,) = self._fill(store, n=1)
        size = current.stat().st_size
        stats = store.stats()
        assert stats["files"] == 2 and stats["bytes"] == size + 32
        assert stats["by_kind"]["(retired)"] == {"files": 1, "bytes": 32}
        assert store.evict(max_bytes=size) == (1, 32)
        assert live.exists() and not (tmp_path / "v1").exists()
        assert store.clear() == (1, size)
        assert live.read_bytes() == b"\0" * 64

    def test_save_runs_periodic_eviction(self, tmp_path, monkeypatch):
        monkeypatch.setattr(artifacts, "_EVICT_EVERY_WRITES", 2)
        probe = ArtifactStore(tmp_path)
        self._fill(probe, n=1)
        one_file = probe.stats()["bytes"]
        probe.clear()
        store = ArtifactStore(tmp_path, max_bytes=one_file)
        self._fill(store, n=5)
        # The cap is enforced within one eviction period of the writes.
        assert store.stats()["bytes"] <= 2 * one_file

    def test_get_store_applies_cap_on_open(self, tmp_path, monkeypatch):
        seed = ArtifactStore(tmp_path)
        paths = self._fill(seed, n=4)
        keep = sum(p.stat().st_size for p in paths[3:])
        monkeypatch.setenv(artifacts.ARTIFACT_MAX_BYTES_ENV, str(keep))
        store = get_store(str(tmp_path))
        assert store is not None and store.max_bytes == keep
        assert store.stats()["bytes"] <= keep
        assert paths[3].exists() and not paths[0].exists()


class TestMaxBytesResolution:
    def test_env_value_is_the_cap(self, monkeypatch):
        monkeypatch.setenv(artifacts.ARTIFACT_MAX_BYTES_ENV, "50")
        assert artifacts.resolve_max_bytes() == 50
        monkeypatch.delenv(artifacts.ARTIFACT_MAX_BYTES_ENV)
        assert artifacts.resolve_max_bytes() is None

    def test_empty_env_means_no_limit(self, monkeypatch):
        monkeypatch.setenv(artifacts.ARTIFACT_MAX_BYTES_ENV, "")
        assert artifacts.resolve_max_bytes() is None

    def test_nonpositive_env_means_no_limit(self, monkeypatch):
        monkeypatch.setenv(artifacts.ARTIFACT_MAX_BYTES_ENV, "0")
        assert artifacts.resolve_max_bytes() is None

    def test_garbage_env_raises(self, monkeypatch):
        from repro.errors import ConfigurationError

        monkeypatch.setenv(artifacts.ARTIFACT_MAX_BYTES_ENV, "lots")
        with pytest.raises(ConfigurationError, match="integer"):
            artifacts.resolve_max_bytes()
