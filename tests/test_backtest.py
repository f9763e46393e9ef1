"""Backtest harness: window splitting, manifest, holdout isolation,
determinism (DESIGN.md §11)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.backtest import (
    BacktestManifest,
    build_manifest,
    plan_window,
    run_backtest,
    sample_window_starts,
    split_history,
    split_windows,
)
from repro.cloud.zones import Zone
from repro.config import SompiConfig
from repro.core.two_level import clear_shared_caches
from repro.core.windows import BacktestWindow
from repro.errors import ConfigurationError
from repro.execution.artifacts import ARTIFACT_DIR_ENV
from repro.experiments.env import ExperimentEnv
from repro.market.history import SpotPriceHistory
from repro.market.trace import SpotPriceTrace


def _mini_env(seed: int = 11, config: SompiConfig | None = None) -> ExperimentEnv:
    """A fresh reduced environment (function-scoped: tests mutate none)."""
    return ExperimentEnv.paper_default(
        seed=seed,
        history_days=21.0,
        train_days=7.0,
        config=config or SompiConfig(kappa=2, bid_levels=5),
        instance_types=("m1.medium", "cc2.8xlarge"),
        zones=(Zone("us-east-1a"), Zone("us-east-1b")),
    )


def _mini_manifest(env: ExperimentEnv, n_windows: int = 2) -> BacktestManifest:
    return build_manifest(
        env,
        n_windows=n_windows,
        plan_hours=5 * 24.0,
        holdout_hours=3 * 24.0,
        apps=("BT",),
        deadline_factors=(("loose", 1.5),),
        n_samples=30,
    )


@pytest.fixture(scope="module")
def mini_report():
    env = _mini_env()
    manifest = _mini_manifest(env)
    return env, manifest, run_backtest(env, manifest)


# ----------------------------------------------------------------------
# Window splitting
# ----------------------------------------------------------------------
class TestSplitWindows:
    def test_rolling_bounds(self):
        windows = split_windows(0.0, 35 * 24.0, 3, 14 * 24.0, 7 * 24.0)
        assert len(windows) == 3
        for i, w in enumerate(windows):
            assert w.index == i
            assert w.plan_start == i * 7 * 24.0
            assert w.plan_end == w.plan_start + 14 * 24.0
            assert w.holdout_end == w.plan_end + 7 * 24.0
        # Rolling origin: consecutive holdouts tile the future.
        assert windows[1].plan_end == windows[0].holdout_end

    def test_custom_stride(self):
        windows = split_windows(0.0, 100.0, 2, 10.0, 5.0, stride_hours=50.0)
        assert windows[1].plan_start == 50.0

    def test_too_short_raises(self):
        with pytest.raises(ConfigurationError, match="too short"):
            split_windows(0.0, 24.0, 2, 20.0, 10.0)

    def test_bad_params_raise(self):
        with pytest.raises(ConfigurationError):
            split_windows(0.0, 100.0, 0, 10.0, 5.0)
        with pytest.raises(ConfigurationError):
            split_windows(0.0, 100.0, 1, -1.0, 5.0)
        with pytest.raises(ConfigurationError):
            BacktestWindow(index=0, plan_start=5.0, plan_end=5.0, holdout_end=9.0)

    def test_exact_fit_allowed(self):
        windows = split_windows(0.0, 35.0, 3, 14.0, 7.0)
        assert windows[-1].holdout_end == pytest.approx(35.0)


class TestSampleWindowStarts:
    def test_within_trace(self, flat_trace):
        rng = np.random.default_rng(0)
        starts = sample_window_starts(flat_trace, 24.0, 50, rng)
        assert starts.shape == (50,)
        assert np.all(starts >= flat_trace.start_time)
        assert np.all(starts + 24.0 <= flat_trace.end_time)

    def test_short_trace_raises(self, flat_trace):
        # flat_trace spans 240 h; a 300 h span used to invert the
        # uniform range and silently sample outside the trace.
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="too short"):
            sample_window_starts(flat_trace, 300.0, 5, rng)

    def test_equal_span_raises(self, flat_trace):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            sample_window_starts(flat_trace, flat_trace.duration, 5, rng)

    def test_bad_n_raises(self, flat_trace):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            sample_window_starts(flat_trace, 24.0, 0, rng)


class TestSplitHistory:
    def test_partition_bounds_and_content(self, flat_trace):
        history = SpotPriceHistory()
        from repro.market.history import MarketKey

        key = MarketKey("m1.small", "us-east-1a")
        history.add(key, flat_trace)
        window = BacktestWindow(
            index=0, plan_start=0.0, plan_end=96.0, holdout_end=168.0
        )
        plan, holdout = split_history(history, window)
        assert plan.get(key).start_time == 0.0
        assert plan.get(key).end_time == 96.0
        assert holdout.get(key).start_time == 96.0
        assert holdout.get(key).end_time == 168.0
        # Disjoint content => disjoint cache/artifact keys.
        assert plan.get(key).content_hash() != holdout.get(key).content_hash()


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_round_trip(self, tmp_path, mini_report):
        env, manifest, _report = mini_report
        path = tmp_path / "manifest.json"
        manifest.save(path)
        loaded = BacktestManifest.load(path)
        assert loaded == manifest  # dataclass equality: bit-exact floats

    def test_rejects_unknown_format(self):
        with pytest.raises(ConfigurationError, match="format"):
            BacktestManifest.from_dict({"format": "bogus"})

    def test_check_traces_mismatch(self, mini_report):
        env, manifest, _report = mini_report
        other = _mini_env(seed=12)  # different seed -> different prices
        with pytest.raises(ConfigurationError, match="trace hash mismatch"):
            manifest.check_traces(other.history)

    def test_seed_mismatch_raises(self, mini_report):
        env, manifest, _report = mini_report
        other = _mini_env(seed=11)
        object.__setattr__(other, "seed", 99)
        with pytest.raises(ConfigurationError, match="seed"):
            run_backtest(other, manifest)

    def test_fingerprint_recorded(self, mini_report):
        from repro.execution.artifacts import engine_fingerprint

        _env, manifest, _report = mini_report
        assert manifest.engine_fingerprint == engine_fingerprint()


# ----------------------------------------------------------------------
# The harness itself
# ----------------------------------------------------------------------
class TestRunBacktest:
    def test_covers_every_cell(self, mini_report):
        _env, manifest, report = mini_report
        cells = {(r.window.index, r.app, r.deadline_name) for r in report.results}
        assert cells == {(0, "BT", "loose"), (1, "BT", "loose")}

    def test_rerun_is_bit_identical(self, mini_report):
        _env, manifest, report = mini_report
        env2 = _mini_env()
        report2 = run_backtest(env2, manifest)
        assert report2.results == report.results  # exact float equality

    def test_manifest_reload_rerun_is_bit_identical(self, tmp_path, mini_report):
        _env, manifest, report = mini_report
        path = tmp_path / "m.json"
        manifest.save(path)
        env2 = _mini_env()
        report2 = run_backtest(env2, BacktestManifest.load(path))
        assert report2.results == report.results

    def test_artifact_cache_off_is_bit_identical(self, mini_report, monkeypatch):
        """Disk tier off (``REPRO_ARTIFACT_DIR=""``), memory tier cold."""
        _env, manifest, report = mini_report
        monkeypatch.setenv(ARTIFACT_DIR_ENV, "")
        clear_shared_caches()
        env2 = _mini_env()
        report2 = run_backtest(env2, manifest)
        assert report2.results == report.results

    def test_table_cache_off_is_bit_identical(self, mini_report, tmp_path):
        """Memory tier cold and an empty private store: every table is
        rebuilt from scratch."""
        _env, manifest, report = mini_report
        clear_shared_caches()
        env2 = _mini_env(config=SompiConfig(
            kappa=2, bid_levels=5, artifact_dir=str(tmp_path)
        ))
        report2 = run_backtest(env2, manifest)
        assert report2.results == report.results

    def test_calibration_bins_consistent(self, mini_report):
        _env, _manifest, report = mini_report
        bins = report.calibration_bins()
        assert len(bins) == 10
        points = report.calibration_points()
        assert sum(b["n_points"] for b in bins) == len(points)
        for b in bins:
            assert 0.0 <= b["predicted"] <= 1.0
            assert 0.0 <= b["realized"] <= 1.0

    def test_events_emitted(self, mini_report):
        """Each finished cell, window and re-plan trigger is counted."""
        _env, manifest, report = mini_report
        metrics = obs.get_metrics()
        before = {
            name: metrics.get(name)
            for name in ("backtest.cells", "backtest.windows",
                         "backtest.replan_triggers")
        }
        run_backtest(_mini_env(), manifest)
        n_cells = len(manifest.windows) * len(manifest.apps) * len(
            manifest.deadline_factors
        )
        assert len(report.results) == n_cells
        assert metrics.get("backtest.cells") - before["backtest.cells"] == n_cells
        assert (
            metrics.get("backtest.windows") - before["backtest.windows"]
            == len(manifest.windows)
        )
        assert (
            metrics.get("backtest.replan_triggers")
            - before["backtest.replan_triggers"]
            == sum(len(r.triggers) for r in report.results)
        )

    def test_holdout_shorter_than_horizon_raises(self):
        env = _mini_env()
        manifest = build_manifest(
            env,
            n_windows=1,
            plan_hours=5 * 24.0,
            holdout_hours=6.0,  # far below any replay horizon
            apps=("BT",),
            deadline_factors=(("loose", 1.5),),
            n_samples=5,
        )
        with pytest.raises(ConfigurationError, match="holdout"):
            run_backtest(env, manifest)


# ----------------------------------------------------------------------
# Holdout isolation: the planner provably never reads holdout prices
# ----------------------------------------------------------------------
def _poisoned_env(env: ExperimentEnv, t_from: float) -> ExperimentEnv:
    """A clone of ``env`` whose prices from ``t_from`` on are garbage.

    Only segments *starting* at/after ``t_from`` are rewritten: the
    segment straddling the boundary carries a price that was genuinely
    set during the plan window, so the plan-window slice is unchanged.
    """
    poisoned = SpotPriceHistory()
    for key, trace in env.history.items():
        prices = trace.prices.copy()
        mask = trace.times >= t_from
        prices[mask] = prices[mask] * 50.0 + 10.0
        poisoned.add(
            key, SpotPriceTrace(trace.times.copy(), prices, trace.end_time)
        )
    return ExperimentEnv(
        history=poisoned,
        train_end=env.train_end,
        seed=env.seed,
        config=env.config,
        instance_types=env.instance_types,
        zones=env.zones,
    )


class TestHoldoutIsolation:
    def test_poisoned_holdout_does_not_change_the_plan(self):
        env = _mini_env()
        manifest = _mini_manifest(env, n_windows=1)
        window = manifest.windows[0]
        poisoned = _poisoned_env(env, window.plan_end)

        plan_hist, _ = split_history(env.history, window)
        plan_hist_p, holdout_p = split_history(poisoned.history, window)
        # The plan slices are bit-identical; the holdout slices are not.
        for key, trace in plan_hist.items():
            assert trace.content_hash() == plan_hist_p.get(key).content_hash()
        assert any(
            split_history(env.history, window)[1].get(key).content_hash()
            != holdout_p.get(key).content_hash()
            for key, _t in holdout_p.items()
        )

        problem = env.problem("BT", deadline_factor=1.5)
        plan, _models = plan_window(problem, plan_hist, env.config)
        plan_p, _models_p = plan_window(problem, plan_hist_p, poisoned.config)
        assert plan_p.decision == plan.decision
        assert plan_p.expectation == plan.expectation

    def test_poisoned_history_fails_the_trace_pin(self):
        env = _mini_env()
        manifest = _mini_manifest(env, n_windows=1)
        poisoned = _poisoned_env(env, manifest.windows[0].plan_end)
        with pytest.raises(ConfigurationError, match="trace hash mismatch"):
            run_backtest(poisoned, manifest)


# ----------------------------------------------------------------------
# The accuracy experiment's rebuilt window sampling (both branches)
# ----------------------------------------------------------------------
class TestAccuracyWindowSampling:
    def test_short_market_is_skipped_with_note(self, small_env):
        from repro.experiments import accuracy
        from repro.market.history import MarketKey

        keys = [MarketKey("m1.medium", "us-east-1a"),
                MarketKey("m1.medium", "us-east-1b")]
        env = ExperimentEnv(
            history=SpotPriceHistory(),
            train_end=small_env.train_end,
            seed=small_env.seed,
            config=small_env.config,
            instance_types=small_env.instance_types,
            zones=small_env.zones,
        )
        full = small_env.history.get(keys[0])
        env.history.add(keys[0], full)
        # Second market: only 3 days of trace — shorter than the window.
        env.history.add(keys[1], full.slice(full.start_time,
                                            full.start_time + 72.0))
        result = accuracy.run_failure_rate(
            env, markets=keys, n_windows=2, horizons=(6,),
            train_days=4.0, test_days=2.0,
        )
        assert any("skipped 1 market" in note for note in result.notes)
        assert result.rows[0][1] > 0  # the long market still contributed

    def test_all_markets_short_raises(self, small_env):
        from repro.experiments import accuracy
        from repro.market.history import MarketKey

        key = MarketKey("m1.medium", "us-east-1a")
        with pytest.raises(ConfigurationError, match="every market"):
            accuracy.run_failure_rate(
                small_env, markets=[key], n_windows=2, horizons=(6,),
                train_days=400.0, test_days=100.0,
            )


# ----------------------------------------------------------------------
# Fresh-process determinism of the CLI verb (acceptance criterion)
# ----------------------------------------------------------------------
class TestCliFreshProcessDeterminism:
    def test_quick_backtest_bit_identical_across_processes(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"results_{run}.json"
            man = tmp_path / f"manifest_{run}.json"
            subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "backtest", "--quick",
                    "--seed", "7", "--out", str(out), "--manifest", str(man),
                ],
                cwd=tmp_path,
                env=env,
                check=True,
                capture_output=True,
            )
            outs.append((out.read_bytes(), man.read_bytes()))
        assert outs[0][0] == outs[1][0], "results differ across fresh processes"
        assert outs[0][1] == outs[1][1], "manifests differ across fresh processes"
        doc = json.loads(outs[0][0])
        ids = {t["experiment_id"] for t in doc["tables"]}
        assert ids == {"EXT-BT-WIN", "EXT-BT-CAL", "EXT-BT-TRG"}
        win = next(t for t in doc["tables"] if t["experiment_id"] == "EXT-BT-WIN")
        assert len(win["rows"]) == 2  # --quick: 2 windows x BT x loose
