"""SompiConfig validation and immutability."""

import dataclasses

import pytest

from repro.config import DEFAULT_CONFIG, SompiConfig


class TestDefaults:
    def test_paper_defaults(self):
        # The paper's parameter study selects these (Section 5.2).
        assert DEFAULT_CONFIG.slack == 0.20
        assert DEFAULT_CONFIG.kappa == 4
        assert DEFAULT_CONFIG.window_hours == 15.0

    def test_checkpointing_on_by_default(self):
        assert DEFAULT_CONFIG.checkpointing is True

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.slack = 0.5


class TestValidation:
    def test_bad_slack(self):
        with pytest.raises(Exception):
            SompiConfig(slack=1.5)

    def test_bad_kappa(self):
        with pytest.raises(ValueError):
            SompiConfig(kappa=0)

    def test_bad_window(self):
        with pytest.raises(Exception):
            SompiConfig(window_hours=0.0)

    def test_bad_bid_levels(self):
        with pytest.raises(ValueError):
            SompiConfig(bid_levels=0)

    def test_bad_time_step(self):
        with pytest.raises(Exception):
            SompiConfig(time_step_hours=-1.0)


class TestWith:
    def test_with_replaces(self):
        cfg = DEFAULT_CONFIG.with_(kappa=2)
        assert cfg.kappa == 2
        assert cfg.slack == DEFAULT_CONFIG.slack

    def test_with_validates(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.with_(kappa=-1)

    def test_with_does_not_mutate_original(self):
        DEFAULT_CONFIG.with_(slack=0.1)
        assert DEFAULT_CONFIG.slack == 0.20
