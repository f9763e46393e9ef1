"""Unit-helper tests."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.units import (
    check_fraction,
    check_nonnegative,
    check_positive,
    days_to_hours,
)


class TestConversions:
    def test_days(self):
        assert days_to_hours(2.5) == 60.0


class TestValidators:
    def test_check_positive_accepts(self):
        assert check_positive("x", 1.5) == 1.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_check_positive_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive("x", bad)

    def test_check_nonnegative_accepts_zero(self):
        assert check_nonnegative("x", 0.0) == 0.0

    @pytest.mark.parametrize("bad", [-0.1, math.nan, -math.inf])
    def test_check_nonnegative_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_nonnegative("x", bad)

    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_check_fraction_accepts(self, ok):
        assert check_fraction("x", ok) == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan])
    def test_check_fraction_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_fraction("x", bad)

    def test_validators_cast_to_float(self):
        assert isinstance(check_positive("x", 3), float)
