"""Unit helpers.

Internally the library uses a small set of canonical units:

* **time** — hours (``float``).  The spot market reprices on an hourly-ish
  granularity and EC2 bills by the hour, so hours keep all of the paper's
  quantities (checkpoint intervals, deadlines, window sizes) in a natural
  range.  ``SECONDS_PER_HOUR`` converts for the MPI-level timing model,
  which works in seconds.
* **money** — US dollars (``float``).
* **data** — bytes (``int`` or ``float``); constants for GB/MB.

The validators check their inputs because unit mix-ups are the classic
silent-failure mode of cost models.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError

SECONDS_PER_HOUR = 3600.0
HOURS_PER_DAY = 24.0
BYTES_PER_MB = 1024.0**2
BYTES_PER_GB = 1024.0**3


def days_to_hours(days: float) -> float:
    """Convert days to hours."""
    return days * HOURS_PER_DAY


def check_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a finite, strictly positive number."""
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def check_nonnegative(name: str, value: float) -> float:
    """Validate that ``value`` is a finite, non-negative number."""
    if not math.isfinite(value) or value < 0:
        raise ConfigurationError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


def check_fraction(name: str, value: float) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)
