"""Global defaults shared across the library.

The values here mirror the defaults reported in the paper's evaluation
(Section 5): ``slack = 20%``, ``kappa = 4`` circle groups selected, and an
adaptive optimization window of ``T_m = 15`` hours.  They are collected in
one frozen dataclass so experiments can state their configuration
explicitly and tests can construct perturbed variants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .units import check_fraction, check_positive


@dataclass(frozen=True)
class SompiConfig:
    """Tunable knobs of the SOMPI optimizer.

    Attributes
    ----------
    slack:
        Fraction of the deadline reserved for checkpoint/recovery overhead
        when selecting the fallback on-demand instance type (Section 4.1).
        The paper's parameter study selects 20%.
    kappa:
        Number of circle groups actually used out of the ``K`` candidates
        (Section 4.4).  The paper selects 4.
    window_hours:
        Adaptive optimization window ``T_m`` (Section 4.3).  The paper
        selects 15 hours.
    bid_levels:
        ``L`` in the logarithmic bid search: candidate bids are
        ``H * 2**(j - L)`` for ``j = 0..L`` (plus 0 = "do not use group").
    time_step_hours:
        Discretisation step of failure times ``t_i`` (the paper floors to
        integers; we allow finer grids).
    checkpointing:
        Ablation switch (the paper's w/o-CK and All-Unable variants,
        Section 5.4.2): when False, every group's checkpoint interval is
        pinned to its execution time, i.e. no checkpoints are taken.
    max_miss_probability:
        Extension: an optional *chance constraint* — a candidate plan
        must additionally satisfy ``P(Time > Deadline) <= this`` under
        the model's joint outcome distribution (the paper only bounds
        the expectation).  ``None`` disables it.
    artifact_dir:
        Root directory of the on-disk artifact store
        (:mod:`repro.execution.artifacts`), the disk tier under the
        planner's always-on table caches.  ``None`` (default) resolves
        via the ``REPRO_ARTIFACT_DIR`` environment variable (empty
        disables the store), falling back to the user cache directory.
        Artifacts are keyed by trace content hash + engine fingerprint
        and loads are fail-open, so results are bit-identical with the
        store warm, cold, off, deleted or corrupted.  The store's size
        cap is the ``REPRO_ARTIFACT_MAX_BYTES`` environment variable.

    Audit mode is not a config field: it is switched per process with
    :func:`repro.obs.set_audit` / :func:`repro.obs.audited` or the
    ``REPRO_AUDIT=1`` environment variable (DESIGN.md §7).
    """

    slack: float = 0.20
    kappa: int = 4
    window_hours: float = 15.0
    bid_levels: int = 7
    time_step_hours: float = 1.0
    checkpointing: bool = True
    max_miss_probability: float | None = None
    artifact_dir: str | None = None

    def __post_init__(self) -> None:
        check_fraction("slack", self.slack)
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        check_positive("window_hours", self.window_hours)
        if self.bid_levels < 1:
            raise ValueError(f"bid_levels must be >= 1, got {self.bid_levels}")
        check_positive("time_step_hours", self.time_step_hours)
        if self.max_miss_probability is not None:
            check_fraction("max_miss_probability", self.max_miss_probability)

    def with_(self, **kwargs: Any) -> "SompiConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = SompiConfig()
"""Library-wide default configuration (paper defaults)."""
