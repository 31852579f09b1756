"""Adaptive prefetch throttling (paper Section V).

Each core's prefetch engine contains a throttle engine that periodically
recomputes two metrics and adjusts a throttle degree between 0 (keep all
prefetches) and 5 (drop all prefetches, "No Prefetch"):

* **early eviction rate** (Eq. 5) = blocks evicted from the prefetch cache
  before first use / useful prefetches.  Early-evicted prefetches are always
  harmful: they consume bandwidth, delay other requests and pollute the
  prefetch cache.
* **merge ratio** (Eq. 6) = intra-core merges / total requests.  In contrast
  to CPUs, merged (late) prefetches in GPGPUs indicate benefit: the stall is
  hidden by switching warps while memory-level parallelism still improves.

At the end of each period the metrics are updated per Eqs. 7-8 — the early
eviction rate is replaced by the monitored value, while the merge ratio is a
running average of the previous and monitored values — and the throttle
degree moves per Table I:

====================  ===========  ================================
Early eviction rate   Merge ratio  Action
====================  ===========  ================================
High (> 0.02)         —            No prefetch (degree := 5)
Medium (0.01-0.02)    —            Increase throttle (degree += 1)
Low (< 0.01)          High (>15%)  Decrease throttle (degree -= 1)
Low                   Low          No prefetch (degree := 5)
====================  ===========  ================================

Because the merge ratio counts *all* intra-core merges (demand-demand
included), a workload whose demand requests overlap heavily keeps the merge
ratio high even while prefetching is disabled, which automatically re-enables
prefetching ("decrease throttle") — the engine is self-correcting in both
directions.  The degree starts at 2 (the paper's default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ThrottleConfig:
    """Adaptive prefetch-throttling parameters (paper Section V, Table I).

    The throttle degree ranges from 0 (keep all prefetches) to
    ``max_degree`` = 5 (drop all).  The paper uses a 100K-cycle period on
    full-length traces; our scaled workloads default to a shorter period so
    several adaptation intervals fit in a run.
    """

    enabled: bool = False
    period: int = 1000
    initial_degree: int = 2
    max_degree: int = 5
    #: The paper's thresholds (0.02 / 0.01 early eviction, 15% merge) are
    #: tuned for 100K-cycle windows of full-length traces.  Our scaled runs
    #: have a much larger fraction of inherent boundary waste (the last
    #: loop iterations of every warp prefetch past the end of their
    #: arrays) and far fewer concurrent warps per core, so both thresholds
    #: are rescaled; the *ordering* high > low and the Table I actions are
    #: unchanged.
    early_eviction_high: float = 0.30
    early_eviction_low: float = 0.15
    merge_high: float = 0.03

    def __post_init__(self) -> None:
        def _require(condition: bool, message: str) -> None:
            if not condition:
                raise ValueError(f"invalid throttle configuration: {message}")

        _require(self.period >= 1, f"period must be >= 1 cycle, got {self.period}")
        _require(
            self.max_degree >= 1, f"max_degree must be >= 1, got {self.max_degree}"
        )
        _require(
            0 <= self.initial_degree <= self.max_degree,
            f"initial_degree must lie in 0..{self.max_degree} "
            f"(0 = keep all prefetches, {self.max_degree} = drop all), "
            f"got {self.initial_degree}",
        )
        _require(
            0.0 <= self.early_eviction_low <= self.early_eviction_high,
            f"early-eviction thresholds must satisfy 0 <= low <= high, got "
            f"low={self.early_eviction_low} high={self.early_eviction_high}",
        )
        _require(
            self.merge_high >= 0.0,
            f"merge_high must be >= 0, got {self.merge_high}",
        )


@dataclass
class ThrottleWindow:
    """Metrics monitored during one throttling period.

    ``prefetch_cache_hits`` folds into the merge-ratio numerator: a demand
    hitting the prefetch cache is the limit case of a demand merging with
    its (already completed) prefetch, and must count as utility evidence —
    otherwise Table I's Low/Low rule would shut prefetching off precisely
    when it works perfectly (every prefetch timely, nothing left to merge).
    On the paper's full-length many-hundred-warp traces the distinction is
    invisible because demand-demand merges alone keep the ratio high.
    """

    early_evictions: int = 0
    useful_prefetches: int = 0
    intra_core_merges: int = 0
    total_requests: int = 0
    prefetch_cache_hits: int = 0

    @property
    def early_eviction_rate(self) -> float:
        """Eq. 5; 0/0 counts as low, n/0 as arbitrarily high."""
        if self.useful_prefetches == 0:
            return float("inf") if self.early_evictions > 0 else 0.0
        return self.early_evictions / self.useful_prefetches

    @property
    def merge_ratio(self) -> float:
        """Eq. 6 over this window only (before the Eq. 8 running average)."""
        total = self.total_requests + self.prefetch_cache_hits
        if total == 0:
            return 0.0
        return (self.intra_core_merges + self.prefetch_cache_hits) / total


class ThrottleEngine:
    """Per-core adaptive prefetch throttle (Fig. 9's "Throttle Engine")."""

    def __init__(self, config: Optional[ThrottleConfig] = None) -> None:
        self.config = config or ThrottleConfig(enabled=True)
        self.degree = self.config.initial_degree if self.config.enabled else 0
        self.merge_ratio = 0.0
        self.early_eviction_rate = 0.0
        self.next_update_cycle = self.config.period
        self._drop_counter = 0
        self.total_dropped = 0
        self.total_allowed = 0
        self.updates = 0

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def keep_fraction(self) -> float:
        """Fraction of prefetch requests the current degree admits.

        1.0 with throttling disabled or degree 0; 0.0 at
        ``max_degree`` ("No Prefetch"); ``1 - degree/max_degree``
        between (degree 2 of 5 keeps 3/5 of prefetch requests — see
        :meth:`allow_prefetch`).  Telemetry records the per-window
        minimum across cores as the closest analogue of an
        "active-warp limit" for a prefetch-gating throttle.
        """
        if not self.config.enabled or self.degree <= 0:
            return 1.0
        if self.degree >= self.config.max_degree:
            return 0.0
        return 1.0 - self.degree / self.config.max_degree

    def allow_prefetch(self) -> bool:
        """Gate one prefetch request; drops ``degree``/``max_degree`` of them.

        Dropping is deterministic (modular counter) so simulations are
        reproducible: with degree d, exactly d out of every ``max_degree``
        consecutive prefetch requests are dropped.
        """
        if not self.config.enabled or self.degree <= 0:
            self.total_allowed += 1
            return True
        if self.degree >= self.config.max_degree:
            self.total_dropped += 1
            return False
        slot = self._drop_counter % self.config.max_degree
        self._drop_counter += 1
        if slot < self.degree:
            self.total_dropped += 1
            return False
        self.total_allowed += 1
        return True

    def update(self, window: ThrottleWindow, cycle: Optional[int] = None) -> int:
        """End-of-period metric update (Eqs. 7-8) + Table I action.

        Args:
            window: The metrics monitored during the period that just ended.
            cycle: The cycle at which the update runs.  The simulator's
                event scheduler always lands updates exactly on
                ``next_update_cycle`` (the boundary is an event candidate),
                so the single-period advance below already moves the
                boundary past ``cycle``; the fast-forward is a guard for
                external callers that drive the engine with sparse cycle
                numbers, keeping the boundary strictly in the future.

        Returns the new throttle degree.
        """
        if not self.config.enabled:
            return self.degree
        self.updates += 1
        cfg = self.config
        # Eq. 7: the early eviction rate is the monitored value.
        self.early_eviction_rate = window.early_eviction_rate
        # Eq. 8: the merge ratio is averaged with the previous value.  The
        # very first window seeds the average with the monitored value —
        # averaging against an implicit zero would halve the first reading
        # and could latch the engine into "No Prefetch" before any real
        # evidence arrives.
        if self.updates == 1:
            self.merge_ratio = window.merge_ratio
        else:
            self.merge_ratio = (self.merge_ratio + window.merge_ratio) / 2.0
        if self.early_eviction_rate > cfg.early_eviction_high:
            self.degree = cfg.max_degree
        elif self.early_eviction_rate >= cfg.early_eviction_low:
            self.degree = min(cfg.max_degree, self.degree + 1)
        elif self.merge_ratio > cfg.merge_high:
            self.degree = max(0, self.degree - 1)
        else:
            self.degree = cfg.max_degree
        self.next_update_cycle += cfg.period
        if cycle is not None and self.next_update_cycle <= cycle:
            periods = (cycle - self.next_update_cycle) // cfg.period + 1
            self.next_update_cycle += periods * cfg.period
        return self.degree
