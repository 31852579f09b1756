"""Unit tests for the adaptive prefetch throttle engine (Table I)."""

import pytest

from repro.core.throttle import ThrottleConfig, ThrottleEngine, ThrottleWindow


def make_engine(**overrides):
    defaults = dict(
        enabled=True,
        period=1000,
        initial_degree=2,
        early_eviction_high=0.30,
        early_eviction_low=0.15,
        merge_high=0.03,
    )
    defaults.update(overrides)
    return ThrottleEngine(ThrottleConfig(**defaults))


def window(early=0, useful=100, merges=0, requests=100, hits=0):
    return ThrottleWindow(
        early_evictions=early,
        useful_prefetches=useful,
        intra_core_merges=merges,
        total_requests=requests,
        prefetch_cache_hits=hits,
    )


class TestWindowMetrics:
    def test_early_eviction_rate(self):
        assert window(early=5, useful=100).early_eviction_rate == 0.05

    def test_early_eviction_rate_zero_useful(self):
        assert window(early=0, useful=0).early_eviction_rate == 0.0
        assert window(early=3, useful=0).early_eviction_rate == float("inf")

    def test_merge_ratio(self):
        assert window(merges=30, requests=100).merge_ratio == 0.30

    def test_merge_ratio_counts_pcache_hits(self):
        # 0 merges but all demands hit the prefetch cache: utility is high.
        w = window(merges=0, requests=50, hits=50)
        assert w.merge_ratio == 0.5

    def test_merge_ratio_empty(self):
        assert window(requests=0).merge_ratio == 0.0


class TestTableIActions:
    def test_high_early_eviction_disables_prefetching(self):
        engine = make_engine()
        engine.update(window(early=40, useful=100))
        assert engine.degree == engine.config.max_degree

    def test_medium_early_eviction_increases_throttle(self):
        engine = make_engine()
        engine.update(window(early=20, useful=100, merges=50))
        assert engine.degree == 3

    def test_low_eviction_high_merge_decreases_throttle(self):
        engine = make_engine()
        engine.update(window(early=0, useful=100, merges=50, requests=100))
        assert engine.degree == 1
        engine.update(window(early=0, useful=100, merges=50, requests=100))
        assert engine.degree == 0

    def test_low_low_disables_prefetching(self):
        engine = make_engine()
        engine.update(window(early=0, useful=100, merges=0, requests=100))
        assert engine.degree == engine.config.max_degree

    def test_degree_bounded(self):
        engine = make_engine(initial_degree=0)
        engine.update(window(merges=100, requests=100))
        assert engine.degree == 0  # cannot go below 0
        for _ in range(10):
            engine.update(window(early=15, useful=100, merges=100))
        assert engine.degree == engine.config.max_degree


class TestEq8MergeAverage:
    def test_first_window_seeds_average(self):
        engine = make_engine()
        engine.update(window(merges=40, requests=100))
        assert engine.merge_ratio == pytest.approx(0.4)

    def test_subsequent_windows_average(self):
        engine = make_engine()
        engine.update(window(merges=40, requests=100))
        engine.update(window(merges=0, requests=100))
        assert engine.merge_ratio == pytest.approx(0.2)

    def test_eq7_early_eviction_replaces(self):
        engine = make_engine()
        engine.update(window(early=40, useful=100, merges=50))
        engine.update(window(early=0, useful=100, merges=50))
        assert engine.early_eviction_rate == 0.0


class TestTableIBoundaries:
    """Threshold edges: > high is strict, >= low catches the medium band,
    > merge_high is strict."""

    def test_rate_exactly_high_is_medium_band(self):
        engine = make_engine()
        engine.update(window(early=30, useful=100, merges=50))  # rate == high
        assert engine.degree == 3  # medium row: increase, not disable

    def test_rate_exactly_low_is_medium_band(self):
        engine = make_engine()
        engine.update(window(early=15, useful=100, merges=50))  # rate == low
        assert engine.degree == 3

    def test_merge_exactly_threshold_is_low(self):
        engine = make_engine(merge_high=0.5)
        engine.update(window(early=0, merges=50, requests=100))  # ratio == 0.5
        assert engine.degree == engine.config.max_degree  # Low/Low row


class TestDropping:
    @pytest.mark.parametrize("degree", range(6))
    def test_drop_pattern_per_degree(self, degree):
        """Deterministic gating: with throttle degree d, each window of 5
        consecutive prefetches drops exactly the first d."""
        engine = make_engine(initial_degree=degree)
        outcomes = [engine.allow_prefetch() for _ in range(15)]
        expected_window = [False] * degree + [True] * (5 - degree)
        assert outcomes == expected_window * 3
        assert engine.total_dropped == 3 * degree
        assert engine.total_allowed == 3 * (5 - degree)

    def test_degree_zero_allows_all(self):
        engine = make_engine(initial_degree=0)
        assert all(engine.allow_prefetch() for _ in range(20))

    def test_max_degree_drops_all(self):
        engine = make_engine(initial_degree=5)
        assert not any(engine.allow_prefetch() for _ in range(20))

    def test_partial_degree_drops_exact_fraction(self):
        engine = make_engine(initial_degree=2)
        outcomes = [engine.allow_prefetch() for _ in range(50)]
        # degree 2 of 5: exactly 2 dropped per 5.
        assert outcomes.count(False) == 20
        assert outcomes.count(True) == 30

    def test_disabled_engine_is_transparent(self):
        engine = ThrottleEngine(ThrottleConfig(enabled=False))
        assert all(engine.allow_prefetch() for _ in range(10))
        degree = engine.update(window(early=100, useful=1))
        assert degree == 0


class TestSelfCorrection:
    def test_reenables_after_disable_when_merges_high(self):
        """Demand-demand merges re-enable prefetching (self-correcting)."""
        engine = make_engine()
        engine.update(window(early=40, useful=100))  # disabled
        assert engine.degree == 5
        for _ in range(10):
            engine.update(window(early=0, useful=0, merges=50, requests=100))
        assert engine.degree < 5

    def test_next_update_cycle_advances(self):
        engine = make_engine(period=1000)
        assert engine.next_update_cycle == 1000
        engine.update(window())
        assert engine.next_update_cycle == 2000

    def test_update_fast_forwards_past_stale_boundaries(self):
        """An external caller driving sparse cycles must never be left
        with next_update_cycle in the past (a re-update storm)."""
        engine = make_engine(period=1000)
        engine.update(window(), cycle=5500)
        assert engine.next_update_cycle == 6000

    def test_update_without_cycle_advances_one_period(self):
        engine = make_engine(period=1000)
        engine.update(window())
        assert engine.next_update_cycle == 2000
        engine.update(window(), cycle=1500)  # boundary already ahead
        assert engine.next_update_cycle == 3000
