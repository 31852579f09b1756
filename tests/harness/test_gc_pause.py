"""Cyclic GC is paused while a simulation runs.

:func:`repro.harness.runner._simulate` — the execution path behind every
run — disables automatic cyclic garbage collection for the whole call.
That is only free because the simulator creates no cyclic garbage while
it runs: if it did, the garbage would pile up until the run ended.
These tests pin that property on every golden run with every observer
attached, and pin that the pause hands the caller's GC state back
unchanged however the run ends.
"""

import gc

import pytest

from repro.harness import runner
from repro.harness.runner import HARDWARE_SCHEMES, _simulate, make_spec
from repro.sim.config import baseline_config
from repro.sim.errors import CycleLimitExceeded
from repro.sim.gpu import GpuSimulator
from repro.sim.profiling import SimProfiler
from repro.sim.telemetry import MetricsRecorder
from repro.trace.benchmarks import get_benchmark

from tests.test_determinism import golden_id, golden_runs


def simulate(spec, **observers):
    """Run ``spec`` through ``_simulate`` (strict) with ``observers``."""
    return _simulate(
        get_benchmark(spec.benchmark, scale=spec.scale), spec.software,
        HARDWARE_SCHEMES[spec.hardware], spec.distance, spec.degree,
        spec.config, spec.throttle, spec.perfect_memory, strict=True,
        **observers,
    )


@pytest.fixture
def gc_restored():
    """Leave automatic GC enabled after the test, whatever it did."""
    yield
    gc.enable()


@pytest.fixture
def simulators(monkeypatch):
    """Every :class:`GpuSimulator` built during the test, kept alive."""
    built = []
    init = GpuSimulator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(GpuSimulator, "__init__", recording_init)
    return built


@pytest.mark.parametrize("run", golden_runs(), ids=golden_id)
def test_fully_observed_run_leaves_no_cyclic_garbage(
    run, simulators, monkeypatch, gc_restored
):
    """With invariants, profiler and metrics attached, a
    finished run whose simulator is still referenced leaves nothing for
    the cyclic collector: the pause defers no garbage.  A fresh workload
    memo puts trace generation inside the paused window too."""
    monkeypatch.setattr(runner, "WORKLOAD_MEMO", runner.WorkloadMemo())
    spec = make_spec(**run["request"])
    observers = dict(
        invariants=True,
        profiler=SimProfiler(),
        metrics=MetricsRecorder(interval=100),
    )
    gc.collect()
    gc.disable()
    result = simulate(spec, **observers)
    unreachable = gc.collect()
    gc.enable()
    [sim] = simulators
    assert sim.invariants.checks >= 2
    assert observers["metrics"].windows
    assert result.stats.cycles > 0
    assert unreachable == 0


class TestCallerGcStateIsRestored:
    SPEC = make_spec("cell", software="stride", throttle=True, scale=0.25)

    @pytest.fixture
    def gc_during_run(self, monkeypatch):
        """``gc.isenabled()`` as seen from inside each simulator run."""
        seen = []
        run = GpuSimulator.run

        def observing_run(self, *args, **kwargs):
            seen.append(gc.isenabled())
            return run(self, *args, **kwargs)

        monkeypatch.setattr(GpuSimulator, "run", observing_run)
        return seen

    def test_normal_return(self, gc_during_run, gc_restored):
        gc.enable()
        simulate(self.SPEC)
        assert gc_during_run == [False]
        assert gc.isenabled()

    def test_cycle_limit_exceeded(self, gc_during_run, gc_restored):
        gc.enable()
        truncated = make_spec(
            "cell", software="stride", scale=0.25,
            config=baseline_config(max_cycles=50),
        )
        with pytest.raises(CycleLimitExceeded):
            simulate(truncated)
        assert gc_during_run == [False]
        assert gc.isenabled()

    def test_caller_with_gc_disabled_keeps_it_disabled(
        self, gc_during_run, gc_restored
    ):
        gc.disable()
        simulate(self.SPEC)
        assert gc_during_run == [False]
        assert not gc.isenabled()
