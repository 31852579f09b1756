"""Edge-case tests for the event-accelerated simulation loop."""

import dataclasses

import pytest

from repro.harness.runner import make_spec, run_spec
from repro.sim import core as core_module
from repro.sim import gpu as gpu_module
from repro.sim.config import baseline_config
from repro.sim.core import Core
from repro.sim.gpu import GpuSimulator
from repro.sim.isa import compute, load
from repro.sim.warp import Warp
from tests.test_determinism import golden_runs


def single_block(stream):
    return [(0, [(0, stream)])]


def test_empty_workload_finishes_immediately():
    sim = GpuSimulator(baseline_config())
    sim.load_workload([], 1)
    result = sim.run()
    assert result.stats.instructions == 0


def test_single_instruction_workload():
    sim = GpuSimulator(baseline_config())
    sim.load_workload(single_block([compute()]), 1)
    result = sim.run()
    assert result.stats.instructions == 1
    assert result.cycles <= 10


def test_cycle_skipping_preserves_results():
    """The skip logic must not change outcomes vs. tiny max steps.

    We can't easily force single-stepping, but we can check that two
    identical runs agree and that memory latency is consistent with the
    configured pipeline (no event was skipped past).
    """
    cfg = baseline_config()
    stream = [load(0x10, 0, [0]), compute(0x20, wait_tokens=[0])]
    sim = GpuSimulator(cfg)
    sim.load_workload(single_block(list(stream)), 1)
    result = sim.run()
    expected_min = (
        cfg.interconnect.latency * 2 + cfg.dram.pipeline_latency + cfg.dram.t_rcd
    )
    assert result.stats.avg_demand_latency >= expected_min
    assert result.stats.avg_demand_latency <= expected_min + 200


def test_max_cycles_guard():
    cfg = baseline_config(max_cycles=50)
    # A load takes ~1300 cycles; the guard stops the run before the
    # dependent compute can retire (the final event skip may overshoot the
    # guard by one event horizon, but no further work is simulated).
    sim = GpuSimulator(cfg)
    sim.load_workload(
        single_block([load(0x10, 0, [0]), compute(0x20, wait_tokens=[0])]), 1
    )
    result = sim.run()
    assert result.stats.instructions < 2
    assert not all(core.drained for core in sim.cores)
    # Truncation is never silent: the partial result is flagged.
    assert result.truncated and result.stats.truncated


def test_uneven_blocks_across_cores():
    cfg = baseline_config(num_cores=4)
    blocks = [(i, [(i, [compute(), compute()])]) for i in range(7)]
    sim = GpuSimulator(cfg)
    sim.load_workload(blocks, 2)
    result = sim.run()
    assert result.stats.instructions == 14
    assert all(core.drained for core in sim.cores)


def test_multiple_waves_per_core():
    cfg = baseline_config(num_cores=2)
    blocks = [(i, [(i, [load(0x10, 0, [i * 4096]),
                        compute(0x20, wait_tokens=[0])])]) for i in range(8)]
    sim = GpuSimulator(cfg)
    sim.load_workload(blocks, 1)  # one block slot -> 4 sequential waves/core
    result = sim.run()
    assert result.stats.demand_loads == 8
    # Waves serialize: at least 4 full round trips of runtime.
    assert result.cycles > 4 * cfg.dram.pipeline_latency


def test_rerun_continues_from_clean_state():
    sim = GpuSimulator(baseline_config())
    sim.load_workload(single_block([compute()]), 1)
    first = sim.run()
    # Loading a new workload into the same simulator keeps working, with
    # the clock carrying on monotonically.
    sim.load_workload([(1, [(1, [compute()])])], 1)
    second = sim.run()
    assert second.cycles >= first.cycles


class _PolledCore(Core):
    """A core the main loop polls on every eventful iteration."""

    asleep = property(lambda self: False, lambda self, value: None)


class _UnblockedWarp(Warp):
    """A warp whose wait tokens every issue scan re-tests."""

    __slots__ = ()
    blocked = property(lambda self: False, lambda self, value: None)


def _mrq_pressure_config():
    cfg = baseline_config()
    return cfg.replace(core=dataclasses.replace(cfg.core, mrq_size=4))


#: The six golden specs, plus an MRQ-pressure spec whose warps stall on
#: MRQ room (the case where a response that completes no token must
#: still wake its core).
_ORACLE_SPECS = [run["request"] for run in golden_runs()] + [
    {"benchmark": "stream", "software": "mt-swp", "scale": 0.1,
     "config": _mrq_pressure_config()},
]


@pytest.mark.parametrize(
    "request_", _ORACLE_SPECS,
    ids=[f"{r['benchmark']}-{r.get('hardware', 'none')}-{r['software']}"
         + ("-mrq4" if "config" in r else "") for r in _ORACLE_SPECS],
)
def test_wake_driven_loop_matches_forced_polling(request_, monkeypatch):
    """Sleeping cores and blocked warps never change a statistic.

    The oracle run polls every core on every eventful iteration (its
    ``asleep`` always reads False) and re-tests every warp's wait tokens
    on every scan (its ``blocked`` always reads False), so no wake or
    skip decision is taken on its behalf; its stats must equal the
    normal run's.
    """
    spec = make_spec(**request_)
    expected = run_spec(spec).stats.to_dict()
    monkeypatch.setattr(gpu_module, "Core", _PolledCore)
    monkeypatch.setattr(core_module, "Warp", _UnblockedWarp)
    polled = run_spec(spec)
    assert polled.stats.to_dict() == expected
