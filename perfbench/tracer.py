"""Per-layer span ledger for one benchmark operation.

``install(ledger_dir)`` wraps the public entry points of each layer of
``repro`` -- the trace memo, the simulator, the sweep fingerprint, the
result cache and ``SimStats`` serialization -- with timers that add into
one process-wide :class:`Ledger`.  Nothing under ``src/`` changes: the
wrappers are installed from the benchmark's own code, in the operation
process, before the first run is dispatched.  Forked pool workers
inherit them; each worker starts from an empty ledger and appends one
JSON line per run to ``<ledger_dir>/worker-<pid>.jsonl``.

Layer spans nest (a cache put serializes stats; a GC pause can strike
anywhere), so the ledger tracks the nesting depth and adds only the
outermost span time to ``top``.  ``wall - top`` is then the time spent
outside every layer: engine, runner and figure-assembly self time.
"""

import collections
import functools
import gc
import json
import os
import time

perf_counter = time.perf_counter

#: Simulator loop phases reported as ``sim.phase.<name>_s``.
PHASES = (
    "issue", "dram", "deliver_requests", "deliver_responses",
    "inject", "dispatch", "event_skip", "throttle",
)

#: ``SimStats`` fields summed over simulated runs.
STAT_FIELDS = (
    "cycles", "instructions", "dram_lines_transferred", "dram_row_hits",
    "dram_row_misses", "total_mrq_requests", "intra_core_merges",
)

#: ``SimStats`` fields summed over runs that exercise ``repro.core``
#: (a hardware prefetcher or the throttle engine is attached).
CORE_FIELDS = (
    "prefetch_requests_issued", "prefetch_requests_throttled",
    "useful_prefetches",
)


class Ledger:
    """Span totals, duration samples and exact counters of one process."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.seconds = collections.Counter()
        self.calls = collections.Counter()
        self.samples = collections.defaultdict(list)
        self.counts = collections.Counter()
        self.top = 0.0
        self.depth = 0
        self._gc_t0 = 0.0
        self._gc_depth = 0

    def add(self, name, dt, depth, sample=False):
        self.seconds[name] += dt
        self.calls[name] += 1
        if depth == 0:
            self.top += dt
        if sample:
            self.samples[name].append(dt)

    def to_dict(self):
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "samples": dict(self.samples),
            "counts": dict(self.counts),
            "top": self.top,
        }

    def gc_callback(self, phase, info):
        if phase == "start":
            self._gc_depth = self.depth
            self._gc_t0 = perf_counter()
        else:
            self.add("py.gc", perf_counter() - self._gc_t0, self._gc_depth)


LEDGER = Ledger()


def span(name, sample=False, classify=None):
    """Decorator factory: time a layer call as span ``name``.

    ``classify(result)`` may rename the span from the call's result
    (a cache ``get`` is a hit or a miss).
    """
    def wrap(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            ledger = LEDGER
            depth = ledger.depth
            ledger.depth = depth + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                ledger.depth = depth
            label = classify(result) if classify is not None else name
            ledger.add(label, dt, depth, sample)
            return result
        return timed
    return wrap


def install(ledger_dir):
    """Wrap every measured layer entry point; call before the first run."""
    from repro.harness import runner, sweep
    from repro.sim.gpu import GpuSimulator
    from repro.sim.profiling import SimProfiler
    from repro.sim.stats import SimStats

    owner = os.getpid()
    os.register_at_fork(after_in_child=LEDGER.reset)
    gc.callbacks.append(LEDGER.gc_callback)

    # repro.trace: the memo lookup, and generation on a miss.
    generate = span("trace.generate", sample=True)(runner.generate_workload)

    def generate_counted(*args, **kwargs):
        workload = generate(*args, **kwargs)
        LEDGER.counts["trace.instructions"] += workload.total_instructions()
        return workload

    runner.generate_workload = generate_counted
    memo = runner.WORKLOAD_MEMO
    memo.get = span("trace.get")(memo.get)

    # repro.sim: construction + loading, and the run with a profiler.
    sim_init = span("sim.build")(GpuSimulator.__init__)

    def init_profiled(self, config, prefetcher_factory=None, *args, **kwargs):
        if kwargs.get("profiler") is None:
            kwargs["profiler"] = SimProfiler()
        sim_init(self, config, prefetcher_factory, *args, **kwargs)
        self._perfbench_core = (
            prefetcher_factory is not None or config.throttle.enabled
        )

    GpuSimulator.__init__ = init_profiled
    GpuSimulator.load_workload = span("sim.build")(GpuSimulator.load_workload)
    sim_run = span("sim.run", sample=True)(GpuSimulator.run)

    def run_recorded(self, *args, **kwargs):
        result = sim_run(self, *args, **kwargs)
        _record_run(self, result.stats)
        return result

    GpuSimulator.run = run_recorded

    # repro.harness.sweep: fingerprints, the result cache, stats codec.
    fingerprint = span("sweep.fingerprint")(sweep.fingerprint)
    sweep.fingerprint = fingerprint
    runner.fingerprint = fingerprint
    cache = sweep.ResultCache
    cache.get = span(
        None, sample=True,
        classify=lambda got: "cache.get_miss" if got is None else "cache.get_hit",
    )(cache.get)
    cache.put = span("cache.put", sample=True)(cache.put)
    SimStats.to_dict = span("stats.serialize")(SimStats.to_dict)
    SimStats.from_dict = classmethod(
        span("stats.deserialize")(SimStats.from_dict.__func__)
    )

    # The pool: a pooled engine's run is one span in the dispatching
    # process (its runs execute in workers, which keep their own ledger).
    engine_run = sweep.SweepEngine.run
    pooled_run = span("sweep.pool", sample=True)(engine_run)

    def run_dispatch(self, specs):
        if self.jobs > 1:
            return pooled_run(self, specs)
        return engine_run(self, specs)

    sweep.SweepEngine.run = run_dispatch

    # Per-run time, not a layer span: run_spec's self time is runner
    # overhead and stays unattributed.  Workers flush after every run.
    run_spec = runner.run_spec

    def run_spec_flushed(*args, **kwargs):
        t0 = perf_counter()
        result = run_spec(*args, **kwargs)
        LEDGER.samples["harness.run_spec"].append(perf_counter() - t0)
        if os.getpid() != owner:
            path = os.path.join(ledger_dir, f"worker-{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(LEDGER.to_dict()) + "\n")
            LEDGER.reset()
        return result

    runner.run_spec = run_spec_flushed


def _record_run(sim, stats):
    counts = LEDGER.counts
    prof = sim.profiler
    seconds = LEDGER.seconds
    for phase in PHASES + ("prefetcher",):
        seconds[f"phase.{phase}"] += prof.wall[phase]
    counts["sim.runs"] += 1
    counts["sim.loop_iterations"] += prof.loop_iterations
    counts["core.table_lookups"] += prof.counts["table_lookups"]
    counts["core.table_hits"] += prof.counts["table_hits"]
    for name in STAT_FIELDS:
        counts[f"stats.{name}"] += getattr(stats, name)
    if sim._perfbench_core:
        counts["core.runs"] += 1
        for name in CORE_FIELDS:
            counts[f"core.{name}"] += getattr(stats, name)
