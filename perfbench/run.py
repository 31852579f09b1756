"""Figure-grid benchmark: regenerate reduced paper figures, cold, as users do.

Usage (from the repository root)::

    python3 perfbench/run.py --workload swp-serial-cold --seed 1 \\
        --seconds 40 --trace 0

Each operation is one closed batch: a fresh interpreter (empty result
cache, empty workload memo) submits a whole figure grid and waits for
the figure.  ``--trace 0`` repeats operations for ``--seconds`` (at least two) and
prints the end-to-end metrics; ``--trace 1`` runs a traced, an untraced
and a traced operation and prints the per-layer ledger.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every run's ``SimStats`` and every figure is checked
against ``reference.json``; a mismatch exits 1.  ``--record`` rewrites
that reference from the current code.  See README.md in this directory.
"""

import argparse
import collections
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SCALE = 0.25
JOBS = 2
#: Set-up probes before each operation, on top of the operation's own
#: set-up; spreading them over the run averages out host-speed drift.
PROBES = 3
#: Untraced operations per run, however long they take: a median needs
#: more than one sample when the host's speed drifts.
MIN_OPS = 2
#: Every process is killed this many seconds after the benchmark started,
#: so a wedged run cannot hang it.
DEADLINE = time.monotonic() + 170.0

#: name -> (steps, headline).  A step is (mode, figure); the headline is
#: (figure, legend label, paper's percent speedup over no prefetching)
#: from EXPERIMENTS.md's headline table.
WORKLOADS = {
    "swp-serial-cold": (
        [("serial", "figure10")], ("figure10", "mt-swp", 31.0)),
    "hwp-serial-cold": (
        [("serial", "figure15")], ("figure15", "mt-hwp", 25.0)),
    "swp-cli-pool2": (
        [("cli", "figure10"), ("cli", "figure11")],
        ("figure11", "mt-swp+T", 36.0)),
}

#: Traced-run counters that are exact for a fixed grid and must repeat.
EXACT_CALLS = ("trace.get", "trace.generate", "cache.get_hit",
               "cache.get_miss", "cache.put")


def child_env(workdir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # A fixed hash seed removes one source of run-to-run timing noise;
    # the outputs do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir / "tmp")
    return env


def spawn(config, workdir, tag):
    """Run op.py once; None if it failed.  ``rss_kb`` is the peak RSS of
    the process and of the children it reaped (its pool workers)."""
    out = workdir / f"{tag}.out"
    err = workdir / f"{tag}.err"
    config = dict(config, out=str(workdir / f"{tag}.json"))
    with open(out, "w") as fo, open(err, "w") as fe:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "op.py"), json.dumps(config)],
            stdout=fo, stderr=fe, cwd=ROOT, env=child_env(workdir),
            start_new_session=True,
        )
        killer = threading.Timer(max(0.0, DEADLINE - t_spawn), os.killpg,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        # Reap anything the operation left in its session.
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        record = json.loads(Path(config["out"]).read_text())
    except (OSError, ValueError):
        record = None
    if proc.returncode != 0 or record is None or record["ready"] is None:
        sys.stderr.write(err.read_text()[-4000:])
        return None
    return {
        "record": record,
        "stdout": out.read_text(),
        "start_s": record["ready"] - t_spawn,
        "exit": t_exit,
        "rss_kb": usage.ru_maxrss,
    }


def op_config(mode, figure, order, cache_dir, trace, ledger_dir, probe):
    config = {"mode": mode, "figure": figure, "subset": order,
              "scale": SCALE, "cache_dir": str(cache_dir), "trace": trace,
              "ledger_dir": str(ledger_dir), "probe": probe}
    if mode == "cli":
        config["cli_args"] = [
            "figure", "fig" + figure[6:], "--scale", str(SCALE),
            "--jobs", str(JOBS), "--cache-dir", str(cache_dir),
            "--subset", *order,
        ]
    return config


def run_op(workload, order, workdir, tag, trace=False, probe=False):
    """One operation (all its steps, sharing one fresh cache directory)."""
    steps, _ = WORKLOADS[workload]
    opdir = workdir / tag
    ledger_dir = opdir / "ledger"
    ledger_dir.mkdir(parents=True)
    procs = []
    for i, (mode, figure) in enumerate(steps[:1] if probe else steps):
        config = op_config(mode, figure, order, opdir / "cache", trace,
                           ledger_dir, probe)
        proc = spawn(config, opdir, f"step{i}")
        if proc is None:
            return None
        procs.append(proc)
    first = procs[0]
    op = {
        "setup_s": first["start_s"],
        "wall_s": procs[-1]["exit"] - first["record"]["ready"],
        "rss_kb": max(p["rss_kb"] for p in procs),
        "procs": procs,
        "attempted": sum(p["record"]["attempted"] for p in procs),
        "failed": sum(p["record"]["failed"] for p in procs),
    }
    if not probe:
        op["entries"] = read_cache(opdir / "cache")
        if trace:
            op["ledger"] = merge_ledgers(procs, ledger_dir)
    shutil.rmtree(opdir, ignore_errors=True)
    return op


def stats_digest(stats):
    canonical = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def text_digest(text):
    """Digest of a printed figure, independent of its row order."""
    lines = sorted(line.rstrip() for line in text.strip().splitlines())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def read_cache(cache_dir):
    """key -> stats of every entry the operation left in its cache."""
    entries = {}
    for path in sorted(cache_dir.glob("v*/??/*.json")):
        payload = json.loads(path.read_text())
        entries[payload["key"]] = payload["stats"]
    return entries


def merge_ledgers(procs, ledger_dir):
    """Sum the ledgers of the operation's processes and pool workers."""
    mains = [p["record"]["ledger"] for p in procs]
    workers = []
    for path in sorted(ledger_dir.glob("worker-*.jsonl")):
        workers += [json.loads(line) for line in path.read_text().splitlines()]
    merged = {"seconds": {}, "calls": {}, "samples": {}, "counts": {},
              "top": sum(m["top"] for m in mains),
              "worker_run_s": sum(sum(w["samples"].get("harness.run_spec", []))
                                  for w in workers)}
    for part in mains + workers:
        for field in ("seconds", "calls", "counts"):
            for name, value in part[field].items():
                merged[field][name] = merged[field].get(name, 0) + value
        for name, values in part["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
    return merged


def check_op(workload, op, ref):
    """Problems with an operation's outputs, as strings (empty: correct)."""
    problems = []
    if op["failed"]:
        problems.append(f"{op['failed']} run(s) failed")
    expected = set(ref["workloads"][workload])
    got = set(op["entries"])
    if got != expected:
        problems.append(f"simulated {len(got)} runs, expected {len(expected)}"
                        f" ({len(got - expected)} unexpected, "
                        f"{len(expected - got)} missing)")
    bad = [k for k in got & expected if stats_digest(op["entries"][k]) != ref["runs"][k]]
    if bad:
        problems.append(f"{len(bad)} run(s) differ from the reference SimStats")
    steps, _ = WORKLOADS[workload]
    for (_, figure), proc in zip(steps, op["procs"]):
        if text_digest(proc["stdout"]) != ref["figures"][figure]:
            problems.append(f"{figure} output differs from the reference")
    return problems


def exact_counters(ledger):
    counts = dict(ledger["counts"])
    counts.update((name, ledger["calls"].get(name, 0)) for name in EXACT_CALLS)
    return counts


def headline_gap(workload, op):
    steps, (figure, label, paper_pct) = WORKLOADS[workload]
    proc = op["procs"][[f for _, f in steps].index(figure)]
    geomean = proc["record"]["figure"]["geomean"][label]
    return abs(100.0 * (geomean - 1.0) - paper_pct)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def ratio(num, den):
    return num / den if den else 0.0


def pct(samples, q):
    """q-th percentile (0-100) of samples, nearest-rank; 0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(round(q / 100 * (len(ordered) - 1))))]


def layer_metrics(workload, op, untraced_wall):
    """The per-layer metrics of one traced operation."""
    L = op["ledger"]
    # Counters read 0 for a span or count this workload never reached.
    sec, calls, counts = (
        collections.Counter(L[k]) for k in ("seconds", "calls", "counts"))
    samples = collections.defaultdict(list, L["samples"])
    cycles = counts["stats.cycles"]
    iters = counts["sim.loop_iterations"]
    row = counts["stats.dram_row_hits"] + counts["stats.dram_row_misses"]
    starts = [p["start_s"] for p in op["procs"]]
    m = {
        "cli.start_s": statistics.mean(starts),
        "trace.gen_s": sec["trace.get"],
        "trace.gen_ms.p50": 1e3 * pct(samples["trace.generate"], 50),
        "trace.gen_ms.p90": 1e3 * pct(samples["trace.generate"], 90),
        "trace.calls": calls["trace.get"],
        "trace.instructions": counts["trace.instructions"],
        "trace.memo_hit_ratio": ratio(
            calls["trace.get"] - calls["trace.generate"],
            calls["trace.get"]),
        "sim.build_s": sec["sim.build"],
        "sim.run_s": sec["sim.run"],
        "sim.run_ms.p50": 1e3 * pct(samples["sim.run"], 50),
        "sim.run_ms.p90": 1e3 * pct(samples["sim.run"], 90),
    }
    for phase in tracer.PHASES:
        m[f"sim.phase.{phase}_s"] = sec[f"phase.{phase}"]
    m.update({
        "sim.loop_iterations": iters,
        "sim.cycles": cycles,
        "sim.skipped_cycle_frac": ratio(cycles - iters, cycles),
        "sim.host_us_per_iteration": 1e6 * ratio(sec["sim.run"], iters),
        "sim.dram.lines": counts["stats.dram_lines_transferred"],
        "sim.dram.row_hit_ratio": ratio(counts["stats.dram_row_hits"], row),
        "sim.mrq.requests": counts["stats.total_mrq_requests"],
        "sim.mrq.merge_ratio": ratio(counts["stats.intra_core_merges"],
                                     counts["stats.total_mrq_requests"]),
        "core.prefetcher_s": sec["phase.prefetcher"],
        "core.table_lookups": counts["core.table_lookups"],
        "core.table_hit_ratio": ratio(counts["core.table_hits"],
                                      counts["core.table_lookups"]),
        "core.prefetches_issued": counts["core.prefetch_requests_issued"],
        "core.prefetches_throttled": counts["core.prefetch_requests_throttled"],
        "core.prefetch_accuracy": ratio(counts["core.useful_prefetches"],
                                        counts["core.prefetch_requests_issued"]),
        "sweep.fingerprint_us": 1e6 * ratio(sec["sweep.fingerprint"],
                                            calls["sweep.fingerprint"]),
        "cache.put_ms.p50": 1e3 * pct(samples["cache.put"], 50),
        "cache.get_hit_ms.p50": 1e3 * pct(samples["cache.get_hit"], 50),
        "cache.get_miss_us": 1e6 * ratio(sec["cache.get_miss"],
                                         calls["cache.get_miss"]),
        "cache.hits": calls["cache.get_hit"],
        "cache.misses": calls["cache.get_miss"],
        "stats.serialize_us": 1e6 * ratio(sec["stats.serialize"],
                                          calls["stats.serialize"]),
        "stats.deserialize_us": 1e6 * ratio(sec["stats.deserialize"],
                                            calls["stats.deserialize"]),
        "sweep.pool_efficiency": (
            ratio(L["worker_run_s"], JOBS * sec["sweep.pool"]) if sec["sweep.pool"]
            else ratio(sum(samples["harness.run_spec"]), op["wall_s"])),
        "py.gc_s": sec["py.gc"],
        "py.gc_collections": calls["py.gc"],
        # Later processes' interpreter start is inside wall_s and is the
        # CLI layer's; everything outside a span stays unattributed.
        "harness.unattributed_s": op["wall_s"] - L["top"] - sum(starts[1:]),
        "trace_overhead_pct": 100.0 * (op["wall_s"] / untraced_wall - 1.0),
    })
    return m


def record_reference(order):
    """Rewrite reference.json from one untraced operation per workload."""
    ref = {"scale": SCALE, "benchmarks": order, "runs": {}, "figures": {},
           "workloads": {}}
    workdir = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    try:
        for i, workload in enumerate(WORKLOADS):
            op = run_op(workload, order, workdir, f"op{i}")
            if op is None or op["failed"]:
                sys.exit(f"recording {workload} failed")
            ref["workloads"][workload] = sorted(op["entries"])
            for key, stats in op["entries"].items():
                ref["runs"][key] = stats_digest(stats)
            steps, _ = WORKLOADS[workload]
            for (_, figure), proc in zip(steps, op["procs"]):
                digest = text_digest(proc["stdout"])
                if ref["figures"].setdefault(figure, digest) != digest:
                    sys.exit(f"{figure} differs between workloads")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def emit(correct, attempted, failed, metrics, code):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the current code")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    # Build step: byte-compile once so every operation imports warm .pyc.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL)
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else None
    order = list(ref["benchmarks"]) if ref else None
    if args.record:
        from_src = subprocess.run(
            [sys.executable, "-c", "from repro.trace.benchmarks import "
             "MEMORY_BENCHMARKS as m; print(' '.join(m))"],
            env=child_env(ROOT), check=True, capture_output=True, text=True)
        record_reference(from_src.stdout.split())
        return 0
    random.Random(args.seed).shuffle(order)
    workload = args.workload
    print(f"perfbench {workload} seed={args.seed} trace={args.trace} "
          f"order={' '.join(order)}")

    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    try:
        return measure(args, workload, order, ref, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it


def measure(args, workload, order, ref, workdir):
    t_begin = time.monotonic()
    setups = []
    # Traced runs bracket the untraced one, so a linear drift in host
    # speed cancels out of trace_overhead_pct.
    plan = [True, False, True] if args.trace else None
    ops, problems = [], []
    while True:
        traced = plan[len(ops)] if plan else False
        t0 = time.monotonic()
        for i in range(PROBES):
            probe = run_op(workload, order, workdir, f"probe{len(ops)}-{i}",
                           probe=True)
            if probe is None:
                return emit(False, 1, 1, {}, 1)
            setups.append(probe["setup_s"])
        op = run_op(workload, order, workdir, f"op{len(ops)}", trace=traced)
        if op is None:
            problems.append(f"operation {len(ops)} crashed")
            break
        op["traced"] = traced
        ops.append(op)
        setups.append(op["setup_s"])
        problems += check_op(workload, op, ref)
        last = time.monotonic() - t0
        if plan is not None:
            if len(ops) == len(plan):
                break
        else:
            next_end = time.monotonic() + last
            if next_end > DEADLINE - 10.0 or (
                    len(ops) >= MIN_OPS and next_end > t_begin + args.seconds):
                break
    grid = len(ref["workloads"][workload])
    attempted = sum(op["attempted"] for op in ops) or grid
    failed = sum(op["failed"] for op in ops) + (grid if len(ops) == 0 else 0)
    if problems:
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        return emit(False, attempted, max(failed, 1), {}, 1)

    untraced = [op for op in ops if not op["traced"]]
    walls = [op["wall_s"] for op in untraced]
    samples = {
        "wall_s": (walls, "s", "lower"),
        "sim_insts_per_s": (
            [sum(s["instructions"] for s in op["entries"].values()) / op["wall_s"]
             for op in untraced], "1/s", "higher"),
        "setup_s": (setups, "s", "lower"),
        "peak_rss_mb": ([op["rss_kb"] / 1024 for op in untraced], "MB", "lower"),
        "ok_frac": ([1.0 - failed / attempted], "ratio", "higher"),
        "paper_gap_pp": ([headline_gap(workload, ops[-1])], "pp", "lower"),
    }
    metrics = {}
    for name, (values, unit, better) in samples.items():
        median = statistics.median(values)
        q1, q3 = quartiles(values)
        print(f"{workload}  {name:<16} {median:.6g} {unit}  (median; q1 {q1:.6g}, "
              f"q3 {q3:.6g}, n={len(values)}; {better} is better)")
        metrics[name] = {"value": median, "unit": unit}
    print(f"{workload}  failed {failed} of {attempted} attempted runs "
          f"(failed_frac {failed / attempted:.6g})")
    if not args.trace:
        return emit(True, attempted, failed, metrics, 0)

    traced = [op for op in ops if op["traced"]]
    exact = [exact_counters(op["ledger"]) for op in traced]
    if exact[0] != exact[1]:
        diff = sorted(k for k in set(exact[0]) | set(exact[1])
                      if exact[0].get(k) != exact[1].get(k))
        print(f"CHECK FAILED: exact counters differ between traced runs: {diff}",
              file=sys.stderr)
        return emit(False, attempted, max(failed, 1), {}, 1)
    per_run = [layer_metrics(workload, op, statistics.median(walls)) for op in traced]
    layers = {}
    for name in per_run[0]:
        value = statistics.median(m[name] for m in per_run)
        unit = layer_unit(name)
        print(f"{workload}  {name:<28} {value:.6g} {unit}")
        layers[name] = {"value": value, "unit": unit}
    print(f"{workload}  exact counters (identical in both traced runs): "
          + json.dumps(exact[0], sort_keys=True))
    return emit(True, attempted, failed, layers, 0)


def layer_unit(name):
    for suffix, unit in (("_s", "s"), ("_ms.p50", "ms"), ("_ms.p90", "ms"),
                         ("_us", "us"), ("_pct", "%"), ("_per_iteration", "us")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("_ratio", "_frac", "_accuracy", "_efficiency")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
