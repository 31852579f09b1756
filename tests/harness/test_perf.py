"""Tests for the perf-benchmark harness (:mod:`repro.harness.perf`)."""

import gc
import json

import pytest

from repro import cli
from repro.harness import perf

#: One sub-50ms spec so the harness tests stay cheap.
TINY_SPECS = (
    {"benchmark": "cell", "software": "stride", "hardware": "none",
     "throttle": True, "scale": 0.25},
)


@pytest.fixture
def tiny_subset(monkeypatch):
    monkeypatch.setattr(perf, "PERF_SPECS", TINY_SPECS)
    monkeypatch.setattr(perf, "QUICK_SPECS", TINY_SPECS)


class TestRunPerf:
    def test_document_shape(self, tiny_subset):
        doc = perf.run_perf(quick=True, generated="2026-08-06T00:00:00Z")
        assert doc["schema"] == perf.PERF_SCHEMA
        assert doc["generated"] == "2026-08-06T00:00:00Z"
        assert doc["quick"] is True
        assert doc["machine"]["python"]
        assert len(doc["runs"]) == 1
        run = doc["runs"][0]
        assert run["benchmark"] == "cell"
        assert run["cycles"] > 0
        assert run["sim_cycles_per_sec"] > 0
        totals = doc["totals"]
        assert totals["cycles"] == run["cycles"]
        assert totals["peak_rss_kb"] > 0

    def test_no_cyclic_collection_runs_inside_a_simulation(self):
        """Deterministic counter: ``_simulate`` pauses cyclic GC, so the
        collections counted inside the measured runs are exactly zero
        (the default perf subset, each spec run twice)."""
        doc = perf.run_perf(quick=True, repeats=2, generated="t")
        counts = [run["gc_collections"] for run in doc["runs"]]
        assert counts == [0] * len(perf.QUICK_SPECS)

    def test_gc_counter_sees_collections_inside_the_run(
        self, tiny_subset, monkeypatch
    ):
        """The counter is live: a collection forced mid-run is counted."""
        from repro.sim.gpu import GpuSimulator

        run = GpuSimulator.run

        def collecting_run(self, *args, **kwargs):
            gc.collect()
            return run(self, *args, **kwargs)

        monkeypatch.setattr(GpuSimulator, "run", collecting_run)
        doc = perf.run_perf(quick=True, repeats=2, generated="t")
        assert doc["runs"][0]["gc_collections"] == 2

    def test_repeats_keep_best(self, tiny_subset):
        doc = perf.run_perf(quick=True, repeats=2, generated="t")
        assert doc["repeats"] == 2
        assert doc["runs"][0]["wall_seconds"] > 0


class TestRegressionCheck:
    def _doc(self, rate):
        return {"totals": {"sim_cycles_per_sec": rate}}

    def test_no_baseline_passes(self):
        assert perf.check_regression(self._doc(100.0), {}) is None
        assert perf.check_regression(self._doc(100.0), self._doc(0.0)) is None

    def test_within_threshold_passes(self):
        assert perf.check_regression(self._doc(80.0), self._doc(100.0)) is None
        assert perf.check_regression(self._doc(150.0), self._doc(100.0)) is None

    def test_regression_fails(self):
        message = perf.check_regression(self._doc(60.0), self._doc(100.0))
        assert message is not None and "regression" in message

    def test_custom_threshold(self):
        assert perf.check_regression(
            self._doc(60.0), self._doc(100.0), max_regression=0.5
        ) is None


class TestHistoryAndIo:
    def test_merge_history_appends_and_replaces(self):
        doc = {"generated": "t1", "quick": False, "totals": {"cycles": 1}}
        perf.merge_history(doc, None, "seed")
        assert [h["label"] for h in doc["history"]] == ["seed"]
        newer = {"generated": "t2", "quick": False, "totals": {"cycles": 2}}
        perf.merge_history(newer, doc, "optimized")
        assert [h["label"] for h in newer["history"]] == ["seed", "optimized"]
        again = {"generated": "t3", "quick": False, "totals": {"cycles": 3}}
        perf.merge_history(again, newer, "optimized")
        assert [h["label"] for h in again["history"]] == ["seed", "optimized"]
        assert again["history"][1]["generated"] == "t3"

    def test_write_and_load_roundtrip(self, tmp_path):
        doc = {"schema": perf.PERF_SCHEMA, "totals": {"cycles": 5}}
        path = perf.write_document(doc, tmp_path / "sub" / "BENCH_perf.json")
        assert perf.load_document(path) == doc

    def test_load_missing_and_corrupt(self, tmp_path):
        assert perf.load_document(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert perf.load_document(bad) is None

    def test_format_summary(self, tiny_subset):
        doc = perf.run_perf(quick=True, generated="t")
        text = perf.format_summary(doc)
        assert "cell" in text
        assert "TOTAL" in text
        assert "peak RSS" in text


class TestCliPerf:
    def test_perf_writes_document(self, tiny_subset, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        code = cli.main(["perf", "--quick", "--output", str(out),
                         "--label", "test"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["benchmark"] == "cell"
        assert [h["label"] for h in doc["history"]] == ["test"]
        assert "TOTAL" in capsys.readouterr().out

    def test_perf_fails_on_regression(self, tiny_subset, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        impossible = {"totals": {"sim_cycles_per_sec": 1e15}}
        perf.write_document(impossible, out)
        code = cli.main(["perf", "--quick", "--output", str(out)])
        assert code == 1
        assert "regression" in capsys.readouterr().err

    def test_emitted_document_audits_ok(self, tiny_subset, tmp_path):
        """``repro fsck`` classifies the emitted document (with its GC
        counters) ``ok``."""
        from repro.harness import fsck

        out = tmp_path / "BENCH_perf.json"
        assert cli.main(["perf", "--quick", "--output", str(out)]) == 0
        assert "gc_collections" in json.loads(out.read_text())["runs"][0]
        [finding] = fsck.audit([tmp_path]).findings
        assert finding.status == "ok"

    def test_perf_stdout_only(self, tiny_subset, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["perf", "--quick", "--output", "-", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == perf.PERF_SCHEMA
        assert not (tmp_path / "BENCH_perf.json").exists()


class TestWorkCounters:
    """Deterministic work counters: an algorithmic regression in the
    issue scan or the DRAM scheduler moves these exact counts, however
    noisy the host's wall clock is."""

    #: (benchmark, hardware) -> (issue_attempts, dram_channel_steps,
    #: dram_picks) for each quick spec.
    PINNED = {
        ("monte", "none"): (22507, 10625, 9951),
        ("cell", "none"): (2262, 344, 336),
        ("backprop", "mt-hwp"): (3744, 1846, 1812),
    }

    def test_quick_specs_pin_work_counters(self):
        doc = perf.run_perf(quick=True, generated="t")
        counters = {
            (run["benchmark"], run["hardware"]): (
                run["issue_attempts"], run["dram_channel_steps"],
                run["dram_picks"],
            )
            for run in doc["runs"]
        }
        assert counters == self.PINNED
