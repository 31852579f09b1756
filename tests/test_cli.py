"""Tests for the command-line interface."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep CLI tests hermetic: the default persistent cache resolves
    through $REPRO_CACHE_DIR, so point it at a per-test directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-cache"))


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "monte" in out
    assert "mt-hwp" in out
    assert "mt-swp" in out


def test_run_command_plain(capsys):
    assert main(["run", "cell", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "CPI" in out
    assert "speedup" in out


def test_run_command_json(capsys):
    assert main([
        "run", "cell", "--hardware", "mt-hwp", "--scale", "0.1", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cycles"] > 0
    assert "speedup_over_baseline" in payload
    assert "prefetch_accuracy" in payload


def test_run_with_throttle_and_software(capsys):
    assert main([
        "run", "cell", "--software", "mt-swp", "--throttle", "--scale", "0.1",
    ]) == 0
    assert "speedup" in capsys.readouterr().out


def test_compare_command(capsys):
    assert main([
        "compare", "cell", "--schemes", "mt-swp", "mt-hwp", "--scale", "0.1",
    ]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out
    assert "mt-swp" in out and "mt-hwp" in out


def test_compare_rejects_unknown_scheme(capsys):
    assert main(["compare", "cell", "--schemes", "bogus", "--scale", "0.1"]) == 0
    assert "unknown scheme" in capsys.readouterr().err


def test_figure_table6(capsys):
    assert main(["figure", "table6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_bytes"] == 557


def test_figure_fig7(capsys):
    assert main(["figure", "fig7"]) == 0
    assert "Figure 7" in capsys.readouterr().out


def test_figure_with_subset(capsys):
    assert main(["figure", "fig10", "--scale", "0.1", "--subset", "cell"]) == 0
    out = capsys.readouterr().out
    assert "cell" in out and "geomean" in out


def test_cache_dir_and_jobs_flags(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["run", "cell", "--hardware", "mt-hwp", "--scale", "0.1",
            "--cache-dir", str(cache)]
    assert main(args + ["--jobs", "2"]) == 0
    entries = sorted(cache.glob("v*/*/*.json"))
    assert len(entries) == 2  # baseline + mt-hwp variant persisted
    first_out = capsys.readouterr().out
    # Warm re-run: pure cache hits, same output, no new entries.
    assert main(args) == 0
    assert capsys.readouterr().out == first_out
    assert sorted(cache.glob("v*/*/*.json")) == entries


def test_no_cache_flag_disables_persistence(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["run", "cell", "--scale", "0.1", "--no-cache",
                 "--cache-dir", str(cache)]) == 0
    assert "speedup" in capsys.readouterr().out
    assert not cache.exists()


def test_integrity_flags(tmp_path, monkeypatch, capsys):
    """--invariants reaches pooled sweep workers (their profiles time the
    checker) and the fault-tolerance flags thread through to a working
    run with a sweep manifest."""
    monkeypatch.delenv("REPRO_INVARIANTS", raising=False)
    manifest = tmp_path / "sweep.jsonl"
    profiles = tmp_path / "profiles"
    assert main([
        "run", "cell", "--hardware", "mt-hwp", "--scale", "0.1",
        "--jobs", "2", "--invariants", "--profile", str(profiles),
        "--retries", "1", "--timeout", "120", "--max-failures", "3",
        "--manifest", str(manifest),
    ]) == 0
    assert "speedup" in capsys.readouterr().out
    docs = [json.loads(p.read_text()) for p in profiles.glob("*.json")]
    assert len(docs) == 2, sorted(p.name for p in profiles.iterdir())
    assert all(doc["phases_wall_seconds"]["invariants"] > 0 for doc in docs)
    lines = [json.loads(l) for l in manifest.read_text().splitlines()]
    runs = [r for r in lines if r["key"] != "__sweep__"]
    assert runs and all(r["status"] == "done" for r in runs)
    # The sweep-final record marks the manifest as deliberately ended.
    finals = [r for r in lines if r["key"] == "__sweep__"]
    assert finals and finals[-1]["interrupted"] is False


def test_fail_fast_flag_parses(capsys):
    assert main(["run", "cell", "--scale", "0.1", "--fail-fast"]) == 0
    assert "speedup" in capsys.readouterr().out


def test_sweep_flags_leave_environment_untouched(tmp_path, capsys):
    """Per-run settings travel in RunOptions, never through os.environ."""
    environ = dict(os.environ)
    assert main([
        "compare", "cell", "--schemes", "stride_pc", "--scale", "0.1",
        "--invariants", "--profile", str(tmp_path / "profiles"),
        "--metrics-dir", str(tmp_path / "metrics"),
        "--memory-budget", "100000",
    ]) == 0
    assert "speedup" in capsys.readouterr().out
    assert dict(os.environ) == environ


def test_invalid_benchmark_errors():
    with pytest.raises(KeyError):
        main(["run", "not-a-benchmark"])


def test_invalid_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("flag", ["--metrics-interval"])
def test_non_positive_interval_is_rejected(flag):
    with pytest.raises(SystemExit):
        main(["run", "cell", flag, "0"])


SAMPLE_METRICS = Path(__file__).parent / "data" / "sample.metrics.json"


def test_metrics_dir_writes_fingerprinted_documents(tmp_path, capsys):
    """With --metrics-dir, every run a pooled sweep executes lands a
    validated <benchmark>-<fp12>.metrics.json at the requested interval."""
    from repro.harness.runner import make_spec, metrics_path_for
    from repro.sim.telemetry import validate_metrics_document

    metrics = tmp_path / "metrics"
    assert main([
        "run", "cell", "--hardware", "mt-hwp", "--throttle", "--scale", "0.1",
        "--jobs", "2",
        "--metrics-dir", str(metrics), "--metrics-interval", "250",
    ]) == 0
    assert "speedup" in capsys.readouterr().out
    for spec in (
        make_spec("cell", scale=0.1),
        make_spec("cell", hardware="mt-hwp", throttle=True, scale=0.1),
    ):
        expected = metrics_path_for(spec, metrics)
        assert expected.exists(), sorted(p.name for p in metrics.iterdir())
        with open(expected, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        validate_metrics_document(doc)
        assert doc["benchmark"] == "cell"
        assert doc["interval"] == 250


def test_report_markdown_default(capsys):
    """`repro report` renders the committed fixture as markdown."""
    assert main(["report", str(SAMPLE_METRICS)]) == 0
    out = capsys.readouterr().out
    assert "# Run metrics: cell" in out
    assert "## Totals" in out
    assert "## Timeline" in out
    assert "## DRAM bandwidth timeline" in out
    assert "| metric | value |" in out


def test_report_json_roundtrip(capsys):
    assert main(["report", str(SAMPLE_METRICS), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    with open(SAMPLE_METRICS, "r", encoding="utf-8") as fh:
        assert doc == json.load(fh)


def test_report_chrome_trace(tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    assert main([
        "report", str(SAMPLE_METRICS), "--format", "chrome",
        "--output", str(out_file),
    ]) == 0
    assert "wrote" in capsys.readouterr().out
    with open(out_file, "r", encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["traceEvents"][0]["ph"] == "M"
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_report_rejects_missing_and_invalid_files(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent.metrics.json")]) == 1
    assert "cannot read" in capsys.readouterr().err

    torn = tmp_path / "torn.metrics.json"
    torn.write_text("{not json")
    assert main(["report", str(torn)]) == 1
    assert "cannot read" in capsys.readouterr().err

    invalid = tmp_path / "invalid.metrics.json"
    with open(SAMPLE_METRICS, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["schema"] = 99
    invalid.write_text(json.dumps(doc))
    assert main(["report", str(invalid)]) == 1
    assert "schema" in capsys.readouterr().err
