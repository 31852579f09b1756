"""Artifact auditor: classify, repair, and collect every durable sink.

The harness accumulates a zoo of on-disk artifacts — result-cache
entries, sweep manifests, metrics documents,
quarantine and failure reports, heartbeats, work-claim leases, and the
scratch temps of interrupted atomic writes.  Each sink already has a
validator (cache schema + :class:`~repro.sim.stats.SimStats` shape,
metrics-document contiguity, lease/heartbeat records); what was missing
is one pass that walks a tree, applies the right validator to each
file, and says what is trustworthy, what is garbage, and what is
litter.  That is ``repro fsck``.

Every audited file lands in exactly one status:

* ``ok`` — validates against its sink's rules (or is a non-artifact the
  auditor does not judge).
* ``corrupt`` — fails validation: torn JSON, digest mismatch, schema
  from nowhere, a cache entry whose stats do not deserialize.  Under
  ``--repair`` these are quarantined by an atomic rename to
  ``<name>.corrupt`` — the same convention
  :meth:`~repro.harness.sweep.ResultCache.get` uses for its own
  evictions — so readers stop paying the re-parse tax and the evidence
  survives for forensics.
* ``orphaned`` — litter attributable to a dead writer: a scratch temp
  or steal tombstone whose embedded pid no longer runs, a heartbeat
  whose process is gone.  Collected under ``--gc``.
* ``stale`` — valid but superseded: an expired lease.  Collected under
  ``--gc``.

The auditor never deletes anything it classified ``corrupt`` (repair
renames, keeping the bytes) and never touches anything ``ok`` — the
worst a buggy classification can cost is a re-simulation, never data.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.harness.coordinate import (
    DEFAULT_LEASE_GRACE,
    LEASE_SCHEMA,
    pid_alive,
)
from repro.harness.supervise import HEARTBEAT_SCHEMA
from repro.sim.stats import SimStats
from repro.sim.telemetry import validate_metrics_document

#: Format version of the ``repro fsck --json`` report document.
FSCK_SCHEMA = 1

#: The four verdicts; see the module docstring for their semantics.
STATUSES = ("ok", "corrupt", "orphaned", "stale")

_HEX64 = re.compile(r"^[0-9a-f]{64}$")
_SCRATCH = re.compile(r"^\.tmp-(\d+)-")
_LEGACY_SCRATCH = re.compile(r"\.tmp\.(\d+)$")
_STEAL_TOMBSTONE = re.compile(r"\.lease\.steal\.(\d+)$")
_CACHE_VERSION_DIR = re.compile(r"^v(\d+)$")


@dataclass
class Finding:
    """One audited file: where it is, what it is, and the verdict."""

    path: Path
    sink: str
    status: str
    detail: str = ""
    action: str = ""  # "", "repaired", "collected", or "<verb>-failed"

    def to_dict(self) -> Dict:
        """Plain-JSON form for the ``--json`` report."""
        record = {
            "path": str(self.path),
            "sink": self.sink,
            "status": self.status,
            "detail": self.detail,
        }
        if self.action:
            record["action"] = self.action
        return record


@dataclass
class FsckReport:
    """The outcome of one audit pass over a set of roots."""

    roots: List[Path]
    grace: float
    findings: List[Finding] = field(default_factory=list)
    repaired: int = 0
    collected: int = 0

    def counts(self) -> Dict[str, int]:
        """Files per status (all four statuses always present)."""
        tally = {status: 0 for status in STATUSES}
        for finding in self.findings:
            tally[finding.status] += 1
        return tally

    def remaining_corrupt(self) -> List[Finding]:
        """Corrupt findings not successfully repaired (the exit-1 set)."""
        return [
            f
            for f in self.findings
            if f.status == "corrupt" and f.action != "repaired"
        ]

    @property
    def clean(self) -> bool:
        """True when nothing is corrupt, orphaned, or stale."""
        return all(f.status == "ok" for f in self.findings)

    def to_dict(self) -> Dict:
        """Plain-JSON report document (``repro fsck --json``)."""
        return {
            "schema": FSCK_SCHEMA,
            "roots": [str(root) for root in self.roots],
            "grace": self.grace,
            "counts": self.counts(),
            "repaired": self.repaired,
            "collected": self.collected,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
        }


def _dead_writer(pid_text: str) -> Optional[bool]:
    """Liveness verdict for a pid embedded in a litter filename."""
    try:
        pid = int(pid_text)
    except ValueError:
        return False
    return pid_alive(pid)


def _classify_lease(path: Path, grace: float) -> Finding:
    """Lease file: live, expired, or garbage."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(record, dict):
            raise ValueError("record is not an object")
    except OSError as exc:
        return Finding(path, "lease", "corrupt", f"unreadable: {exc}")
    except (ValueError, UnicodeDecodeError) as exc:
        return Finding(path, "lease", "corrupt", f"unparsable: {exc}")
    if record.get("schema") != LEASE_SCHEMA:
        return Finding(
            path, "lease", "corrupt",
            f"schema {record.get('schema')!r} != {LEASE_SCHEMA}",
        )
    renewed = record.get("renewed_wall", record.get("acquired_wall"))
    if not isinstance(renewed, (int, float)):
        return Finding(path, "lease", "corrupt", "no renewal timestamp")
    age = time.time() - float(renewed)
    pid = record.get("pid")
    if isinstance(pid, int) and pid_alive(pid) is False:
        return Finding(
            path, "lease", "stale", f"claimant pid {pid} is dead"
        )
    if age > grace:
        return Finding(
            path, "lease", "stale",
            f"renewal age {age:.1f}s exceeds the {grace:.1f}s grace",
        )
    return Finding(path, "lease", "ok", f"live claim by pid {pid}")


def _classify_heartbeat(path: Path, grace: float) -> Finding:
    """Heartbeat file: a live worker's, a dead worker's, or garbage."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(record, dict):
            raise ValueError("record is not an object")
    except OSError as exc:
        return Finding(path, "heartbeat", "corrupt", f"unreadable: {exc}")
    except (ValueError, UnicodeDecodeError) as exc:
        return Finding(path, "heartbeat", "corrupt", f"unparsable: {exc}")
    if record.get("schema") != HEARTBEAT_SCHEMA or "wall" not in record:
        return Finding(
            path, "heartbeat", "corrupt",
            f"schema {record.get('schema')!r} != {HEARTBEAT_SCHEMA} "
            "or missing wall timestamp",
        )
    pid = record.get("pid")
    if isinstance(pid, int) and pid_alive(pid) is False:
        return Finding(
            path, "heartbeat", "orphaned", f"writer pid {pid} is dead"
        )
    wall = record.get("wall")
    if isinstance(wall, (int, float)):
        age = time.time() - float(wall)
        if age > max(grace, 60.0):
            return Finding(
                path, "heartbeat", "orphaned",
                f"last beat {age:.0f}s ago (pid liveness unknown)",
            )
    return Finding(path, "heartbeat", "ok", f"live worker pid {pid}")


def _classify_metrics(path: Path) -> Finding:
    """Windowed-metrics document: schema/typing/contiguity validation."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
        validate_metrics_document(document)
    except OSError as exc:
        return Finding(path, "metrics", "corrupt", f"unreadable: {exc}")
    except (ValueError, UnicodeDecodeError, TypeError) as exc:
        return Finding(path, "metrics", "corrupt", str(exc))
    return Finding(
        path, "metrics", "ok", f"{len(document.get('windows', []))} windows"
    )


def _classify_cache_entry(path: Path, version: int) -> Finding:
    """Result-cache entry: full payload validation against its version."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("payload is not an object")
    except OSError as exc:
        return Finding(path, "cache", "corrupt", f"unreadable: {exc}")
    except (ValueError, UnicodeDecodeError) as exc:
        return Finding(path, "cache", "corrupt", f"unparsable: {exc}")
    if payload.get("schema") != version:
        return Finding(
            path, "cache", "corrupt",
            f"schema tag {payload.get('schema')!r} disagrees with the "
            f"v{version} directory",
        )
    if payload.get("key") != path.stem:
        return Finding(
            path, "cache", "corrupt",
            "embedded key does not match the filename",
        )
    try:
        stats = SimStats.from_dict(payload["stats"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return Finding(
            path, "cache", "corrupt", f"stats do not deserialize: {exc}"
        )
    if stats.truncated:
        return Finding(
            path, "cache", "corrupt",
            "cached stats are flagged truncated (never stored by the "
            "engine; the entry was planted or tampered with)",
        )
    return Finding(path, "cache", "ok", f"{stats.cycles} cycles")


def _classify_manifest(path: Path) -> Finding:
    """Append-only JSONL journal: count valid records vs torn lines."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return Finding(path, "manifest", "corrupt", f"unreadable: {exc}")
    lines = [line for line in raw.splitlines() if line.strip()]
    valid = torn = 0
    for line in lines:
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            torn += 1
            continue
        if isinstance(record, dict) and "schema" in record:
            valid += 1
        else:
            torn += 1
    if lines and not valid:
        return Finding(
            path, "manifest", "corrupt",
            f"no parseable record among {len(lines)} line(s)",
        )
    detail = f"{valid} record(s)"
    if torn:
        # Torn trailing lines are the journal's designed crash mode;
        # loads skip them, so they do not make the file corrupt.
        detail += f", {torn} torn line(s) tolerated"
    return Finding(path, "manifest", "ok", detail)


def _classify_report(path: Path, sink: str) -> Finding:
    """Failure/quarantine report: must at least be a JSON object."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(record, dict):
            raise ValueError("report is not an object")
    except OSError as exc:
        return Finding(path, sink, "corrupt", f"unreadable: {exc}")
    except (ValueError, UnicodeDecodeError) as exc:
        return Finding(path, sink, "corrupt", f"unparsable: {exc}")
    kind = record.get("kind", record.get("error", ""))
    return Finding(path, sink, "ok", f"report ({kind})" if kind else "report")


def _cache_entry_version(path: Path) -> Optional[int]:
    """Schema version when ``path`` sits in cache layout, else ``None``.

    Layout: ``.../v<N>/<2 hex>/<64 hex>.json``.
    """
    if path.suffix != ".json" or not _HEX64.match(path.stem):
        return None
    fan_out = path.parent.name
    if len(fan_out) != 2 or path.stem[:2] != fan_out:
        return None
    version = _CACHE_VERSION_DIR.match(path.parent.parent.name)
    return int(version.group(1)) if version else None


def classify(path: Path, grace: float) -> Finding:
    """Route one file to its sink's validator and return the verdict."""
    name = path.name
    if name.endswith(".corrupt"):
        return Finding(
            path, "quarantined", "ok",
            "previously quarantined corrupt artifact (kept for forensics)",
        )
    scratch = _SCRATCH.match(name)
    tombstone = _STEAL_TOMBSTONE.search(name)
    legacy = _LEGACY_SCRATCH.search(name)
    for match, sink in (
        (scratch, "scratch"),
        (tombstone, "lease"),
        (legacy, "scratch"),
    ):
        if match is None:
            continue
        alive = _dead_writer(match.group(1))
        if alive:
            return Finding(
                path, sink, "ok",
                f"in-flight write by live pid {match.group(1)}",
            )
        return Finding(
            path, sink, "orphaned",
            f"writer pid {match.group(1)} is dead"
            if alive is False
            else f"writer pid {match.group(1)} unverifiable; treated as dead",
        )
    if name.endswith(".lease"):
        return _classify_lease(path, grace)
    if name.endswith(".hb.json"):
        return _classify_heartbeat(path, grace)
    if name.endswith(".metrics.json"):
        return _classify_metrics(path)
    if name.endswith(".failure.json"):
        return _classify_report(path, "failure-report")
    version = _cache_entry_version(path)
    if version is not None:
        return _classify_cache_entry(path, version)
    if _HEX64.match(path.stem) and path.suffix == ".json":
        # 64-hex-stem reports outside cache layout: quarantine registry
        # entries and failure_report_dir files share this shape.
        return _classify_report(path, "quarantine-report")
    if path.suffix in (".jsonl", ".manifest") or "manifest" in name:
        return _classify_manifest(path)
    if path.suffix == ".json":
        # Generic JSON artifacts (profiles, perf documents): whole-file
        # parse, falling back to a JSONL read — an unnamed manifest must
        # not be flagged corrupt just for being line-oriented.
        try:
            json.loads(path.read_text(encoding="utf-8"))
            return Finding(path, "json", "ok", "parses")
        except OSError as exc:
            return Finding(path, "json", "corrupt", f"unreadable: {exc}")
        except (ValueError, UnicodeDecodeError):
            finding = _classify_manifest(path)
            if finding.status == "ok":
                return finding
            return Finding(path, "json", "corrupt", "unparsable JSON")
    return Finding(path, "other", "ok", "not an audited artifact")


def _iter_files(roots: Sequence[Path]) -> Iterable[Path]:
    """All regular files under ``roots``, deduplicated, sorted."""
    seen: Set[Path] = set()
    for root in roots:
        root = Path(root)
        if root.is_file():
            candidates: Iterable[Path] = [root]
        elif root.is_dir():
            candidates = sorted(p for p in root.rglob("*") if p.is_file())
        else:
            continue
        for path in candidates:
            resolved = Path(os.path.realpath(path))
            if resolved in seen:
                continue
            seen.add(resolved)
            yield path


def _repair(finding: Finding) -> None:
    """Quarantine one corrupt file to ``<name>.corrupt`` (atomic rename)."""
    target = finding.path.with_name(finding.path.name + ".corrupt")
    try:
        os.replace(finding.path, target)
    except OSError as exc:
        finding.action = f"repair-failed: {exc}"
        return
    finding.action = "repaired"


def _collect(finding: Finding) -> None:
    """Unlink one stale/orphaned file."""
    try:
        finding.path.unlink(missing_ok=True)
    except OSError as exc:
        finding.action = f"collect-failed: {exc}"
        return
    finding.action = "collected"


def audit(
    roots: Sequence[Union[str, Path]],
    grace: float = DEFAULT_LEASE_GRACE,
    repair: bool = False,
    gc: bool = False,
) -> FsckReport:
    """Audit every file under ``roots``; optionally repair and collect.

    One pass classifies every file.  With ``repair``, corrupt files are renamed to
    ``<name>.corrupt``; with ``gc``, stale and orphaned files are
    unlinked.  Both mutations are recorded per finding in ``action`` and
    tallied on the report.

    Args:
        roots: Directories (or single files) to walk.
        grace: Seconds of silence after which leases and heartbeats are
            considered expired — match the sweep's lease grace.
        repair: Quarantine corrupt files.
        gc: Collect stale/orphaned files.
    """
    root_paths = [Path(root) for root in roots]
    report = FsckReport(roots=root_paths, grace=max(0.0, float(grace)))
    # Listed up front so files renamed or collected below are not
    # rediscovered by a later (overlapping) root.
    for path in list(_iter_files(root_paths)):
        finding = classify(path, report.grace)
        report.findings.append(finding)
        if repair and finding.status == "corrupt":
            _repair(finding)
            if finding.action == "repaired":
                report.repaired += 1
        if gc and finding.status in ("stale", "orphaned"):
            _collect(finding)
            if finding.action == "collected":
                report.collected += 1
    return report


def format_summary(report: FsckReport) -> str:
    """Human-readable multi-line summary of an audit pass."""
    counts = report.counts()
    lines = [
        "fsck: "
        + ", ".join(f"{counts[status]} {status}" for status in STATUSES)
        + f" across {len(report.findings)} file(s)"
    ]
    for finding in report.findings:
        if finding.status == "ok" and not finding.action:
            continue
        suffix = f" [{finding.action}]" if finding.action else ""
        lines.append(
            f"  {finding.status:>8}  {finding.path}  "
            f"({finding.sink}: {finding.detail}){suffix}"
        )
    if report.repaired or report.collected:
        lines.append(
            f"fsck: repaired {report.repaired}, collected {report.collected}"
        )
    return "\n".join(lines)
