"""Versioned simulator snapshots with bit-identical resume.

A *checkpoint* is a single JSON document capturing the full dynamic state
of a :class:`~repro.sim.gpu.GpuSimulator` mid-run, taken at the top of a
main-loop iteration (the one point where the machine state is
self-consistent).  Because each loop iteration is a pure function of the
iteration-start state, a simulator restored from a checkpoint replays the
remaining iterations *bit-identically*: the resumed run's
:class:`~repro.sim.stats.SimStats` match an uninterrupted run exactly.

The envelope format::

    {
      "schema":         CHECKPOINT_SCHEMA,   # snapshot format version
      "fingerprint":    "<caller tag>",      # e.g. the sweep-run fingerprint
      "config_sha256":  "<config hash>",     # machine-description hash
      "cycle":          <int>,               # simulated cycle of the snapshot
      "payload":        {...},               # GpuSimulator.state_dict()
      "payload_sha256": "<payload hash>"     # integrity digest
    }

Static state is deliberately *not* stored: the config, the prefetcher
construction parameters and the instruction streams are all rebuilt
deterministically from the run spec, and the envelope's
``config_sha256`` / ``fingerprint`` fields reject a snapshot loaded
against the wrong machine or workload.  The payload digest is computed
over the canonical JSON encoding of the payload, which Python's ``json``
round-trips exactly (shortest-repr floats; ``Infinity`` allowed), so a
digest computed after a load matches the one computed before the save —
any torn or bit-flipped file fails validation with a structured
:class:`~repro.sim.errors.CheckpointError` instead of corrupting a run.

Writes are atomic (unique temp file + ``os.replace``), matching the
sweep result cache: a crash mid-write leaves either the previous valid
checkpoint or a stray temp file, never a half-written snapshot at the
final path.

Typical use (what :mod:`repro.harness.runner` does)::

    fingerprint = spec.fingerprint()
    sim = GpuSimulator(config, factory)
    sim.load_workload(blocks, max_blocks)
    attach_checkpointing(sim, path, interval=50_000, fingerprint=fingerprint)
    result = sim.run(strict=True)        # snapshots every ~50K cycles

    # ... after a crash, in a fresh process:
    envelope = load_checkpoint(path, fingerprint=fingerprint, config=config)
    sim = restore_simulator(envelope, config, factory, blocks, max_blocks)
    result = sim.run(strict=True)        # picks up where the crash hit
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.sim.config import GpuConfig
from repro.sim.errors import CheckpointError

#: Snapshot format version.  Bump when the envelope shape or any
#: component's ``state_dict()`` layout changes incompatibly; loaders
#: reject snapshots from other versions rather than guessing.
CHECKPOINT_SCHEMA = 1

#: Default auto-checkpoint interval (cycles) when a directory is set but
#: no interval is given.
DEFAULT_CHECKPOINT_INTERVAL = 50_000


def canonical_json(document: object) -> str:
    """Canonical JSON encoding: sorted keys, no whitespace.

    Digests are computed over this encoding so they are independent of
    formatting and key order.  ``allow_nan`` stays on: the throttle
    engine's early-eviction rate can legitimately be ``inf``, and
    Python's codec round-trips it (as ``Infinity``).
    """
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Dict) -> str:
    """SHA-256 hex digest of a payload's canonical JSON encoding."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def config_fingerprint(config: GpuConfig) -> str:
    """SHA-256 hex digest identifying a machine configuration.

    Computed over the canonical JSON of ``dataclasses.asdict(config)``
    (non-JSON field values stringified), so two configs hash equal iff
    every Table II knob matches — a checkpoint taken on one machine
    description can never silently restore onto another.
    """
    document = json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def scratch_path(path: Union[str, Path]) -> Path:
    """Scratch temp location for an atomic write targeting ``path``.

    ``.tmp-<pid>-<name>`` in the same directory: the same filesystem (so
    ``os.replace`` stays atomic), a leading dot + ``tmp`` prefix so
    humans and the artifact auditor (:mod:`repro.harness.fsck`) recognize
    scratch litter at a glance, and a pid stamp so the auditor can
    attribute an orphaned temp to a dead writer and collect it under
    ``--gc`` while leaving a live writer's in-flight temp alone.
    """
    path = Path(path)
    return path.parent / f".tmp-{os.getpid()}-{path.name}"


def atomic_write_json(
    path: Union[str, Path],
    document: object,
    indent: Optional[int] = None,
    sort_keys: bool = False,
    trailing_newline: bool = False,
) -> Path:
    """Write ``document`` as JSON to ``path`` atomically; returns the path.

    Parent directories are created.  The document is serialized to a
    pid-unique temp file (:func:`scratch_path`) in the same directory and
    moved into place with ``os.replace`` (atomic on POSIX), so concurrent
    writers cannot observe — or leave behind — a torn file at the final
    path.  On *any* failure after the temp file is created (serialization
    error, ENOSPC mid-write, a failed replace) the temp is removed before
    the exception propagates, so an exception path never leaks scratch
    litter.  This is the same pattern the sweep result cache uses; the
    profiler (:meth:`repro.sim.profiling.SimProfiler.write`) and the perf
    harness (:func:`repro.harness.perf.write_document`) share this
    helper.  ``sort_keys`` / ``trailing_newline`` exist for committed,
    diff-friendly documents such as ``BENCH_perf.json``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = scratch_path(path)
    text = json.dumps(document, indent=indent, sort_keys=sort_keys)
    if trailing_newline:
        text += "\n"
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - cleanup is best-effort
            pass
        raise
    return path


def write_checkpoint(
    path: Union[str, Path], sim: "object", fingerprint: str = ""
) -> Path:
    """Snapshot a simulator into a versioned envelope at ``path``.

    Args:
        path: Destination file (parents created; write is atomic).
        sim: The :class:`~repro.sim.gpu.GpuSimulator` to snapshot.  Its
            ``cycle`` attribute must reflect the current loop cycle (the
            run-loop hook guarantees this).
        fingerprint: Caller-chosen workload tag (e.g. the sweep-run
            fingerprint); validated on load so a snapshot cannot be
            resumed against a different run spec.

    Returns:
        The path written.
    """
    payload = sim.state_dict()
    envelope = {
        "schema": CHECKPOINT_SCHEMA,
        "fingerprint": fingerprint,
        "config_sha256": config_fingerprint(sim.config),
        "cycle": sim.cycle,
        "payload": payload,
        "payload_sha256": payload_digest(payload),
    }
    return atomic_write_json(path, envelope)


def _reject(path: Path, message: str, **context: object) -> CheckpointError:
    """Build a :class:`CheckpointError` with a structured snapshot."""
    snapshot: Dict = {"path": str(path)}
    snapshot.update(context)
    return CheckpointError(f"checkpoint {path}: {message}", snapshot=snapshot)


def load_checkpoint(
    path: Union[str, Path],
    fingerprint: Optional[str] = None,
    config: Optional[GpuConfig] = None,
) -> Dict:
    """Read and validate a checkpoint envelope.

    Validation order: file readable and parsable → envelope shape →
    schema version → payload digest → workload fingerprint → config
    hash.  Every failure raises :class:`CheckpointError` carrying a
    diagnostic snapshot (path, expected/actual values), which the sweep
    engine records before falling back to a cold start.

    Args:
        path: Checkpoint file to read.
        fingerprint: When given, must equal the envelope's
            ``fingerprint`` field.
        config: When given, its :func:`config_fingerprint` must equal
            the envelope's ``config_sha256`` field.

    Returns:
        The validated envelope dict.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _reject(path, f"unreadable: {exc}", error=str(exc)) from exc
    except UnicodeDecodeError as exc:
        # A torn or overwritten file can contain arbitrary bytes; that is
        # a corrupt snapshot, not a programming error.
        raise _reject(path, f"not UTF-8: {exc}", error=str(exc)) from exc
    try:
        envelope = json.loads(text)
    except ValueError as exc:
        raise _reject(path, f"not valid JSON: {exc}", error=str(exc)) from exc
    if not isinstance(envelope, dict):
        raise _reject(
            path, "envelope is not an object", found=type(envelope).__name__
        )
    required = (
        "schema",
        "fingerprint",
        "config_sha256",
        "cycle",
        "payload",
        "payload_sha256",
    )
    missing = [key for key in required if key not in envelope]
    if missing:
        raise _reject(path, f"missing envelope fields: {missing}", missing=missing)
    if envelope["schema"] != CHECKPOINT_SCHEMA:
        raise _reject(
            path,
            f"schema version {envelope['schema']!r} != {CHECKPOINT_SCHEMA}",
            found=envelope["schema"],
            expected=CHECKPOINT_SCHEMA,
        )
    if not isinstance(envelope["payload"], dict):
        raise _reject(
            path,
            "payload is not an object",
            found=type(envelope["payload"]).__name__,
        )
    digest = payload_digest(envelope["payload"])
    if digest != envelope["payload_sha256"]:
        raise _reject(
            path,
            "payload digest mismatch (torn or corrupted snapshot)",
            expected=envelope["payload_sha256"],
            actual=digest,
        )
    if fingerprint is not None and envelope["fingerprint"] != fingerprint:
        raise _reject(
            path,
            "workload fingerprint mismatch (snapshot is for a different run)",
            expected=fingerprint,
            actual=envelope["fingerprint"],
        )
    if config is not None:
        expected = config_fingerprint(config)
        if envelope["config_sha256"] != expected:
            raise _reject(
                path,
                "config fingerprint mismatch (snapshot is for a different machine)",
                expected=expected,
                actual=envelope["config_sha256"],
            )
    return envelope


def restore_simulator(
    envelope: Dict,
    config: GpuConfig,
    prefetcher_factory: Optional[object],
    blocks: Sequence[object],
    max_blocks_per_core: int,
    invariants: Optional[bool] = None,
    profiler: Optional[object] = None,
    metrics: Optional[object] = None,
) -> "object":
    """Build a fresh simulator and restore a validated envelope into it.

    Args:
        envelope: Output of :func:`load_checkpoint`.
        config: The machine configuration (must match the one the
            snapshot was taken under; :func:`load_checkpoint` enforces
            this when given the config).
        prefetcher_factory: The same per-core prefetcher factory used by
            the original run (prefetcher *construction parameters* are
            static; only trained table state rides in the payload).
        blocks: The kernel's thread blocks, regenerated from the same
            spec (instruction streams are static and never serialized).
        max_blocks_per_core: Occupancy limit from the kernel spec.
        invariants: Attach invariant checking (None defers to
            ``$REPRO_INVARIANTS``, as at normal construction).
        profiler: Attach a profiler; when the snapshot carries profiler
            counters they are restored so the final profile spans both
            processes.
        metrics: Attach a
            :class:`~repro.sim.telemetry.MetricsRecorder`; when the
            snapshot carries recorder state (window ring, running
            snapshot, next sample boundary) it is restored so the
            resumed run's window series continues bit-identically.

    Returns:
        A :class:`~repro.sim.gpu.GpuSimulator` positioned at the
        snapshot's cycle; calling ``run()`` continues the interrupted
        simulation bit-identically.
    """
    from repro.sim.gpu import GpuSimulator

    sim = GpuSimulator(
        config, prefetcher_factory, invariants=invariants, profiler=profiler,
        metrics=metrics,
    )
    sim.load_workload(blocks, max_blocks_per_core)
    sim.load_state_dict(envelope["payload"], blocks)
    return sim


def free_bytes(path: Union[str, Path]) -> Optional[int]:
    """Free bytes on the filesystem holding ``path``, or None if unknown.

    Uses ``os.statvfs`` (POSIX); returns None on platforms without it or
    when the path cannot be statted — callers treat "unknown" as "enough"
    so a missing probe never disables a sink.
    """
    try:
        stat = os.statvfs(path)
    except (AttributeError, OSError):
        return None
    return stat.f_bavail * stat.f_frsize


def has_free_space(path: Union[str, Path], floor: int) -> bool:
    """True when the filesystem holding ``path`` has >= ``floor`` bytes free."""
    free = free_bytes(path)
    return free is None or free >= floor


#: Minimum free bytes required before an auto-checkpoint write is
#: attempted.  A full-machine snapshot of the largest sweep cells is well
#: under 4 MB of JSON; preflighting avoids shredding the last few blocks
#: of a full disk with doomed temp files every interval.
CHECKPOINT_FREE_SPACE_FLOOR = 4 << 20


def attach_checkpointing(
    sim: "object", path: Union[str, Path], interval: int, fingerprint: str = ""
) -> None:
    """Arm a simulator to auto-checkpoint every ``interval`` cycles.

    The run loop then calls :func:`write_checkpoint` at the first loop
    iteration at or past each interval boundary.  ``interval <= 0``
    disables checkpointing.

    Each snapshot is preflighted against
    :data:`CHECKPOINT_FREE_SPACE_FLOOR`; a failed preflight or a write
    that raises ``OSError`` (disk full, quota, permissions) emits one
    ``RuntimeWarning`` and disables further auto-snapshots for this run
    instead of crashing it — crash *recoverability* degrades, the
    simulation itself survives.
    """
    if interval <= 0:
        sim.checkpoint_interval = 0
        sim.checkpoint_write = None
        return
    destination = Path(path)
    state = {"disabled": False}

    def _auto_snapshot(snapshot_sim: "object") -> None:
        """Guarded snapshot: preflight space, warn once, then go quiet."""
        if state["disabled"]:
            return
        try:
            parent = destination.parent if destination.parent != Path("") else Path(".")
            parent.mkdir(parents=True, exist_ok=True)
            if not has_free_space(parent, CHECKPOINT_FREE_SPACE_FLOOR):
                raise OSError(
                    errno.ENOSPC,
                    f"free space below {CHECKPOINT_FREE_SPACE_FLOOR} byte floor",
                )
            write_checkpoint(destination, snapshot_sim, fingerprint=fingerprint)
        except OSError as exc:
            state["disabled"] = True
            warnings.warn(
                f"auto-checkpointing to {destination} disabled ({exc}); "
                "the run continues without crash recovery",
                RuntimeWarning,
                stacklevel=2,
            )

    sim.checkpoint_interval = interval
    sim.checkpoint_write = _auto_snapshot
