"""Durable-write helpers shared by every on-disk artifact writer.

Profiles, metrics documents, heartbeats, leases, the perf ledger and the
sweep result cache all write JSON the same way: to a pid-stamped scratch
file beside the target, then ``os.replace`` into place, so a crash
mid-write leaves either the previous valid file or stray scratch litter
(which :mod:`repro.harness.fsck` recognizes and collects), never a torn
document at the final path.  :func:`free_bytes` is the one disk-space
probe; the chaos campaign's ENOSPC shim patches it here.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Union


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
    litter.  ``sort_keys`` / ``trailing_newline`` exist for committed,
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
