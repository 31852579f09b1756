"""Durable-write helpers: atomic JSON publish and scratch-temp naming."""

import json
from pathlib import Path

import pytest

from repro.sim.durable import atomic_write_json, scratch_path


def test_atomic_write_json_basics(tmp_path):
    """Creates parents, leaves no temp files, and overwrites atomically."""
    target = tmp_path / "deep" / "nested" / "doc.json"
    atomic_write_json(target, {"a": 1})
    assert json.loads(target.read_text(encoding="utf-8")) == {"a": 1}
    atomic_write_json(target, {"b": 2, "a": 1}, indent=2, sort_keys=True,
                      trailing_newline=True)
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    leftovers = list(target.parent.glob(".tmp-*")) + list(
        target.parent.glob("*.tmp.*")
    )
    assert not leftovers, "temp file left behind"


def test_scratch_path_is_sibling_hidden_and_pid_stamped():
    """Scratch temps are dot-hidden siblings carrying the writer's pid."""
    import os

    target = Path("/some/dir/doc.json")
    tmp = scratch_path(target)
    assert tmp.parent == target.parent
    assert tmp.name == f".tmp-{os.getpid()}-doc.json"


def test_atomic_write_json_cleans_scratch_on_failure(tmp_path, monkeypatch):
    """A failed publish must not leave the scratch temp behind.

    The rename is forced to fail (read-only-rename shim), standing in
    for any mid-write crash short of SIGKILL; the target must stay
    absent and the directory must hold no ``.tmp-*`` litter for fsck to
    later classify as orphaned.
    """
    import os

    target = tmp_path / "doc.json"

    def refuse(*_args, **_kwargs):
        raise OSError(28, "No space left on device (injected)")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        atomic_write_json(target, {"a": 1})
    monkeypatch.undo()
    assert not target.exists()
    assert not list(tmp_path.glob(".tmp-*")), "scratch temp left behind"
