"""The one temp-file + rename helper, driven through every caller.

``atomic_write`` is used by the wisdom store's compaction, the pack
builder, the pack artifact installer, the serve port file and the
supervisor status file.  Whatever fails — the write itself partway
through, the ``fsync`` of the temp file, or the rename — each of them
must leave the published file exactly as it was and no temp file
beside it; the two callers that promise never to raise (compaction,
status publishing) must keep that promise.  A directory that refuses
``fsync`` is not a failure.  The store's other write, the journal
append, gets the same faults: each is counted, never raised, and the
next record still replays.
"""

from __future__ import annotations

import errno
import os
import stat
from pathlib import Path

import pytest

from repro.serve.supervisor import (
    ServeConfig,
    Supervisor,
    _publish_port,
    fork_supported,
)
from repro.wisdom import pack as pack_module
from repro.wisdom import store as store_module
from repro.wisdom.pack import build_pack
from repro.wisdom.store import WisdomStore, atomic_write


def _due_for_compaction(path: Path, version: int) -> None:
    """A journal whose dead lines outnumber its live ones."""
    store = WisdomStore(path)
    for seconds in (3.0, 2.0, 1.0):
        store.record("fft-small", 4 * version, formula="(F 4)",
                     seconds=seconds, mflops=2.0)


def _store_compact(path: Path, version: int) -> None:
    store = WisdomStore(path)  # the load compacts
    assert store.save_errors == (0 if store.saves else 1)


def _build_pack(path: Path, version: int) -> None:
    store = WisdomStore(None)
    store.record("fft-small", 4 * version, formula="(F 4)",
                 seconds=1.0, mflops=2.0)
    build_pack(store, path, include_artifacts=False)


def _install_artifact(path: Path, version: int) -> None:
    digest = path.name[len("spl_"):-len(".so")]
    pack_module._install_artifact(path.parent, digest, b"\x7fELF" * 64)


def _publish_port_file(path: Path, version: int) -> None:
    _publish_port(str(path), "127.0.0.1", 7000 + version)


def _publish_status(path: Path, version: int) -> None:
    supervisor = Supervisor(ServeConfig(), workers=1,
                            status_file=str(path))
    supervisor.crashes = version
    supervisor._maybe_publish_status()


#: name -> (writer, file name, has old content, raises on failure)
CALLERS = {
    "store-compact": (_store_compact, "wisdom.json", False, False),
    "build-pack": (_build_pack, "wisdom.pack", True, True),
    "install-artifact": (_install_artifact, "spl_abc123.so", False, True),
    "publish-port": (_publish_port_file, "port", True, True),
    "publish-status": (_publish_status, "status.json", True, False),
}

#: What a caller's file must hold before its publish is due.
PREPARE = {"store-compact": _due_for_compaction}


def _torn_write(self: Path, data: bytes) -> int:
    with open(self, "wb") as handle:
        handle.write(data[:len(data) // 2])
    raise OSError(errno.ENOSPC, "No space left on device")


def _failing_replace(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


def _failing_fsync(fd):
    raise OSError(errno.EIO, "Input/output error")


@pytest.mark.parametrize(
    "fault", ["write-fails-midway", "fsync-fails", "rename-fails"])
@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_failed_publish_leaves_old_content_and_no_temp(
        caller, fault, tmp_path, monkeypatch):
    writer, name, has_old, raises = CALLERS[caller]
    if caller == "publish-status" and not fork_supported():
        pytest.skip("Supervisor needs fork + SO_REUSEPORT")
    path = tmp_path / name
    if has_old:
        writer(path, 1)
    PREPARE.get(caller, lambda *args: None)(path, 2)
    old = path.read_bytes() if path.exists() else None

    if fault == "write-fails-midway":
        monkeypatch.setattr(Path, "write_bytes", _torn_write)
    elif fault == "fsync-fails":
        monkeypatch.setattr(store_module.os, "fsync", _failing_fsync)
    else:
        monkeypatch.setattr(store_module.os, "replace", _failing_replace)
    if raises:
        with pytest.raises(OSError):
            writer(path, 2)
    else:
        writer(path, 2)  # swallowed by the caller's own handling
    monkeypatch.undo()

    assert (path.read_bytes() if path.exists() else None) == old
    assert [p.name for p in tmp_path.iterdir()
            if ".tmp" in p.name] == []
    # And the same call succeeds once the fault is gone.
    writer(path, 2)
    assert path.read_bytes() != old


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_publish_syncs_file_then_directory_and_survives_a_refusal(
        caller, tmp_path, monkeypatch):
    """Temp file synced before the rename, directory after it; a
    filesystem that refuses to sync a directory still publishes."""
    writer, name, _, _ = CALLERS[caller]
    if caller == "publish-status" and not fork_supported():
        pytest.skip("Supervisor needs fork + SO_REUSEPORT")
    path = tmp_path / name
    PREPARE.get(caller, lambda *args: None)(path, 1)
    synced = []
    real_replace = os.replace

    def fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        synced.append("dir" if is_dir else "file")
        if is_dir:
            raise OSError(errno.EINVAL, "Invalid argument")

    def replace(src, dst):
        synced.append("rename")
        real_replace(src, dst)

    monkeypatch.setattr(store_module.os, "fsync", fsync)
    monkeypatch.setattr(store_module.os, "replace", replace)
    writer(path, 1)
    monkeypatch.undo()
    assert path.exists()
    assert synced[-3:] == ["file", "rename", "dir"]
    assert [p.name for p in tmp_path.iterdir() if ".tmp" in p.name] == []


def test_atomic_write_takes_text_or_bytes_and_makes_parents(tmp_path):
    target = tmp_path / "a" / "b" / "file"
    atomic_write(target, "héllo\n")
    assert target.read_bytes() == "héllo\n".encode("utf-8")
    atomic_write(str(target), b"\x00\x01")
    assert target.read_bytes() == b"\x00\x01"
    assert os.listdir(target.parent) == ["file"]


_real_os_write = os.write


def _torn_os_write(fd, data):
    _real_os_write(fd, data[:len(data) // 2])
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fault", ["write-torn-midway", "fsync-fails"])
def test_failed_append_is_counted_and_the_next_record_replays(
        fault, tmp_path, monkeypatch):
    path = tmp_path / "wisdom.json"
    store = WisdomStore(path)
    store.record("fft-small", 2, formula="(F 2)", seconds=1.0, mflops=2.0)
    if fault == "write-torn-midway":
        monkeypatch.setattr(store_module.os, "write", _torn_os_write)
    else:
        monkeypatch.setattr(store_module.os, "fsync", _failing_fsync)
    store.record("fft-small", 4, formula="(F 4)", seconds=1.0,
                 mflops=2.0)  # counted, never raised
    monkeypatch.undo()
    assert store.save_errors == 1
    assert len(store) == 2  # the in-memory table keeps it either way
    store.record("fft-small", 8, formula="(F 8)", seconds=1.0, mflops=2.0)
    fresh = WisdomStore(path)
    # A torn line costs itself; an unsynced one is still on disk.
    expected = [2, 8] if fault == "write-torn-midway" else [2, 4, 8]
    assert sorted(entry.n for entry in fresh) == expected
    assert fresh.load_errors == (fault == "write-torn-midway")
