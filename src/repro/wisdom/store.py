"""The persistent wisdom store.

Modeled on FFTW's *wisdom* mechanism (§4.2 of the paper describes the
planner whose results wisdom caches): best-found formulas and plans are
kept in a JSON file keyed by ``transform:n:options-hash`` and stamped
with a format version plus a platform fingerprint.  A store loads
gracefully — a corrupt, version-mismatched or foreign-platform file is
*discarded*, never an error — so callers can always pass a path and let
the store sort out whether its contents are usable.

Crash safety and concurrency:

* **Atomic writes** — every save goes through :func:`atomic_write`
  (temp file plus ``rename``), so a writer killed mid-save leaves
  either the old file or the new one, never a truncated hybrid.  The
  temp file is ``fsync``ed before the rename and the directory after
  it, so the guarantee covers a power cut as well as a killed process
  (on a filesystem that cannot sync a directory, the rename itself may
  still be lost — the old file then survives whole).
* **Content checksum** — the payload carries a SHA-256 over its
  entries; a file whose bytes no longer match (bit rot, manual edits,
  a partial write from a non-atomic writer) is detected at load.
* **Corruption quarantine** — an unparseable or checksum-failing file
  is renamed to ``<name>.corrupt`` (kept for forensics) and the store
  starts fresh; loading never raises.
* **Advisory locking + merge** — saves take an advisory ``flock`` on a
  sidecar ``<name>.lock`` and merge entries already on disk before
  rewriting, so concurrent processes recording different keys do not
  lose each other's updates (local entries win on key conflicts).
* **Validated lookup** — :meth:`WisdomStore.validated_lookup` runs a
  caller-supplied check against an entry before trusting it, evicting
  entries that fail (stale plans, foreign tampering).

Counters (hits / misses / stores / bytes written, load failures,
quarantines, merges, evictions) are surfaced through
:meth:`WisdomStore.stats` and :meth:`WisdomStore.describe` so
benchmarks can report cache effectiveness.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.wisdom.keys import (
    canonical_sha256,
    platform_description,
    platform_fingerprint,
    wisdom_key,
)

try:  # POSIX advisory locking; harmless no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

WISDOM_FORMAT = "spl-wisdom"
#: Version 2 added the content checksum.  Version-1 files (no
#: checksum) are *migrated*: their entries load, the migration is
#: counted, and the next save rewrites the file as v2.  Versions we
#: have never shipped are discarded as a (counted) mismatch.
WISDOM_VERSION = 2


def atomic_write(path: str | os.PathLike, data: str | bytes) -> None:
    """Publish ``data`` at ``path`` whole or not at all.

    The bytes go to a sibling temp file (named with the pid, so
    concurrent writers never share one) that is then renamed over
    ``path``; readers see the old content or the new, never a mix.  The
    temp file is ``fsync``ed before the rename and the directory after
    it, so what a power cut leaves is also the old content or the new.
    On any failure up to the rename the temp file is removed and the
    ``OSError`` propagates to the caller, which handles it as it would a
    failed plain write; a directory that cannot be synced (some network
    and FUSE filesystems refuse) is not a failure.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(data, str):
            data = data.encode("utf-8")
        tmp.write_bytes(data)
        _fsync_path(tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise
    try:
        _fsync_path(path.parent)
    except OSError:
        pass


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def _advisory_lock(path: Path | None):
    """Exclusive advisory lock on ``<path>.lock`` (no-op without fcntl).

    Advisory only: it coordinates cooperating WisdomStore writers, not
    arbitrary programs.  The sidecar keeps the lock separate from the
    data file, which is replaced by rename on every save.
    """
    if fcntl is None or path is None:
        yield
        return
    lock_path = path.with_name(path.name + ".lock")
    try:
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(lock_path, "w")
    except OSError:
        yield  # unlockable location: proceed unlocked (best effort)
        return
    try:
        fcntl.flock(handle, fcntl.LOCK_EX)
        yield
    finally:
        try:
            fcntl.flock(handle, fcntl.LOCK_UN)
        except OSError:  # pragma: no cover
            pass
        handle.close()


@dataclass
class WisdomEntry:
    """One remembered search outcome.

    ``formula`` is the winning formula's SPL text (or a compact plan
    rendering for planner entries, which reconstruct from ``meta``
    instead); ``seconds``/``mflops`` are the measurement that crowned
    it; ``meta`` holds whatever extra state the producer needs to
    validate or rebuild the result (radices, codelet sizes, rules...).
    """

    transform: str
    n: int
    formula: str
    seconds: float
    mflops: float
    meta: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "transform": self.transform,
            "n": self.n,
            "formula": self.formula,
            "seconds": self.seconds,
            "mflops": self.mflops,
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "WisdomEntry":
        return cls(
            transform=str(data["transform"]),
            n=int(data["n"]),
            formula=str(data["formula"]),
            seconds=float(data["seconds"]),
            mflops=float(data["mflops"]),
            meta=dict(data.get("meta", {})),
        )


class WisdomStore:
    """An in-memory wisdom table with optional JSON persistence.

    ``path=None`` gives a purely in-process store (useful for tests and
    one-shot searches); with a path the file is loaded on construction
    and — when ``autosave`` is left on — rewritten after every
    :meth:`record`, so interrupted searches lose at most the candidate
    in flight.
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 platform: str | None = None, autosave: bool = True,
                 autoload: bool = True):
        self.path = Path(path) if path is not None else None
        self.platform = platform or platform_fingerprint()
        self.autosave = autosave
        self.entries: dict[str, WisdomEntry] = {}
        # -- counters ---------------------------------------------------
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.saves = 0
        self.save_errors = 0
        self.bytes_written = 0
        self.load_errors = 0
        self.migrations = 0
        self.version_mismatches = 0
        self.platform_mismatches = 0
        self.invalidated = 0
        self.quarantined = 0
        self.merged = 0
        self.evictions = 0
        if self.path is not None and autoload:
            self.load()

    # -- persistence ----------------------------------------------------

    def _read_payload(self) -> tuple[dict[str, WisdomEntry] | None, str]:
        """Parse the file at ``path``: ``(entries, "ok")`` or
        ``(None, reason)``.

        Reasons distinguish *corruption* (``json``, ``checksum``,
        ``entries`` — the file is ours but damaged) from benign
        mismatches (``missing``, ``io``, ``format``, ``version``,
        ``platform``) so the caller can quarantine only the former.
        """
        if self.path is None or not self.path.exists():
            return None, "missing"
        try:
            text = self.path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return None, "io"
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            return None, "json"
        if not isinstance(data, dict) or data.get("format") != WISDOM_FORMAT:
            # Some other program's JSON: not ours to quarantine.
            return None, "format"
        version = data.get("version")
        if version not in (1, WISDOM_VERSION):
            return None, "version"
        if data.get("platform") != self.platform:
            return None, "platform"
        raw = data.get("entries")
        if not isinstance(raw, dict):
            return None, "entries"
        if version == WISDOM_VERSION:
            checksum = data.get("checksum")
            if checksum != canonical_sha256(raw):
                return None, "checksum"
        loaded: dict[str, WisdomEntry] = {}
        try:
            for key, value in raw.items():
                loaded[key] = WisdomEntry.from_json(value)
        except (KeyError, TypeError, ValueError):
            return None, "entries"
        # Version-1 files predate the content checksum; their entries
        # are usable as-is and the caller upgrades the file on save.
        return loaded, ("migrated" if version == 1 else "ok")

    def _quarantine_file(self) -> None:
        """Move the damaged file aside as ``<name>.corrupt[.N]``.

        Successive corruptions must each survive for forensics: the
        first corpse takes ``.corrupt``, later ones ``.corrupt.1``,
        ``.corrupt.2``, ... instead of clobbering the previous one.
        """
        if self.path is None:
            return
        corpse = self.path.with_name(self.path.name + ".corrupt")
        suffix = 0
        while corpse.exists():
            suffix += 1
            corpse = self.path.with_name(
                f"{self.path.name}.corrupt.{suffix}")
        try:
            os.replace(self.path, corpse)
            self.quarantined += 1
        except OSError:  # pragma: no cover - unmovable file
            pass

    def load(self) -> bool:
        """(Re)load from ``path``; returns True iff entries were usable.

        Every failure mode — missing file, unreadable file, malformed
        JSON, checksum mismatch, wrong format/version, foreign platform
        — leaves the store empty and bumps the matching counter instead
        of raising.  Corrupted files (bad JSON, failed checksum,
        malformed entries) are additionally renamed to ``.corrupt`` so
        the next save starts fresh and the evidence is preserved.
        A version-1 file (pre-checksum) loads with its entries intact
        and — when autosave is on — is immediately rewritten as v2.
        """
        entries, reason = self._read_payload()
        if entries is not None:
            self.entries = entries
            if reason == "migrated":
                self.migrations += 1
                if self.autosave:
                    # merge=False: the disk copy is the v1 file we just
                    # loaded in full; re-merging it is pointless.
                    self.save(merge=False)
            return True
        self.entries = {}
        if reason == "missing":
            return False
        if reason == "version":
            self.version_mismatches += 1
        elif reason == "platform":
            self.platform_mismatches += 1
        else:
            self.load_errors += 1
            if reason in ("json", "checksum", "entries"):
                self._quarantine_file()
        return False

    def _merge_from_disk(self) -> None:
        """Adopt on-disk entries recorded by concurrent writers.

        Called under the advisory lock just before rewriting the file:
        any key present on disk but not in memory is kept, so two
        processes recording different keys both survive.  Keys we hold
        locally win (ours is the most recent measurement).
        """
        entries, reason = self._read_payload()
        if entries is None:
            return
        for key, entry in entries.items():
            if key not in self.entries:
                self.entries[key] = entry
                self.merged += 1

    def save(self, *, merge: bool = True) -> bool:
        """Write the store to ``path`` (atomically, via a temp file).

        Under an advisory file lock, on-disk entries from concurrent
        writers are merged in first (``merge=False`` skips that and
        overwrites), then the payload — entries plus their SHA-256
        checksum — is written to a temp file and renamed into place, so
        a writer killed mid-save can never leave a truncated store.

        An unwritable path (missing permissions, path is a directory)
        bumps ``save_errors`` and returns False instead of raising —
        wisdom is an accelerator, and failing to persist it must never
        kill the search that produced it.
        """
        if self.path is None:
            return False
        with _advisory_lock(self.path):
            if merge:
                self._merge_from_disk()
            raw_entries = {
                key: entry.to_json() for key, entry in self.entries.items()
            }
            payload = {
                "format": WISDOM_FORMAT,
                "version": WISDOM_VERSION,
                "platform": self.platform,
                "platform_info": platform_description(),
                "checksum": canonical_sha256(raw_entries),
                "entries": raw_entries,
            }
            text = json.dumps(payload, indent=1, sort_keys=True)
            try:
                atomic_write(self.path, text)
            except OSError:
                self.save_errors += 1
                return False
        self.saves += 1
        self.bytes_written += len(text.encode())
        return True

    # -- the table ------------------------------------------------------

    def lookup(self, transform: str, n: int,
               options: object | None = None) -> WisdomEntry | None:
        """Fetch remembered wisdom; counts a hit or a miss."""
        entry = self.entries.get(wisdom_key(transform, n, options))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def validated_lookup(self, transform: str, n: int,
                         options: object | None = None, *,
                         validate: Callable[[WisdomEntry], bool],
                         ) -> WisdomEntry | None:
        """Fetch wisdom, but only if ``validate(entry)`` accepts it.

        An entry the validator rejects — or that makes it raise — is
        *evicted* (removed and, when autosave is on, persisted away):
        stale plans, entries for codelets that no longer exist, or a
        tampered store never poison the caller twice.  Returns None as
        if the entry had never existed.
        """
        entry = self.lookup(transform, n, options)
        if entry is None:
            return None
        try:
            accepted = bool(validate(entry))
        except Exception:  # noqa: BLE001 - invalid wisdom must not raise
            accepted = False
        if accepted:
            return entry
        self.entries.pop(wisdom_key(transform, n, options), None)
        self.evictions += 1
        if self.autosave:
            # merge=False: the evicted key must not be re-adopted from
            # the on-disk copy we just rejected.
            self.save(merge=False)
        return None

    def record(self, transform: str, n: int, options: object | None = None,
               *, formula: str, seconds: float, mflops: float,
               **meta: Any) -> WisdomEntry:
        """Remember a search outcome (and autosave when persistent)."""
        entry = WisdomEntry(transform=transform, n=n, formula=formula,
                            seconds=seconds, mflops=mflops, meta=dict(meta))
        self.entries[wisdom_key(transform, n, options)] = entry
        self.stores += 1
        if self.autosave:
            self.save()
        return entry

    def invalidate(self, transform: str | None = None,
                   n: int | None = None) -> int:
        """Drop entries matching ``transform`` and/or ``n`` (None = all).

        Returns the number of entries removed; the file (if any) is
        rewritten when autosave is on (without merging, so concurrent
        copies of the invalidated keys are dropped too).
        """
        doomed = [
            key for key, entry in self.entries.items()
            if (transform is None or entry.transform == transform)
            and (n is None or entry.n == n)
        ]
        for key in doomed:
            del self.entries[key]
        self.invalidated += len(doomed)
        if doomed and self.autosave:
            self.save(merge=False)
        return len(doomed)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[WisdomEntry]:
        return iter(self.entries.values())

    # -- reporting ------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "path": str(self.path) if self.path else None,
            "entries": len(self.entries),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "saves": self.saves,
            "save_errors": self.save_errors,
            "bytes_written": self.bytes_written,
            "load_errors": self.load_errors,
            "migrations": self.migrations,
            "version_mismatches": self.version_mismatches,
            "platform_mismatches": self.platform_mismatches,
            "invalidated": self.invalidated,
            "quarantined": self.quarantined,
            "merged": self.merged,
            "evictions": self.evictions,
        }

    def describe(self) -> str:
        s = self.stats()
        where = s["path"] or "<memory>"
        return (
            f"wisdom[{where}]: {s['entries']} entries, "
            f"{s['hits']} hits / {s['misses']} misses, "
            f"{s['stores']} stores ({s['bytes_written']} bytes written)"
        )
