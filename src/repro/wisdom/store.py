"""The persistent wisdom store, and the journal format it shares.

Modeled on FFTW's *wisdom* mechanism (§4.2 of the paper describes the
planner whose results wisdom caches): best-found formulas and plans are
kept keyed by ``transform:n:options-hash``, each stamped with the
platform fingerprint it was measured on.  On disk a store is a
*journal* in exactly the line format of the search's
:class:`~repro.search.queue.TaskJournal`, and one reader
(:func:`read_journal`) and one writer (:func:`append_journal`) serve
both:

* **One checksummed line per write** — ``{"key", "result", "sha"}``
  where ``sha`` covers the canonical rendering of key+result.  A line
  is appended under ``O_APPEND`` and a short advisory ``flock`` on a
  sidecar ``<name>.lock``, then ``fsync``ed, so it outlives a killed
  process and a power cut.  A writer killed mid-line leaves a torn
  tail that fails its checksum and costs that line alone: the next
  append starts a fresh line instead of gluing onto it.
* **Replay** — the reader yields the verified lines in file order plus
  a count of bad ones; the search journal keeps the first line per
  key, the store the last.  A store line's result is
  ``{"platform", "entry"}``, and ``entry: null`` is a tombstone
  (eviction, :meth:`WisdomStore.invalidate`).  Lines of other
  platforms stay on disk but are not loaded, so machines sharing a
  file never erase each other, and concurrent writers never lose each
  other's lines: nothing is rewritten on a write.
* **Compaction** — when dead lines (superseded, tombstoned, bad)
  outnumber live ones, :meth:`WisdomStore.load` publishes the live set
  through :func:`atomic_write`.  A file in which no store line verifies
  (some other program's file, a store from before the journal) is
  never rewritten.
* **Validated lookup** — :meth:`WisdomStore.validated_lookup` runs a
  caller-supplied check against an entry before trusting it, evicting
  entries that fail (stale plans, foreign tampering).

Counters (hits / misses / stores / bytes written, bad lines, foreign
lines, evictions) are surfaced through :meth:`WisdomStore.stats` and
:meth:`WisdomStore.describe` so benchmarks can report cache
effectiveness.
"""

from __future__ import annotations

import errno
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.wisdom.keys import (
    canonical_sha256,
    platform_fingerprint,
    wisdom_key,
)

try:  # POSIX advisory locking; harmless no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: The version of the entry schema (:meth:`WisdomEntry.to_json`) that
#: wisdom packs declare.
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
def _advisory_lock(path: Path):
    """Exclusive advisory lock on ``<path>.lock`` (no-op without fcntl).

    Advisory only: it coordinates cooperating journal writers, not
    arbitrary programs.  The sidecar keeps the lock separate from the
    data file, which compaction replaces by rename.
    """
    if fcntl is None:
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


def _line_sha(key: str, result: Any) -> str:
    return canonical_sha256({"key": key, "result": result})[:16]


def _journal_line(key: str, result: Any) -> bytes:
    record = {"key": key, "result": result, "sha": _line_sha(key, result)}
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def read_journal(path: str | os.PathLike,
                 ) -> tuple[list[tuple[str, Any]], int]:
    """The verified ``(key, result)`` lines of the journal at ``path``
    in file order, and the number of bad lines; never raises.

    A line is bad when it does not parse or fails its checksum (a torn
    append, bit rot, an edit); a missing file is an empty journal and
    an unreadable one counts as one bad line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return [], 0
    except (OSError, UnicodeDecodeError):
        return [], 1
    lines: list[tuple[str, Any]] = []
    bad = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key, result = record["key"], record["result"]
            if not isinstance(key, str) or (
                    record["sha"] != _line_sha(key, result)):
                raise ValueError("checksum mismatch")
        except (ValueError, KeyError, TypeError):
            bad += 1
            continue
        lines.append((key, result))
    return lines, bad


def append_journal(path: str | os.PathLike, key: str, result: Any) -> int:
    """Append one checksummed line to the journal at ``path``; returns
    the bytes written.

    Under the advisory lock, through ``O_APPEND``, then ``fsync``ed.  A
    file that ends mid-line (an append torn by a crash or a full disk)
    gets a newline first, so the torn line costs itself alone.  Raises
    ``OSError`` (or ``TypeError``/``ValueError`` for a result JSON
    cannot hold); callers count it instead of propagating.
    """
    data = _journal_line(key, result)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _advisory_lock(path):
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            end = os.lseek(fd, 0, os.SEEK_END)
            if end and os.pread(fd, 1, end - 1) != b"\n":
                data = b"\n" + data
            if os.write(fd, data) != len(data):
                raise OSError(errno.ENOSPC, "short journal write")
            os.fsync(fd)
        finally:
            os.close(fd)
    return len(data)


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
    """An in-memory wisdom table, journaled to ``path`` when given one.

    ``path=None`` gives a purely in-process store (tests, one-shot
    searches, the store a pack loads into); with a path the journal is
    replayed on construction and every :meth:`record`, eviction and
    invalidation appends one line to it, so an interrupted search loses
    at most the candidate in flight.
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 platform: str | None = None):
        self.path = Path(path) if path is not None else None
        self.platform = platform or platform_fingerprint()
        self.entries: dict[str, WisdomEntry] = {}
        # -- counters ---------------------------------------------------
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.saves = 0  # lines appended + compactions written
        self.save_errors = 0
        self.bytes_written = 0
        self.load_errors = 0  # bad lines skipped
        self.platform_mismatches = 0  # live entries of other platforms
        self.invalidated = 0
        self.evictions = 0
        if self.path is not None:
            self.load()

    # -- persistence ----------------------------------------------------

    def load(self) -> bool:
        """Replay the journal at ``path``; True iff entries were usable.

        The last line per ``(platform, key)`` wins and a tombstone
        deletes; only this store's platform is loaded.  A bad line — it
        does not verify, or its result is not a store record — is
        skipped and counted in ``load_errors``: it costs that line, not
        the store.  When dead lines outnumber live ones the live set is
        compacted into place, unless no store line verified at all.
        Never raises.
        """
        with _advisory_lock(self.path):
            lines, bad = read_journal(self.path)
            total = len(lines) + bad
            live: dict[tuple[Any, str], tuple[Any, WisdomEntry]] = {}
            for key, result in lines:
                try:
                    slot, raw = (result["platform"], key), result["entry"]
                    if raw is None:
                        live.pop(slot, None)
                    else:
                        live[slot] = (result, WisdomEntry.from_json(raw))
                except (KeyError, TypeError, ValueError):
                    bad += 1
            self.load_errors += bad
            self.entries = {key: entry
                            for (platform, key), (_, entry) in live.items()
                            if platform == self.platform}
            self.platform_mismatches += len(live) - len(self.entries)
            if bad < total and total > 2 * len(live):
                self._compact(live)
        return bool(self.entries)

    def _compact(self, live: dict) -> None:
        """Publish the live set whole (caller holds the lock); a failed
        write leaves the old journal whole and is counted."""
        data = b"".join(_journal_line(key, result)
                        for (_, key), (result, _) in live.items())
        try:
            atomic_write(self.path, data)
        except OSError:
            self.save_errors += 1
            return
        self.saves += 1
        self.bytes_written += len(data)

    def _append(self, key: str, entry: WisdomEntry | None) -> None:
        """Journal ``entry`` under ``key`` (None: a tombstone).

        A failure is counted in ``save_errors``, never raised — wisdom
        is an accelerator, and failing to persist it must never kill
        the search that produced it.
        """
        if self.path is None:
            return
        result = {"platform": self.platform,
                  "entry": None if entry is None else entry.to_json()}
        try:
            self.bytes_written += append_journal(self.path, key, result)
        except (OSError, TypeError, ValueError):
            self.save_errors += 1
            return
        self.saves += 1

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
        *evicted* (removed, and a tombstone journaled): stale plans,
        entries for codelets that no longer exist, or a tampered store
        never poison the caller twice.  Returns None as if the entry
        had never existed.
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
        key = wisdom_key(transform, n, options)
        del self.entries[key]
        self.evictions += 1
        self._append(key, None)
        return None

    def record(self, transform: str, n: int, options: object | None = None,
               *, formula: str, seconds: float, mflops: float,
               **meta: Any) -> WisdomEntry:
        """Remember a search outcome (one journal line when persistent)."""
        entry = WisdomEntry(transform=transform, n=n, formula=formula,
                            seconds=seconds, mflops=mflops, meta=dict(meta))
        key = wisdom_key(transform, n, options)
        self.entries[key] = entry
        self.stores += 1
        self._append(key, entry)
        return entry

    def invalidate(self, transform: str | None = None,
                   n: int | None = None) -> int:
        """Drop entries matching ``transform`` and/or ``n`` (None = all).

        Returns the number of entries removed; each gets a journaled
        tombstone, so entries other writers added since this store
        loaded survive.
        """
        doomed = [
            key for key, entry in self.entries.items()
            if (transform is None or entry.transform == transform)
            and (n is None or entry.n == n)
        ]
        for key in doomed:
            del self.entries[key]
            self._append(key, None)
        self.invalidated += len(doomed)
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
            "platform_mismatches": self.platform_mismatches,
            "invalidated": self.invalidated,
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
