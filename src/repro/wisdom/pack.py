"""Deployable wisdom packs: FFTW's wisdom model at fleet scale.

A *pack* is a single JSON manifest that ships everything a replica
needs to serve its first request hot: the wisdom entries (search
winners), a platform fingerprint saying where they are valid, and —
optionally — the compiled shared objects themselves, keyed by the
exact :func:`repro.perfeval.ccompile.shared_object_cache_key` digest a
booting :class:`~repro.serve.plans.PlanRegistry` will ask for.  A
gcc-less replica that installs those artifacts into its build dir
cache-hits on first compile and never invokes a toolchain or a
search.

Integrity is layered so damage degrades instead of spreading:

* every entry carries its own SHA-256, and the whole pack carries one
  over the canonical payload — a flipped byte invalidates exactly the
  entries it touched, and the rest of the pack is *salvaged*;
* a foreign-platform or unknown-version pack is rejected whole with a
  typed :class:`PackDiagnostic` — the consumer falls back to
  search/estimate-on-demand.  "Foreign" is judged on two levels: an
  exact platform-fingerprint match is ideal, but a pack whose
  *hardware* fingerprint (CPU, caches, OS, ISA features) matches is
  accepted even when the toolchain inventory differs — a replica with
  no C compiler is precisely the consumer packs exist for.  Artifacts
  are built for the producer's ISA, so a host with another feature
  set refuses the pack, naming the features it lacks;
* :func:`load_pack` **never raises**: every failure mode returns
  diagnostics and counters, because a bad pack on disk must never
  turn into a crashed boot.

A routine has one build on every host (the source and flags of
:func:`repro.perfeval.runner.c_build_spec`), so a bundled artifact is
exactly the digest any consumer computes: a toolchain-less replica and
the gcc host that built the pack both boot from it without compiling.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.wisdom.keys import (
    canonical_sha256,
    hardware_fingerprint,
    platform_description,
    platform_fingerprint,
)
from repro.wisdom.store import (
    WISDOM_VERSION,
    WisdomEntry,
    WisdomStore,
    atomic_write,
)

PACK_FORMAT = "spl-wisdom-pack"
PACK_VERSION = 1

#: Diagnostic kinds, roughly ordered from "the file is not a pack" to
#: "one piece of an otherwise good pack is damaged".
DIAGNOSTIC_KINDS = ("io", "json", "format", "version", "platform",
                    "pack-checksum", "entry", "artifact")


def _payload_checksum(payload: dict) -> str:
    """The whole-pack checksum: everything except the checksum field."""
    return canonical_sha256({key: value for key, value in payload.items()
                             if key != "checksum"})


@dataclass(frozen=True)
class PackDiagnostic:
    """One typed integrity/compatibility finding; never an exception."""

    kind: str  # one of DIAGNOSTIC_KINDS
    detail: str
    key: str = ""  # the damaged entry key / artifact digest; "" = whole pack

    def describe(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class PackLoadResult:
    """What :func:`load_pack` recovered, plus why anything was lost.

    ``store`` is an in-memory read-only :class:`WisdomStore` holding
    the verified entries — or None when the pack was unusable as a
    whole (unreadable, foreign platform, unknown version): the caller
    should then serve with whatever wisdom it already had, or none.
    """

    store: WisdomStore | None = None
    diagnostics: list[PackDiagnostic] = field(default_factory=list)
    entries_loaded: int = 0
    entries_skipped: int = 0
    artifacts_installed: int = 0
    artifacts_skipped: int = 0

    @property
    def ok(self) -> bool:
        return self.store is not None and not self.diagnostics


# ---------------------------------------------------------------------------
# Building.
# ---------------------------------------------------------------------------


def _registry_build_inputs(entry: WisdomEntry):
    """(source, cflags) a booting registry will ask the shared-object
    cache for, or None.

    The routine comes from :func:`repro.serve.plans.compile_plan`, the
    function :meth:`~repro.serve.plans.PlanRegistry.get` itself calls,
    so the bundled artifact cannot drift into a cache miss.
    """
    from repro.core.parser import parse_formula_text
    from repro.perfeval.runner import c_build_spec
    from repro.search.dp import SMALL_TRANSFORM
    from repro.serve.plans import compile_plan

    if entry.transform != SMALL_TRANSFORM:
        return None
    routine = compile_plan(
        {}, parse_formula_text(entry.formula, {}), "fft", entry.n,
        datatype="complex", threshold=entry.meta.get("unroll_threshold"),
        language="c")
    return c_build_spec(routine)


def build_pack(store: WisdomStore, out_path: str | os.PathLike, *,
               include_artifacts: bool = True,
               platform: str | None = None) -> dict[str, Any]:
    """Export ``store`` as a pack file; returns a build summary.

    Artifacts are compiled on the spot for every FFT search winner; a
    host without a C compiler — or an entry whose formula no longer
    compiles — skips that artifact (counted) and still ships the
    wisdom itself.
    """
    from repro.perfeval import ccompile

    entries: dict[str, Any] = {}
    artifacts: dict[str, Any] = {}
    artifacts_skipped = 0
    for key, entry in sorted(store.entries.items()):
        raw = entry.to_json()
        entries[key] = {"entry": raw, "sha256": canonical_sha256(raw)}
        if not include_artifacts:
            continue
        try:
            spec = _registry_build_inputs(entry)
            if spec is None:
                continue
            source, cflags = spec
            digest = ccompile.shared_object_cache_key(source, cflags=cflags)
            if digest in artifacts:
                continue
            data = ccompile.compile_shared_object(
                source, cflags=cflags).read_bytes()
        except Exception:  # noqa: BLE001 - artifact optional
            artifacts_skipped += 1
            continue
        artifacts[digest] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "data": base64.b64encode(data).decode("ascii"),
            "meta": {"transform": entry.transform, "n": entry.n,
                     "unroll_threshold":
                         entry.meta.get("unroll_threshold")},
        }

    payload = {
        "format": PACK_FORMAT,
        "version": PACK_VERSION,
        "wisdom_version": WISDOM_VERSION,
        "platform": platform or store.platform,
        # The hardware-only fingerprint is the *portable* validity
        # domain: a consumer whose toolchain differs (most importantly:
        # has none) still accepts the pack when the hardware matches.
        # An explicit ``platform`` override marks the pack foreign on
        # both levels — that is what the override is for.
        "hardware": platform or hardware_fingerprint(),
        "platform_info": platform_description(),
        # The features the bundled artifacts were built for, so that a
        # refusing host can say which ones it lacks.
        "isa": list(ccompile.host_isa() or ()),
        "entries": entries,
        "artifacts": artifacts,
    }
    payload["checksum"] = _payload_checksum(payload)
    text = json.dumps(payload, indent=1, sort_keys=True)
    atomic_write(out_path, text)
    return {
        "path": str(out_path),
        "entries": len(entries),
        "artifacts": len(artifacts),
        "artifacts_skipped": artifacts_skipped,
        "bytes": len(text.encode()),
        "platform": payload["platform"],
    }


# ---------------------------------------------------------------------------
# Reading / verification / loading.
# ---------------------------------------------------------------------------


def _read_manifest(path: str | os.PathLike,
                   ) -> tuple[dict | None, PackDiagnostic | None]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None, PackDiagnostic("io", f"pack not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        return None, PackDiagnostic("io", f"cannot read pack: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, PackDiagnostic("json", f"pack is not JSON: {exc}")
    if not isinstance(data, dict) or data.get("format") != PACK_FORMAT:
        return None, PackDiagnostic(
            "format", "not a wisdom pack (missing format marker)")
    if data.get("version") != PACK_VERSION:
        return None, PackDiagnostic(
            "version",
            f"pack version {data.get('version')!r} is not the "
            f"supported {PACK_VERSION} (rebuild the pack)")
    return data, None


def _table(value: Any) -> dict:
    """``value`` when it is a JSON table, else an empty one: summaries
    must not trip over a manifest the walk will diagnose."""
    return value if isinstance(value, dict) else {}


def _platform_mismatch(data: dict, platform: str | None,
                       ) -> PackDiagnostic | None:
    """The typed rejection when the pack fits this host nowhere.

    Acceptance is layered: an exact platform-fingerprint match is
    ideal; failing that, a matching *hardware* fingerprint (same CPU,
    caches, OS and ISA — but, say, no C compiler on this replica) still
    accepts the pack, because its artifacts are the one build every
    host asks for.  Only a pack alien on both levels is rejected.
    """
    local = platform or platform_fingerprint()
    if data.get("platform") == local:
        return None
    local_hw = platform or hardware_fingerprint()
    pack_hw = data.get("hardware")
    if pack_hw == local_hw:
        return None
    return PackDiagnostic(
        "platform",
        f"pack built for platform {data.get('platform')!r} "
        f"(hardware {pack_hw!r}), this host is {local!r} "
        f"(hardware {local_hw!r}){_isa_gap(data.get('isa'))}")


def _isa_gap(pack_isa: Any) -> str:
    """What a refusal adds about the ISA: the pack's features this
    host lacks (its artifacts could die on them with ``SIGILL``)."""
    from repro.perfeval.ccompile import host_isa

    if not isinstance(pack_isa, list):
        return ""
    lacking = sorted(set(map(str, pack_isa)) - set(host_isa() or ()))
    return f"; this host lacks {' '.join(lacking)}" if lacking else ""


def _walk_manifest(data: dict, platform: str | None, *,
                   artifacts: bool = True,
                   ) -> Iterator[PackDiagnostic | tuple[str, str, Any]]:
    """Every check a parsed manifest gets, in one place; never raises.

    Yields a :class:`PackDiagnostic` per finding (platform first, then
    the whole-pack checksum, then entries, then artifacts) and, per
    piece that verifies, ``("entry", key, WisdomEntry)`` or
    ``("artifact", digest, bytes)``.  The consumer decides what a
    finding costs: :func:`verify_pack` collects them all,
    :func:`load_pack` stops at a foreign platform and salvages around
    the rest.
    """
    mismatch = _platform_mismatch(data, platform)
    if mismatch is not None:
        yield mismatch
    if data.get("checksum") != _payload_checksum(data):
        yield PackDiagnostic(
            "pack-checksum", "whole-pack checksum mismatch (truncated or "
            "tampered file); only entries whose own checksums verify "
            "are usable")
    entries = data.get("entries")
    if not isinstance(entries, dict):
        yield PackDiagnostic("entry", "entries table missing")
    for key, wrapped in _table(entries).items():
        try:
            raw, sha = wrapped["entry"], wrapped["sha256"]
            if canonical_sha256(raw) != sha:
                raise ValueError("checksum mismatch")
            entry = WisdomEntry.from_json(raw)
        except Exception as exc:  # noqa: BLE001 - diagnose, go on
            yield PackDiagnostic("entry", f"bad entry {key!r}: {exc!r}",
                                 key)
            continue
        yield "entry", key, entry
    records = data.get("artifacts") if artifacts else None
    if records is not None and not isinstance(records, dict):
        yield PackDiagnostic("artifact", "artifacts table malformed")
    for digest, record in _table(records).items():
        try:
            blob = base64.b64decode(record["data"], validate=True)
            if hashlib.sha256(blob).hexdigest() != record["sha256"]:
                raise ValueError("checksum mismatch")
        except Exception as exc:  # noqa: BLE001 - diagnose, go on
            yield PackDiagnostic(
                "artifact", f"bad artifact {digest!r}: {exc!r}", digest)
            continue
        yield "artifact", digest, blob


def verify_pack(path: str | os.PathLike, *, platform: str | None = None,
                ) -> tuple[bool, list[PackDiagnostic], dict[str, Any]]:
    """Full integrity check: ``(ok, diagnostics, info)``; never raises.

    ``ok`` means byte-perfect *and* valid on this platform.  ``info``
    is the manifest summary of :func:`inspect_pack`, given even when
    verification fails, so operators can see what they are holding.
    """
    data, fatal = _read_manifest(path)
    if data is None:
        return False, [fatal], {}
    diagnostics = [item for item in _walk_manifest(data, platform)
                   if isinstance(item, PackDiagnostic)]
    return not diagnostics, diagnostics, _summary(path, data)


def inspect_pack(path: str | os.PathLike) -> dict[str, Any]:
    """The pack's manifest summary (no integrity verdicts beyond
    parseability); unusable files come back as ``{"error": ...}``."""
    data, fatal = _read_manifest(path)
    return ({"error": fatal.describe()} if data is None
            else _summary(path, data))


def _summary(path: str | os.PathLike, data: dict) -> dict[str, Any]:
    entries = _table(data.get("entries"))
    per_transform: dict[str, list[int]] = {}
    for wrapped in entries.values():
        raw = _table(_table(wrapped).get("entry"))
        transform = str(raw.get("transform"))
        per_transform.setdefault(transform, []).append(raw.get("n"))
    for sizes in per_transform.values():
        sizes.sort(key=lambda v: (not isinstance(v, int), v))
    artifacts = _table(data.get("artifacts"))
    return {
        "path": str(path),
        "format": data.get("format"),
        "version": data.get("version"),
        "wisdom_version": data.get("wisdom_version"),
        "platform": data.get("platform"),
        "hardware": data.get("hardware"),
        "platform_info": data.get("platform_info"),
        "entries": len(entries),
        "transforms": per_transform,
        "artifacts": len(artifacts),
        "artifact_bytes": sum(
            len(str(_table(record).get("data") or "")) * 3 // 4
            for record in artifacts.values()),
        "local_platform": platform_fingerprint(),
        "local_hardware": hardware_fingerprint(),
    }


def _install_artifact(build_dir: str | os.PathLike | None, digest: str,
                      blob: bytes) -> bool:
    """Atomically publish one ``.so`` into the shared-object cache
    (``build_dir`` None: the default one)."""
    from repro.perfeval import ccompile

    so_path = (Path(build_dir) if build_dir is not None
               else ccompile.default_build_dir()) / f"spl_{digest}.so"
    if so_path.exists():
        return False  # already cached (possibly locally compiled)
    atomic_write(so_path, blob)
    try:
        so_path.chmod(0o755)
    except OSError:  # pragma: no cover
        pass
    return True


def load_pack(path: str | os.PathLike, *, platform: str | None = None,
              install_artifacts: bool = True,
              build_dir: str | os.PathLike | None = None,
              ) -> PackLoadResult:
    """Consume a pack for serving; graceful under every failure mode.

    Returns a :class:`PackLoadResult` whose ``store`` holds the
    entries that survived verification — or None when the pack is
    unusable as a whole (unreadable/foreign/unknown-version), in which
    case the caller degrades to search-on-demand.  A failed whole-pack
    checksum does *not* reject the pack outright: entries whose own
    checksums still verify are salvaged (the damage is counted and
    diagnosed), so one flipped byte costs one entry, not the fleet's
    warm boot.  Never raises.
    """
    result = PackLoadResult()
    data, fatal = _read_manifest(path)
    if data is None:
        result.diagnostics.append(fatal)
        return result
    store = WisdomStore(None, platform=platform or platform_fingerprint())
    for item in _walk_manifest(data, platform, artifacts=install_artifacts):
        if isinstance(item, PackDiagnostic):
            result.diagnostics.append(item)
            if item.kind == "platform":
                return result  # foreign: no store, search on demand
            if item.key:
                if item.kind == "entry":
                    result.entries_skipped += 1
                else:
                    result.artifacts_skipped += 1
            continue
        kind, key, value = item
        if kind == "entry":
            store.entries[key] = value
            result.entries_loaded += 1
            continue
        try:
            if _install_artifact(build_dir, key, value):
                result.artifacts_installed += 1
        except Exception as exc:  # noqa: BLE001 - never fail the boot
            result.artifacts_skipped += 1
            result.diagnostics.append(PackDiagnostic(
                "artifact", f"cannot install artifact {key!r}: {exc}",
                key))
    result.store = store
    return result
