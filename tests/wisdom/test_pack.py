"""Wisdom packs: build / verify / salvage / hot boot without a toolchain.

The failure matrix mirrors the store's crash-safety tests one level
up: flipped bytes cost exactly the entries they touch, foreign or
stale packs are rejected whole with typed diagnostics, and nothing in
:func:`load_pack` ever raises.  The headline robustness claim — a
replica with **no C compiler** serves its first request from a pack's
bundled artifacts on the C backend — is asserted with a test double
that makes the toolchain lookup fail, so any code path that still
shells out to gcc breaks loudly.
"""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np
import pytest

from repro.perfeval import ccompile
from repro.wisdom.keys import canonical_sha256, platform_fingerprint
from repro.wisdom.pack import (
    PACK_FORMAT,
    PACK_VERSION,
    PackDiagnostic,
    _payload_checksum,
    build_pack,
    inspect_pack,
    load_pack,
    verify_pack,
)
from repro.wisdom.store import WisdomStore

needs_cc = pytest.mark.skipif(not ccompile.have_c_compiler(),
                              reason="artifact bundling needs a C compiler")


def seeded_store(tmp_path, sizes=(4, 8)):
    store = WisdomStore(tmp_path / "wisdom.json")
    for n in sizes:
        store.record("fft-small", n, formula=f"(F {n})",
                     seconds=float(n), mflops=2.0)
    return store


def built_pack(tmp_path, sizes=(4, 8), **kwargs):
    store = seeded_store(tmp_path, sizes)
    pack_path = tmp_path / "wisdom.pack"
    kwargs.setdefault("include_artifacts", False)
    summary = build_pack(store, pack_path, **kwargs)
    return store, pack_path, summary


class TestBuildAndVerify:
    def test_round_trip_verifies_clean(self, tmp_path):
        _, pack_path, summary = built_pack(tmp_path)
        assert summary["entries"] == 2
        ok, diagnostics, info = verify_pack(pack_path)
        assert ok, diagnostics
        assert info["entries"] == 2
        assert info["platform"] == platform_fingerprint()

    def test_inspect_summarizes_without_judging(self, tmp_path):
        _, pack_path, _ = built_pack(tmp_path)
        info = inspect_pack(pack_path)
        assert info["format"] == PACK_FORMAT
        assert info["version"] == PACK_VERSION
        assert info["transforms"] == {"fft-small": [4, 8]}
        assert inspect_pack(tmp_path / "nope.pack")["error"].startswith(
            "[io]")

    def test_flipped_entry_byte_is_diagnosed(self, tmp_path):
        _, pack_path, _ = built_pack(tmp_path)
        data = json.loads(pack_path.read_text())
        key = sorted(data["entries"])[0]
        data["entries"][key]["entry"]["seconds"] = 0.0
        pack_path.write_text(json.dumps(data))
        ok, diagnostics, _ = verify_pack(pack_path)
        assert not ok
        kinds = {d.kind for d in diagnostics}
        assert kinds == {"pack-checksum", "entry"}


class TestLoadPackDegradation:
    def test_clean_pack_loads_everything(self, tmp_path):
        store, pack_path, _ = built_pack(tmp_path)
        result = load_pack(pack_path, install_artifacts=False)
        assert result.ok
        assert result.entries_loaded == 2
        assert len(result.store) == 2
        assert result.store.lookup("fft-small", 8) is not None
        # The pack store is read-only in spirit: there is no backing
        # path to append to.
        assert result.store.path is None

    def test_damaged_entry_is_salvaged_around(self, tmp_path):
        _, pack_path, _ = built_pack(tmp_path, sizes=(2, 4, 8))
        data = json.loads(pack_path.read_text())
        key = sorted(data["entries"])[0]
        data["entries"][key]["entry"]["seconds"] = 0.0
        pack_path.write_text(json.dumps(data))
        result = load_pack(pack_path, install_artifacts=False)
        assert result.store is not None
        assert result.entries_loaded == 2
        assert result.entries_skipped == 1
        kinds = {d.kind for d in result.diagnostics}
        assert kinds == {"pack-checksum", "entry"}

    def test_foreign_platform_rejected_whole(self, tmp_path):
        store = seeded_store(tmp_path)
        pack_path = tmp_path / "foreign.pack"
        build_pack(store, pack_path, include_artifacts=False,
                   platform="some-other-machine")
        result = load_pack(pack_path)
        assert result.store is None
        assert [d.kind for d in result.diagnostics] == ["platform"]
        ok, diagnostics, _ = verify_pack(pack_path)
        assert not ok
        assert any(d.kind == "platform" for d in diagnostics)

    def test_unknown_version_rejected_whole(self, tmp_path):
        _, pack_path, _ = built_pack(tmp_path)
        data = json.loads(pack_path.read_text())
        data["version"] = PACK_VERSION + 13
        pack_path.write_text(json.dumps(data))
        result = load_pack(pack_path)
        assert result.store is None
        assert [d.kind for d in result.diagnostics] == ["version"]

    def test_unreadable_and_non_json_never_raise(self, tmp_path):
        result = load_pack(tmp_path / "missing.pack")
        assert result.store is None
        assert [d.kind for d in result.diagnostics] == ["io"]
        garbage = tmp_path / "garbage.pack"
        garbage.write_text("not json {{{")
        result = load_pack(garbage)
        assert result.store is None
        assert [d.kind for d in result.diagnostics] == ["json"]
        not_ours = tmp_path / "other.pack"
        not_ours.write_text(json.dumps({"hello": "world"}))
        result = load_pack(not_ours)
        assert result.store is None
        assert [d.kind for d in result.diagnostics] == ["format"]

    def test_diagnostic_describe_is_typed(self):
        diagnostic = PackDiagnostic("platform", "wrong host")
        assert diagnostic.describe() == "[platform] wrong host"


def _unparseable_but_sealed(data):
    raw = data["entries"]["K1"]["entry"]
    raw["n"] = "eight"
    data["entries"]["K1"]["sha256"] = canonical_sha256(raw)


#: name -> (what to do to the manifest, the (kind, key) findings it must
#: produce).  Unless the whole-pack checksum is itself the finding, the
#: pack is resealed so the damage is the only thing wrong with it.
CORRUPTIONS = {
    "flipped-entry-byte": (
        lambda d: d["entries"]["K0"]["entry"].update(seconds=0.0),
        {("pack-checksum", ""), ("entry", "K0")}),
    "entry-not-a-record": (
        lambda d: d["entries"].update(K0=None), {("entry", "K0")}),
    "entry-without-checksum": (
        lambda d: d["entries"]["K1"].pop("sha256"), {("entry", "K1")}),
    "entry-unparseable": (_unparseable_but_sealed, {("entry", "K1")}),
    "entries-missing": (lambda d: d.pop("entries"), {("entry", "")}),
    "artifacts-not-a-table": (
        lambda d: d.update(artifacts=["spl_a.so"]), {("artifact", "")}),
    "artifact-bad-base64": (
        lambda d: d["artifacts"]["A0"].update(data="!!not base64!!"),
        {("artifact", "A0")}),
    "artifact-wrong-bytes": (
        lambda d: d["artifacts"]["A1"].update(
            data=base64.b64encode(b"tampered").decode("ascii")),
        {("artifact", "A1")}),
    "artifact-without-data": (
        lambda d: d["artifacts"]["A0"].pop("data"), {("artifact", "A0")}),
    "stale-pack-checksum": (
        lambda d: d.update(platform_info="edited after sealing"),
        {("pack-checksum", "")}),
}


class TestVerifyAndLoadAgree:
    """``verify_pack`` and ``load_pack`` consume one manifest walk, so
    whatever is wrong with a pack they name the same damaged pieces."""

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_same_kind_and_key_diagnostics(self, name, tmp_path):
        corrupt, expected = CORRUPTIONS[name]
        _, pack_path, _ = built_pack(tmp_path)
        data = json.loads(pack_path.read_text())
        # Stable names, and two (fake) artifacts so the artifact half
        # of the walk runs without a C compiler.
        data["entries"] = {f"K{i}": wrapped for i, (_, wrapped)
                           in enumerate(sorted(data["entries"].items()))}
        data["artifacts"] = {
            f"A{i}": {"sha256": hashlib.sha256(blob).hexdigest(),
                      "data": base64.b64encode(blob).decode("ascii")}
            for i, blob in enumerate((b"first", b"second"))}
        data["checksum"] = _payload_checksum(data)
        corrupt(data)
        if ("pack-checksum", "") not in expected:
            data["checksum"] = _payload_checksum(data)
        pack_path.write_text(json.dumps(data))

        ok, verified, _ = verify_pack(pack_path)
        loaded = load_pack(pack_path, build_dir=tmp_path / "build")
        assert not ok and not loaded.ok
        assert {(d.kind, d.key) for d in verified} == expected
        assert {(d.kind, d.key) for d in loaded.diagnostics} == expected
        # Damage costs exactly the pieces it touched.
        damaged_entries = sum(1 for kind, key in expected
                              if kind == "entry" and key)
        assert loaded.entries_skipped == damaged_entries
        if ("entry", "") not in expected:
            assert loaded.entries_loaded == 2 - damaged_entries


@needs_cc
class TestArtifacts:
    def test_artifacts_bundle_and_verify(self, tmp_path):
        _, pack_path, summary = built_pack(tmp_path,
                                           include_artifacts=True)
        assert summary["artifacts"] >= 1
        ok, diagnostics, info = verify_pack(pack_path)
        assert ok, diagnostics
        assert info["artifacts"] == summary["artifacts"]

    def test_corrupt_artifact_skipped_entries_survive(self, tmp_path):
        _, pack_path, _ = built_pack(tmp_path, include_artifacts=True)
        data = json.loads(pack_path.read_text())
        digest = sorted(data["artifacts"])[0]
        blob = base64.b64decode(data["artifacts"][digest]["data"])
        data["artifacts"][digest]["data"] = base64.b64encode(
            b"\x00" + blob[1:]).decode("ascii")
        pack_path.write_text(json.dumps(data))
        target = tmp_path / "build"
        target.mkdir()
        result = load_pack(pack_path, build_dir=target)
        assert result.store is not None
        assert result.entries_loaded == 2
        assert result.artifacts_skipped >= 1
        assert any(d.kind == "artifact" for d in result.diagnostics)
        assert not (target / f"spl_{digest}.so").exists()

    def test_hot_boot_serves_c_backend_without_toolchain(
            self, tmp_path, monkeypatch):
        """The acceptance test: ``spl pack build`` on a host with gcc,
        then a consumer whose toolchain lookup is a failing double
        still serves the packed route on the C backend — first request,
        no search, no compiler."""
        from repro.core.compiler import CompilerOptions, SplCompiler
        from repro.search.dp import SMALL_TRANSFORM
        from repro.serve.plans import PlanKey, PlanRegistry

        n = 8
        # Producer: a search winner for fft:8 plus its compiled
        # portable artifact (what the CI pack job ships).
        store = WisdomStore(tmp_path / "wisdom.json")
        options = SplCompiler(CompilerOptions(
            unroll=True, optimize="default", datatype="complex",
            codetype="real", language="c")).options
        store.record(SMALL_TRANSFORM, n, options, formula=f"(F {n})",
                     seconds=1e-6, mflops=100.0)
        pack_path = tmp_path / "wisdom.pack"
        summary = build_pack(store, pack_path, include_artifacts=True)
        assert summary["artifacts"] >= 1

        # Consumer: fresh shared-object cache, *no* C compiler.
        build_dir = tmp_path / "consumer-build"
        build_dir.mkdir()
        monkeypatch.setenv("SPL_BUILD_DIR", str(build_dir))
        monkeypatch.setattr(ccompile, "_find_compiler", lambda: None)
        assert not ccompile.have_c_compiler()

        result = load_pack(pack_path, build_dir=build_dir)
        assert result.ok, [d.describe() for d in result.diagnostics]
        assert result.artifacts_installed == summary["artifacts"]

        registry = PlanRegistry(prefer="c", wisdom=result.store,
                                wisdom_source="pack")
        plan = registry.get(PlanKey(transform="fft", n=n,
                                    dtype="complex128"))
        assert plan.from_wisdom
        assert plan.executable.backend == "c"
        x = np.random.default_rng(3).standard_normal(n) \
            + 1j * np.random.default_rng(4).standard_normal(n)
        np.testing.assert_allclose(plan.executable.apply(x),
                                   np.fft.fft(x), atol=1e-9)
        assert registry.stats()["wisdom_boots"] == 1
        assert registry.stats()["wisdom_source"] == "pack"
