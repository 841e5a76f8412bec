"""Boot-time pack consumption and the supervisor status file.

The serving-side halves of the wisdom-pack contract: ``spl serve
--pack`` must *never* crash at boot because of a bad pack — corrupt,
foreign, garbage, missing — it prints typed diagnostics and degrades
(to ``--wisdom``, then to no wisdom at all); and ``--status-file``
publishes the supervisor's fleet state as atomically-replaced JSON an
orchestrator can poll without parsing logs.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import time

import numpy as np
import pytest

from repro.perfeval import ccompile, jit
from repro.serve.plans import PlanKey, PlanRegistry
from repro.serve.supervisor import (
    RestartBudget,
    ServeConfig,
    Supervisor,
    _boot_wisdom,
    build_server,
    fork_supported,
)
from repro.wisdom.pack import build_pack, load_pack
from repro.wisdom.store import WisdomStore

from tests.conftest import requires_cc
from tests.serve.fleet import FleetProcess

needs_fork = pytest.mark.skipif(
    not fork_supported(),
    reason="the supervisor needs fork and SO_REUSEPORT")


def _c_pack(tmp_path, monkeypatch, n: int):
    """A pack carrying the C artifact of one ``fft:n`` search winner,
    built into a producer build dir of its own."""
    from repro.core.compiler import CompilerOptions, SplCompiler
    from repro.search.dp import SMALL_TRANSFORM

    store = WisdomStore(tmp_path / "wisdom.json")
    options = SplCompiler(CompilerOptions(
        unroll=True, optimize="default", datatype="complex",
        codetype="real", language="c")).options
    store.record(SMALL_TRANSFORM, n, options,
                 formula=f"(F {n})", seconds=1e-6, mflops=100.0)
    pack_path = tmp_path / "wisdom.pack"
    monkeypatch.setenv("SPL_BUILD_DIR", str(tmp_path / "producer-build"))
    assert build_pack(store, pack_path)["artifacts"] >= 1
    return pack_path


def _serve(registry, n: int):
    plan = registry.get(PlanKey("fft", n, "complex128"))
    rng = np.random.default_rng(5)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    np.testing.assert_allclose(plan.executable.apply(x), np.fft.fft(x),
                               atol=1e-9)
    return plan


def _seeded(tmp_path):
    store = WisdomStore(tmp_path / "wisdom.json")
    store.record("fft-small", 8, formula="(F 8)", seconds=1.0,
                 mflops=2.0)
    pack_path = tmp_path / "wisdom.pack"
    build_pack(store, pack_path, include_artifacts=False)
    return store, pack_path


class TestBootWisdom:
    def test_no_sources_serves_without_wisdom(self):
        wisdom, source = _boot_wisdom(ServeConfig())
        assert wisdom is None and source == "none"

    def test_wisdom_path_loads_the_store(self, tmp_path):
        store, _ = _seeded(tmp_path)
        wisdom, source = _boot_wisdom(
            ServeConfig(wisdom_path=str(store.path)))
        assert source == "store"
        assert wisdom.lookup("fft-small", 8) is not None

    def test_pack_preferred_over_store(self, tmp_path):
        store, pack_path = _seeded(tmp_path)
        wisdom, source = _boot_wisdom(ServeConfig(
            wisdom_path=str(store.path), pack_path=str(pack_path)))
        assert source == "pack"
        assert len(wisdom) == 1
        assert wisdom.path is None  # the read-only in-memory pack store

    def test_corrupt_pack_degrades_to_store(self, tmp_path, capsys):
        store, pack_path = _seeded(tmp_path)
        pack_path.write_text("garbage {{{")
        wisdom, source = _boot_wisdom(ServeConfig(
            wisdom_path=str(store.path), pack_path=str(pack_path)))
        assert source == "store"
        assert wisdom.lookup("fft-small", 8) is not None
        err = capsys.readouterr().err
        assert "[json]" in err
        assert "degrading" in err

    def test_foreign_pack_degrades_to_no_wisdom(self, tmp_path, capsys):
        store, pack_path = _seeded(tmp_path)
        build_pack(store, pack_path, include_artifacts=False,
                   platform="alien-host")
        wisdom, source = _boot_wisdom(
            ServeConfig(pack_path=str(pack_path)))
        assert wisdom is None and source == "none"
        assert "[platform]" in capsys.readouterr().err

    def test_pack_for_another_isa_is_refused(self, tmp_path, capsys,
                                             monkeypatch):
        # Same CPU model string, caches and OS, but the pack's ISA has
        # a feature this host lacks: its artifacts could die on SIGILL.
        host = ccompile.host_isa() or ()
        foreign = tuple(sorted({*host, "spl_test_feature"}))
        monkeypatch.setattr(ccompile, "host_isa", lambda: foreign)
        _, pack_path = _seeded(tmp_path)
        monkeypatch.undo()
        wisdom, source = _boot_wisdom(
            ServeConfig(pack_path=str(pack_path)))
        assert wisdom is None and source == "none"
        err = capsys.readouterr().err
        assert "[platform]" in err
        assert "this host lacks spl_test_feature" in err

    def test_missing_pack_never_crashes(self, tmp_path, capsys):
        wisdom, source = _boot_wisdom(ServeConfig(
            pack_path=str(tmp_path / "never-shipped.pack")))
        assert wisdom is None and source == "none"
        assert "[io]" in capsys.readouterr().err

    def test_build_server_survives_every_bad_pack(self, tmp_path):
        # The whole point: a damaged deployment artifact must not turn
        # into a crashed boot.  build_server (no listener started) must
        # return a working server for each failure mode.
        cases = {
            "missing.pack": None,
            "garbage.pack": "not json",
            "truncated.pack": None,
        }
        store, pack_path = _seeded(tmp_path)
        cases["truncated.pack"] = pack_path.read_text()[:40]
        for name, text in cases.items():
            path = tmp_path / name
            if text is not None:
                path.write_text(text)
            server = build_server(ServeConfig(
                pack_path=str(path), prefer="numpy"))
            stats = server.registry.stats()
            assert stats["wisdom_source"] == "none", name
            assert not stats["wisdom_attached"], name

    def test_registry_stats_carry_wisdom_source(self):
        assert PlanRegistry(prefer="numpy").stats()[
            "wisdom_source"] == "none"
        registry = PlanRegistry(
            prefer="numpy", wisdom=WisdomStore(None))
        assert registry.stats()["wisdom_source"] == "store"
        registry = PlanRegistry(
            prefer="numpy", wisdom=WisdomStore(None),
            wisdom_source="pack")
        assert registry.stats()["wisdom_source"] == "pack"


class TestDefaultRegistryOnABareHost:
    """No compiler and no JIT: the default registry must still open a
    pack's installed artifacts (it used to pick NumPy without looking)
    and fall through to NumPy only when there is nothing to open."""

    N = 8

    def _bare_host(self, tmp_path, monkeypatch):
        build_dir = tmp_path / "consumer-build"
        build_dir.mkdir()
        monkeypatch.setenv("SPL_BUILD_DIR", str(build_dir))
        monkeypatch.setattr(ccompile, "_find_compiler", lambda: None)
        monkeypatch.setattr(jit, "jit_supported", lambda: False)
        return build_dir

    @requires_cc
    def test_installed_artifact_is_served_on_c(self, tmp_path,
                                               monkeypatch):
        pack_path = _c_pack(tmp_path, monkeypatch, self.N)
        build_dir = self._bare_host(tmp_path, monkeypatch)
        result = load_pack(pack_path, build_dir=build_dir)
        assert result.ok and result.artifacts_installed >= 1
        registry = PlanRegistry(wisdom=result.store, wisdom_source="pack")
        assert registry.prefer == "c"
        plan = _serve(registry, self.N)
        assert plan.from_wisdom
        assert plan.executable.backend == "c"

    def test_nothing_installed_falls_through_to_numpy(self, tmp_path,
                                                      monkeypatch):
        self._bare_host(tmp_path, monkeypatch)
        registry = PlanRegistry()
        assert registry.prefer == "c"
        assert _serve(registry, self.N).executable.backend == "numpy"

    def test_cjit_is_refused_like_an_unknown_name(self):
        from repro.core.errors import SplSemanticError

        for name in ("cjit", "fortran"):
            with pytest.raises(SplSemanticError, match="prefer must be"):
                PlanRegistry(prefer=name)


@requires_cc
class TestPackOnTheHostThatBuiltIt:
    def test_boots_hot_with_no_compiler_run(self, tmp_path, monkeypatch):
        """A routine has one C build on every host, so the artifact a
        gcc host bundles is also the one it asks for when it boots
        from its own pack: no gcc run, not even a toolchain probe."""
        pack_path = _c_pack(tmp_path, monkeypatch, 16)
        build_dir = tmp_path / "consumer-build"
        build_dir.mkdir()
        monkeypatch.setenv("SPL_BUILD_DIR", str(build_dir))
        result = load_pack(pack_path, build_dir=build_dir)
        assert result.ok and result.artifacts_installed >= 1
        runs = []
        real_run = subprocess.run

        def counting_run(argv, *args, **kwargs):
            runs.append(argv)
            return real_run(argv, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        plan = _serve(PlanRegistry(wisdom=result.store,
                                   wisdom_source="pack"), 16)
        assert plan.from_wisdom and plan.executable.backend == "c"
        assert runs == []


@needs_fork
class TestStatusFilePublishing:
    def _supervisor(self, tmp_path, **kwargs):
        return Supervisor(ServeConfig(), workers=2,
                          status_file=str(tmp_path / "status.json"),
                          **kwargs)

    def test_status_includes_budget_and_slots(self, tmp_path):
        sup = self._supervisor(
            tmp_path, budget=RestartBudget(budget=4, window_s=30.0))
        status = sup.status()
        assert status["workers"] == 2
        assert status["budget_remaining"] == 4
        assert not status["stopping"]
        assert [s["index"] for s in status["slots"]] == [0, 1]
        assert all(s["state"] == "down" for s in status["slots"])

    def test_publish_is_atomic_json_and_change_driven(self, tmp_path):
        sup = self._supervisor(tmp_path)
        sup._maybe_publish_status()
        path = tmp_path / "status.json"
        first = json.loads(path.read_text())
        assert first["workers"] == 2
        stamp = os.path.getmtime(path)
        time.sleep(0.02)
        sup._maybe_publish_status()  # nothing changed: no rewrite
        assert os.path.getmtime(path) == stamp
        sup.crashes += 1
        sup._maybe_publish_status()
        assert json.loads(path.read_text())["crashes"] == 1
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_unwritable_status_file_never_raises(self, tmp_path):
        sup = Supervisor(ServeConfig(), workers=1,
                         status_file=str(tmp_path))  # a directory
        sup._maybe_publish_status()  # logged, not fatal


@needs_fork
class TestStatusFileLive:
    def test_fleet_publishes_ready_then_stopped(self, tmp_path):
        status_path = tmp_path / "status.json"
        with FleetProcess(workers=2, warm=(),
                          extra_args=("--status-file",
                                      str(status_path))) as fleet:
            deadline = time.monotonic() + 30
            doc = {}
            while time.monotonic() < deadline:
                if status_path.exists():
                    doc = json.loads(status_path.read_text())
                    if doc.get("ready") == 2:
                        break
                time.sleep(0.05)
            assert doc.get("ready") == 2, doc
            assert doc["workers"] == 2
            assert {s["state"] for s in doc["slots"]} == {"ready"}
            fleet.signal(signal.SIGTERM)
            assert fleet.proc.wait(timeout=60) == 0
        final = json.loads(status_path.read_text())
        assert final["stopping"]
        assert final["alive"] == 0
        assert {s["state"] for s in final["slots"]} == {"stopped"}
