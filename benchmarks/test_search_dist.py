"""Leased-worker search + wisdom-pack smoke: the deployment round trip.

A small but *real* end-to-end run of the fault-tolerant offline
pipeline (everything compiled and timed by the host toolchain, no
stubs):

1. small-size search on two forked leased workers, with
   chaos-injected worker SIGKILLs and a completion journal;
2. a second run replaying entirely from wisdom (zero re-measurement);
3. ``pack build`` -> ``pack verify`` on the search's wisdom store,
   bundling the compiled portable artifacts;
4. a hot boot on a simulated toolchain-less replica: the pack's
   artifacts serve the first request on the C backend with the
   compiler lookup stubbed to fail.

Skips (never fails) on hosts without POSIX fork or a C compiler,
matching the chaos-smoke convention.  The record lands in
``benchmarks/results/BENCH_search_dist.txt``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perfeval import ccompile
from repro.perfeval.sandbox import (
    Quarantine,
    SandboxPolicy,
    sandbox_supported,
)
from repro.search.dp import search_small_sizes
from repro.search.queue import SEARCH_CHAOS_ENV, SearchChaos, TaskJournal
from repro.serve.plans import PlanKey, PlanRegistry
from repro.wisdom.pack import build_pack, load_pack, verify_pack
from repro.wisdom.store import WisdomStore

from conftest import requires_cc, write_results

requires_fork = pytest.mark.skipif(
    not sandbox_supported(), reason="leased workers need POSIX fork")

SIZES = (2, 4, 8)
CHAOS = SearchChaos(kill_rate=0.3, kill_attempts=1, seed=3)
POLICY = SandboxPolicy(timeout=60.0, heartbeat_interval=0.05,
                       heartbeat_timeout=20.0, max_attempts=3,
                       backoff=0.02)


@requires_cc
@requires_fork
def test_search_dist_smoke(tmp_path, monkeypatch):
    lines = ["leased-worker search + pack round trip",
             f"sizes={SIZES} jobs=2 chaos={CHAOS.to_spec()}"]

    # 1. Search on two leased workers under injected worker kills.
    monkeypatch.setenv(SEARCH_CHAOS_ENV, CHAOS.to_spec())
    wisdom = WisdomStore(tmp_path / "wisdom.json")
    journal_path = tmp_path / "journal.jsonl"
    results = search_small_sizes(
        SIZES, jobs=2, sandbox=POLICY, wisdom=wisdom,
        journal_path=str(journal_path), quarantine=Quarantine(),
        min_time=0.002)
    for n in SIZES:
        result = results[n]
        assert not result.from_wisdom
        lines.append(f"n={n}: {result.formula.to_spl()} "
                     f"{result.seconds * 1e6:.1f}us "
                     f"({result.candidates_tried} candidates)")
    replay = TaskJournal(journal_path).replay()
    expected = sum(results[n].candidates_tried for n in SIZES)
    assert len(replay.results) == expected
    assert replay.duplicate_keys == 0
    lines.append(f"journal: {len(replay.results)} records, "
                 f"0 duplicates")

    # 2. A rerun replays wisdom: zero candidates re-measured.
    again = search_small_sizes(
        SIZES, jobs=2, sandbox=POLICY, wisdom=wisdom,
        quarantine=Quarantine(), min_time=0.002)
    assert all(again[n].from_wisdom for n in SIZES)
    assert all(again[n].formula.to_spl() == results[n].formula.to_spl()
               for n in SIZES)
    lines.append("wisdom replay: all sizes, zero re-measurement")

    # 3. Pack the store (with compiled portable artifacts) and verify.
    pack_path = tmp_path / "wisdom.pack"
    summary = build_pack(wisdom, pack_path, include_artifacts=True)
    ok, diagnostics, info = verify_pack(pack_path)
    assert ok, [d.describe() for d in diagnostics]
    lines.append(f"pack: {summary['entries']} entries, "
                 f"{summary['artifacts']} artifacts, "
                 f"{summary['bytes']} bytes, verify OK")

    # 4. Hot boot on a replica with no C compiler at all.
    consumer_build = tmp_path / "consumer-build"
    consumer_build.mkdir()
    monkeypatch.setenv("SPL_BUILD_DIR", str(consumer_build))
    monkeypatch.setattr(ccompile, "_find_compiler", lambda: None)
    loaded = load_pack(pack_path, build_dir=consumer_build)
    assert loaded.store is not None and loaded.entries_loaded == len(SIZES)
    registry = PlanRegistry(prefer="c", wisdom=loaded.store,
                            wisdom_source="pack")
    plan = registry.get(PlanKey(transform="fft", n=8,
                                dtype="complex128"))
    assert plan.from_wisdom
    assert plan.executable.backend == "c"
    x = (np.random.default_rng(9).standard_normal(8)
         + 1j * np.random.default_rng(10).standard_normal(8))
    np.testing.assert_allclose(plan.executable.apply(x), np.fft.fft(x),
                               atol=1e-9)
    lines.append(f"hot boot without toolchain: backend={plan.executable.backend}, "
                 f"{loaded.artifacts_installed} artifacts installed, "
                 f"wisdom_source={registry.stats()['wisdom_source']}")

    write_results("BENCH_search_dist", lines)
