"""One search, any worker count: ``jobs`` never changes the answer.

The contract under test is determinism: given identical per-candidate
timings, :func:`search_small_sizes` must crown byte-for-byte the same
winners — and record byte-identical wisdom — at ``jobs`` 1, 2 and 4,
under injected worker kills, and when resumed from a truncated
journal.  The in-worker task functions are swapped for a deterministic
hash of the candidate's C source, so every run sees the same
"measurements" without invoking gcc; the SPL compiler, forked workers,
leases, journal and quarantine underneath are all real.  The reference
is the same DP loop over a stubbed ``measure_formulas``: first minimum
in enumeration order, no queue involved.
"""

from __future__ import annotations

import hashlib
import os
import signal
from types import SimpleNamespace

import pytest

from repro.perfeval.sandbox import Quarantine, SandboxPolicy
from repro.runtime.workers import supported as sandbox_supported
from repro.search import measure
from repro.search.dp import default_small_compiler, search_small_sizes
from repro.search.queue import SEARCH_CHAOS_ENV, SearchChaos, TaskJournal
from repro.wisdom.store import WisdomStore
from tests.conftest import HAS_CC

pytestmark = pytest.mark.skipif(
    not (HAS_CC and sandbox_supported()),
    reason="isolated measurement needs a C compiler and POSIX fork")

SIZES = (2, 4, 8, 16)
SWEEP = (4, 8)

#: Shared so its compile memo is paid once for the whole module (the
#: per-threshold variants of a sweep are rebuilt by every search).
COMPILER = default_small_compiler()

FAST = SandboxPolicy(timeout=10.0, heartbeat_interval=0.02,
                     max_attempts=3, backoff=0.01)


def fake_seconds(source: str) -> float:
    """Deterministic pseudo-timing of one candidate's C source."""
    digest = hashlib.sha256(source.encode()).digest()
    return 1.0 + int.from_bytes(digest[:4], "big") / 2 ** 32


def fake_time_task(task: dict) -> dict:
    return {"ok": True, "seconds": fake_seconds(task["source"])}


@pytest.fixture(autouse=True)
def fake_tasks(monkeypatch):
    """Workers are forked, so they inherit the patched task functions."""
    monkeypatch.setattr(measure, "_compile_task", lambda task: task)
    monkeypatch.setattr(measure, "_time_task", fake_time_task)
    monkeypatch.delenv(SEARCH_CHAOS_ENV, raising=False)


def search(tmp_path, tag, *, jobs, sweep=None, journal=None, sizes=SIZES):
    """One isolated search; returns (results, wisdom file bytes)."""
    wisdom_path = tmp_path / f"wisdom-{tag}.json"
    results = search_small_sizes(
        sizes, compiler=COMPILER, jobs=jobs, sandbox=FAST,
        quarantine=Quarantine(), wisdom=WisdomStore(wisdom_path),
        unroll_thresholds=sweep,
        journal_path=str(journal) if journal else None)
    return results, wisdom_path.read_bytes()


def reference(monkeypatch, sweep=None, sizes=SIZES):
    """The DP loop alone: stubbed measurements, no queue."""

    def stub(compiler, formulas, name_prefix="", **kwargs):
        sources = [
            compiler.compile_formula(formula, f"{name_prefix}{index}",
                                     language="c").source
            for index, formula in enumerate(formulas)]
        return [SimpleNamespace(formula=formula, ok=True, failure=None,
                                seconds=fake_seconds(source), mflops=1.0)
                for formula, source in zip(formulas, sources)]

    with monkeypatch.context() as patch:
        patch.setattr("repro.search.dp.measure_formulas", stub)
        return search_small_sizes(sizes, compiler=COMPILER,
                                  unroll_thresholds=sweep)


def assert_same_winners(expected, got):
    assert set(expected) == set(got)
    for n in expected:
        assert expected[n].formula.to_spl() == got[n].formula.to_spl(), n
        assert expected[n].seconds == got[n].seconds, n
        assert expected[n].unroll_threshold == got[n].unroll_threshold, n
        assert expected[n].candidates_tried == got[n].candidates_tried, n


class TestJobsNeverChangeTheAnswer:
    @pytest.mark.parametrize("sweep, sizes",
                             [(None, SIZES), (SWEEP, (2, 4, 8))])
    def test_identical_winners_and_wisdom_at_every_jobs(
            self, monkeypatch, tmp_path, sweep, sizes):
        expected = reference(monkeypatch, sweep, sizes)
        files = set()
        for jobs in (1, 2, 4):
            results, wisdom_bytes = search(
                tmp_path, f"j{jobs}", jobs=jobs, sweep=sweep, sizes=sizes)
            assert_same_winners(expected, results)
            files.add(wisdom_bytes)
        assert len(files) == 1  # byte-identical wisdom entries

    def test_chaos_kills_lose_and_duplicate_nothing(self, monkeypatch,
                                                    tmp_path):
        # ~30% of task keys SIGKILL their worker on the first attempt.
        # The leases must retry every one of them: same winners, same
        # wisdom bytes, and the journal holds exactly one record per
        # task key (zero lost, zero duplicated).
        expected = reference(monkeypatch)
        _, calm_bytes = search(tmp_path, "calm", jobs=2)
        chaos = SearchChaos(kill_rate=0.3, kill_attempts=1, seed=5)
        monkeypatch.setenv(SEARCH_CHAOS_ENV, chaos.to_spec())
        journal_path = tmp_path / "journal.jsonl"
        results, chaos_bytes = search(tmp_path, "chaos", jobs=2,
                                      journal=journal_path)
        assert_same_winners(expected, results)
        assert chaos_bytes == calm_bytes
        replay = TaskJournal(journal_path).replay()
        assert len(replay.results) == sum(
            expected[n].candidates_tried for n in expected)
        assert replay.duplicate_keys == 0
        assert replay.corrupt_lines == 0
        # The chaos actually fired: at least one doomed key existed.
        assert [key for key in replay.results
                if chaos.should_kill(key, 1)], \
            "chaos seed produced no kills; test is vacuous"

    def test_truncated_journal_still_converges(self, monkeypatch,
                                               tmp_path):
        expected = reference(monkeypatch)
        journal_path = tmp_path / "journal.jsonl"
        _, first_bytes = search(tmp_path, "first", jobs=2,
                                journal=journal_path)
        # A coordinator crash mid-append: chop the journal mid-record.
        text = journal_path.read_text()
        journal_path.write_text(text[: int(len(text) * 0.6)])
        results, resumed_bytes = search(tmp_path, "resumed", jobs=2,
                                        journal=journal_path)
        assert_same_winners(expected, results)
        assert resumed_bytes == first_bytes

    def test_complete_journal_replays_without_running_tasks(
            self, monkeypatch, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        first, _ = search(tmp_path, "first", jobs=2, journal=journal_path)
        witness = tmp_path / "ran"

        def tattling_task(task):
            with open(witness, "a") as handle:
                handle.write(task["name"] + "\n")
            return fake_time_task(task)

        monkeypatch.setattr(measure, "_time_task", tattling_task)
        again, _ = search(tmp_path, "again", jobs=2, journal=journal_path)
        assert not witness.exists()  # everything came from the journal
        assert_same_winners(first, again)

    def test_wisdom_replay_skips_solved_sizes(self, tmp_path):
        wisdom = WisdomStore(tmp_path / "wisdom.json")
        first = search_small_sizes(SIZES, compiler=COMPILER, jobs=2,
                                   sandbox=FAST, quarantine=Quarantine(),
                                   wisdom=wisdom)
        again = search_small_sizes(SIZES, compiler=COMPILER, jobs=2,
                                   sandbox=FAST, quarantine=Quarantine(),
                                   wisdom=wisdom)
        for n in again:
            assert again[n].from_wisdom, n
            assert again[n].formula.to_spl() == first[n].formula.to_spl()


def _kill_candidate_one(task: dict) -> dict:
    if task["name"].endswith("_c1"):
        os.kill(os.getpid(), signal.SIGKILL)
    return fake_time_task(task)


class TestPoisonedCandidates:
    def test_repeat_killer_quarantined_search_still_wins(self,
                                                         monkeypatch):
        monkeypatch.setattr(measure, "_time_task", _kill_candidate_one)
        quarantine = Quarantine()
        policy = SandboxPolicy(timeout=10.0, heartbeat_interval=0.02,
                               max_attempts=2, backoff=0.01)
        results = search_small_sizes((8, 16), compiler=COMPILER, jobs=2,
                                     sandbox=policy, quarantine=quarantine)
        # The search survived the killer candidates...
        assert set(results) == {8, 16}
        for n in (8, 16):
            assert results[n].candidates_failed == 1, n
        # ...and they are structured quarantine entries, not retries
        # forever: every poisoned key burned exactly max_attempts.
        assert quarantine.stats()["kinds"] == {"crash": 2}
        for failure in quarantine.entries.values():
            assert failure.attempts == policy.max_attempts
            assert failure.signal == signal.SIGKILL
