"""The fault-tolerant search queue: leases, journal, chaos, poison.

Unit tests pin the pure pieces (chaos determinism, journal replay over
damaged files); coordinator tests run real forked workers and inject
every failure mode the queue promises to absorb — worker SIGKILL or
segfault mid-task, task functions that raise, tasks that wedge past
their lease or allocate past the memory cap — and assert the
exactly-once contract: every key lands in ``results`` or ``failures``,
never both, never twice.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.perfeval.sandbox import (
    Quarantine,
    SandboxPolicy,
)
from repro.runtime.workers import supported as sandbox_supported
from repro.search.queue import (
    SEARCH_CHAOS_ENV,
    JournalReplay,
    SearchChaos,
    TaskJournal,
    TaskQueueCoordinator,
)
from tests.conftest import inherited_mb, process_alive

needs_fork = pytest.mark.skipif(
    not sandbox_supported(),
    reason="the lease queue needs POSIX fork")

#: Fast knobs so a whole coordinator test settles in well under a
#: second even when every task is retried.
FAST = SandboxPolicy(timeout=10.0, heartbeat_interval=0.02,
                     heartbeat_timeout=5.0, max_attempts=3, backoff=0.01)


class TestSearchChaos:
    def test_spec_round_trip(self):
        chaos = SearchChaos.from_spec("kill=0.3,attempts=2,seed=7")
        assert chaos.kill_rate == 0.3
        assert chaos.kill_attempts == 2
        assert chaos.seed == 7
        assert SearchChaos.from_spec(chaos.to_spec()) == chaos

    def test_absent_seed_is_drawn_and_zero_is_a_seed(self):
        assert SearchChaos.from_spec("kill=0.3,seed=0").seed == 0
        drawn = SearchChaos.from_spec("kill=0.3")
        # Unseeded means drawn afresh, but the run stays replayable:
        # the spec handed to workers names the seed that was drawn.
        assert SearchChaos.from_spec(drawn.to_spec()) == drawn
        assert len({SearchChaos.from_spec("kill=0.3").seed
                    for _ in range(8)}) > 1

    def test_bad_specs_raise(self):
        for spec in ("kill", "kill=lots", "boom=1", "kill=1.5"):
            with pytest.raises(ValueError):
                SearchChaos.from_spec(spec)

    def test_doomed_set_is_deterministic(self):
        chaos = SearchChaos(kill_rate=0.5, seed=3)
        keys = [f"key-{i}" for i in range(200)]
        first = {k for k in keys if chaos.should_kill(k, 1)}
        second = {k for k in keys if chaos.should_kill(k, 1)}
        assert first == second
        assert 0 < len(first) < len(keys)  # a rate, not all-or-nothing

    def test_kills_stop_after_attempt_cap(self):
        chaos = SearchChaos(kill_rate=1.0, kill_attempts=2, seed=0)
        assert chaos.should_kill("k", 1)
        assert chaos.should_kill("k", 2)
        assert not chaos.should_kill("k", 3)

    def test_from_env(self):
        assert SearchChaos.from_env({}) is None
        chaos = SearchChaos.from_env(
            {"SPL_SEARCH_CHAOS": "kill=1.0,seed=2"})
        assert chaos is not None and chaos.kill_rate == 1.0


class TestTaskJournal:
    def test_append_replay_round_trip(self, tmp_path):
        journal = TaskJournal(tmp_path / "journal.jsonl")
        assert journal.append("a", {"ok": True, "seconds": 1.0})
        assert journal.append("b", {"ok": False, "kind": "nan"})
        replay = journal.replay()
        assert replay.results == {"a": {"ok": True, "seconds": 1.0},
                                  "b": {"ok": False, "kind": "nan"}}
        assert replay.corrupt_lines == 0

    def test_missing_file_replays_empty(self, tmp_path):
        replay = TaskJournal(tmp_path / "nope.jsonl").replay()
        assert replay == JournalReplay()

    def test_truncated_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = TaskJournal(path)
        journal.append("a", 1)
        journal.append("b", 2)
        text = path.read_text()
        # Cut the second record mid-line: a crash during append.
        path.write_text(text[: len(text) - 10])
        replay = TaskJournal(path).replay()
        assert replay.results == {"a": 1}
        assert replay.corrupt_lines == 1

    def test_append_after_a_torn_tail_starts_a_fresh_line(self, tmp_path):
        # Regression: the next append glued its record onto the torn
        # line, so that record was lost on the next replay too.
        path = tmp_path / "journal.jsonl"
        journal = TaskJournal(path)
        journal.append("a", 1)
        journal.append("b", 2)
        text = path.read_text()
        path.write_text(text[: len(text) - 10])  # chop mid-b
        assert TaskJournal(path).append("c", 3)
        replay = TaskJournal(path).replay()
        assert replay.results == {"a": 1, "c": 3}
        assert replay.corrupt_lines == 1

    def test_parent_written_journal_replays_byte_for_byte(self, tmp_path):
        # The line format is unchanged: a journal written before the
        # shared reader/writer replays, and new lines match it.
        path = tmp_path / "journal.jsonl"
        old = ('{"key": "a", "result": {"ok": true, "seconds": 1.5}, '
               '"sha": "65b8e779164089f0"}\n')
        path.write_text(old)
        replay = TaskJournal(path).replay()
        assert replay.results == {"a": {"ok": True, "seconds": 1.5}}
        assert replay.corrupt_lines == 0
        path.unlink()
        TaskJournal(path).append("a", {"ok": True, "seconds": 1.5})
        assert path.read_text() == old

    def test_tampered_line_fails_its_checksum(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = TaskJournal(path)
        journal.append("a", {"seconds": 5.0})
        record = json.loads(path.read_text())
        record["result"]["seconds"] = 0.001  # the tampering
        path.write_text(json.dumps(record) + "\n")
        replay = TaskJournal(path).replay()
        assert replay.results == {}
        assert replay.corrupt_lines == 1

    def test_duplicate_keys_keep_the_first(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = TaskJournal(path)
        journal.append("a", 1)
        journal.append("a", 2)
        replay = TaskJournal(path).replay()
        assert replay.results == {"a": 1}
        assert replay.duplicate_keys == 1

    def test_unwritable_path_counts_never_raises(self, tmp_path):
        journal = TaskJournal(tmp_path)  # a directory
        assert not journal.append("a", 1)
        assert journal.append_errors == 1

    def test_append_syncs_each_line_and_counts_a_failed_sync(
            self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        journal = TaskJournal(tmp_path / "journal.jsonl")
        assert journal.append("a", 1) and journal.append("b", 2)
        assert len(synced) == 2

        def refuse(fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "fsync", refuse)
        assert not journal.append("c", 3)  # counted, never raised
        assert journal.append_errors == 1


# ---------------------------------------------------------------------------
# Coordinator behavior with real forked workers.
# ---------------------------------------------------------------------------


def _double(payload):
    return {"value": payload["x"] * 2}


def _crash_on_marked(payload):
    if payload.get("crash"):
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": payload["x"]}


def _fail_until(payload):
    """Raise until the cross-process counter file has enough lines."""
    counter = payload["counter"]
    with open(counter, "a") as handle:
        handle.write("x\n")
    with open(counter) as handle:
        attempts = len(handle.readlines())
    if attempts < payload["succeed_on"]:
        raise RuntimeError(f"flaky (attempt {attempts})")
    return {"value": "recovered"}


def _always_raise(payload):
    raise ValueError("permanently broken")


def _wedge_on_marked(payload):
    if payload.get("wedge"):
        time.sleep(3600)
    return {"value": payload["x"]}


def _slow_prepare(payload):
    time.sleep(0.3)  # twice the lease timeout of the test using it
    return payload


def _freeze(payload):
    os.kill(os.getpid(), signal.SIGSTOP)  # heartbeat thread stops too


def _segfault(payload):
    ctypes.string_at(1)  # read through a wild pointer


def _allocate(payload):
    # Reserved, never touched: costs address space only.
    np.empty(payload["mb"] << 20, dtype=np.uint8)
    return {"value": payload["mb"]}


@needs_fork
class TestCoordinator:
    def test_all_tasks_complete_exactly_once(self):
        coordinator = TaskQueueCoordinator(
            _double, policy=FAST, quarantine=Quarantine())
        tasks = {f"k{i}": {"x": i} for i in range(12)}
        outcome = coordinator.run(tasks)
        assert outcome.results == {
            f"k{i}": {"value": 2 * i} for i in range(12)}
        assert outcome.failures == {}
        assert outcome.stats["completed"] == 12
        assert outcome.stats.get("poisoned", 0) == 0

    def test_chaos_kill_is_retried_to_success(self):
        # Every key's first attempt SIGKILLs its worker; the lease
        # reclaims it and attempt 2 succeeds — zero lost results.
        chaos = SearchChaos(kill_rate=1.0, kill_attempts=1, seed=1)
        coordinator = TaskQueueCoordinator(
            _double, policy=FAST, quarantine=Quarantine(), chaos=chaos)
        tasks = {f"k{i}": {"x": i} for i in range(6)}
        outcome = coordinator.run(tasks)
        assert set(outcome.results) == set(tasks)
        assert outcome.failures == {}
        assert outcome.stats["worker_deaths"] >= 6
        assert outcome.stats["reclaims_dead"] >= 6
        assert outcome.stats["retries"] >= 6

    def test_repeat_killer_is_poisoned_and_quarantined(self):
        quarantine = Quarantine()
        coordinator = TaskQueueCoordinator(
            _crash_on_marked, policy=FAST, quarantine=quarantine)
        tasks = {"good": {"x": 1}, "poison": {"x": 2, "crash": True}}
        outcome = coordinator.run(tasks)
        assert outcome.results == {"good": {"value": 1}}
        failure = outcome.failures["poison"]
        assert failure.kind == "crash"
        assert failure.signal == signal.SIGKILL
        assert failure.attempts == FAST.max_attempts
        assert "poison" in quarantine
        # Two to start with, one per retried death — and none for the
        # death that poisoned the last open key: no fork for nothing.
        assert outcome.stats["workers_spawned"] == 2 + (
            FAST.max_attempts - 1)
        # A second run skips the poisoned key without forking for it.
        again = TaskQueueCoordinator(
            _crash_on_marked, policy=FAST, quarantine=quarantine)
        outcome2 = again.run(tasks)
        assert "poison" in outcome2.failures
        assert outcome2.stats["quarantine_skips"] == 1

    def test_task_error_is_retried_then_succeeds(self, tmp_path):
        counter = str(tmp_path / "attempts")
        coordinator = TaskQueueCoordinator(
            _fail_until, policy=FAST, quarantine=Quarantine())
        outcome = coordinator.run(
            {"flaky": {"counter": counter, "succeed_on": 2}})
        assert outcome.results == {"flaky": {"value": "recovered"}}
        assert outcome.stats["task_errors"] == 1
        assert outcome.stats["retries"] == 1

    def test_permanent_task_error_is_poisoned_with_cause(self):
        coordinator = TaskQueueCoordinator(
            _always_raise, policy=FAST, quarantine=Quarantine())
        outcome = coordinator.run({"broken": {}})
        failure = outcome.failures["broken"]
        assert failure.kind == "error"
        assert "permanently broken" in failure.detail
        assert outcome.stats["task_errors"] == FAST.max_attempts

    def test_wedged_task_is_killed_at_lease_expiry_and_not_retried(self):
        # max_attempts=3, yet the wedged key burns exactly one lease:
        # waiting the same timeout again cannot end differently.
        policy = SandboxPolicy(timeout=0.15, heartbeat_interval=0.02,
                               max_attempts=3, backoff=0.01)
        coordinator = TaskQueueCoordinator(
            _wedge_on_marked, policy=policy, quarantine=Quarantine())
        start = time.monotonic()
        outcome = coordinator.run(
            {"ok": {"x": 1}, "stuck": {"wedge": True}})
        elapsed = time.monotonic() - start
        assert outcome.results == {"ok": {"value": 1}}
        failure = outcome.failures["stuck"]
        assert failure.kind == "hang"
        assert failure.attempts == 1
        assert outcome.stats["reclaims_wedged"] == 1
        assert outcome.stats.get("retries", 0) == 0
        assert elapsed < 30  # the 3600s sleep never ran to completion

    def test_lease_starts_when_prepare_returns(self):
        # The prepare step (gcc, in the search) outlasts the lease
        # timeout and is not killed for it; the task function gets the
        # full lease afterwards, and a wedge *there* still expires.
        policy = SandboxPolicy(timeout=0.15, heartbeat_interval=0.02,
                               backoff=0.01)
        coordinator = TaskQueueCoordinator(
            _wedge_on_marked, prepare=_slow_prepare, policy=policy,
            quarantine=Quarantine())
        outcome = coordinator.run(
            {"ok": {"x": 1}, "stuck": {"x": 2, "wedge": True}})
        assert outcome.results == {"ok": {"value": 1}}
        assert outcome.failures["stuck"].kind == "hang"
        assert outcome.stats["reclaims_wedged"] == 1

    def test_frozen_worker_is_killed_on_heartbeat_silence(self):
        policy = SandboxPolicy(timeout=60.0, heartbeat_interval=0.02,
                               heartbeat_timeout=0.15, backoff=0.01)
        coordinator = TaskQueueCoordinator(
            _freeze, policy=policy, quarantine=Quarantine())
        outcome = coordinator.run({"frozen": {}})
        assert outcome.failures["frozen"].kind == "hang"
        assert outcome.stats["reclaims_silent"] == 1

    def test_segfault_reports_its_signal(self):
        coordinator = TaskQueueCoordinator(
            _segfault, policy=FAST, quarantine=Quarantine())
        outcome = coordinator.run({"wild": {}})
        failure = outcome.failures["wild"]
        assert failure.kind == "crash"
        assert failure.signal == signal.SIGSEGV
        assert "signal 11" in failure.describe()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_cap_applies_in_every_worker(self, workers):
        # Cap the address space a little above what the forked worker
        # inherits; a 2 GiB allocation must then fail *inside* the
        # worker as a structured "memory" failure...
        capped = SandboxPolicy(memory_mb=inherited_mb() + 512,
                               heartbeat_interval=0.02, backoff=0.01)
        tasks = {"big": {"mb": 2048}, "small": {"mb": 1}}
        outcome = TaskQueueCoordinator(
            _allocate, workers=workers, policy=capped,
            quarantine=Quarantine()).run(tasks)
        assert outcome.results == {"small": {"value": 1}}
        failure = outcome.failures["big"]
        assert failure.kind == "memory"
        assert "MemoryError" in failure.detail
        # ...and succeeds with the cap off, so the cap was the cause.
        uncapped = SandboxPolicy(memory_mb=0, heartbeat_interval=0.02)
        outcome = TaskQueueCoordinator(
            _allocate, workers=workers, policy=uncapped,
            quarantine=Quarantine()).run(tasks)
        assert outcome.results["big"] == {"value": 2048}

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            TaskQueueCoordinator(_double, workers=0)

    def test_journal_makes_reruns_free(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        tasks = {f"k{i}": {"x": i} for i in range(5)}
        first = TaskQueueCoordinator(
            _double, policy=FAST, journal=TaskJournal(journal_path),
            quarantine=Quarantine())
        outcome1 = first.run(tasks)
        assert outcome1.stats["completed"] == 5
        # A "restarted coordinator": same journal, fresh everything.
        second = TaskQueueCoordinator(
            _double, policy=FAST, journal=TaskJournal(journal_path),
            quarantine=Quarantine())
        outcome2 = second.run(tasks)
        assert outcome2.results == outcome1.results
        assert outcome2.stats["journal_replayed"] == 5
        assert outcome2.stats.get("completed", 0) == 0
        assert outcome2.stats.get("workers_spawned", 0) == 0

    def test_truncated_journal_resumes_partial(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        tasks = {f"k{i}": {"x": i} for i in range(4)}
        TaskQueueCoordinator(
            _double, policy=FAST, journal=TaskJournal(journal_path),
            quarantine=Quarantine()).run(tasks)
        # A crash mid-append: the last record is cut in half.
        text = journal_path.read_text()
        journal_path.write_text(text[: len(text) - 15])
        resumed = TaskQueueCoordinator(
            _double, policy=FAST, journal=TaskJournal(journal_path),
            quarantine=Quarantine())
        outcome = resumed.run(tasks)
        assert outcome.results == {
            f"k{i}": {"value": 2 * i} for i in range(4)}
        assert outcome.stats["journal_replayed"] == 3
        assert outcome.stats["journal_corrupt_lines"] == 1
        assert outcome.stats["completed"] == 1  # only the lost key ran


# ---------------------------------------------------------------------------
# A coordinator that dies leaves no worker behind.
# ---------------------------------------------------------------------------

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(
    sys.modules["repro"].__file__)))

#: A coordinator in a process of its own; argv: out_dir, workers, sleep_s.
#: Each task drops a file named for its worker's pid, then reports how
#: many sockets the worker holds; the outcome goes to out_dir/results.
_COORDINATOR = """
import json, os, sys, time
from repro.perfeval.sandbox import Quarantine, SandboxPolicy
from repro.search.queue import TaskQueueCoordinator

out, workers, sleep_s = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])

def task(payload):
    open(os.path.join(out, str(os.getpid())), "w").close()
    time.sleep(sleep_s)
    links = [os.readlink(f"/proc/self/fd/{fd}")
             for fd in os.listdir("/proc/self/fd")
             if os.path.exists(f"/proc/self/fd/{fd}")]
    return {"sockets": sum(link.startswith("socket:") for link in links)}

outcome = TaskQueueCoordinator(
    task, workers=workers, policy=SandboxPolicy(memory_mb=0),
    quarantine=Quarantine()).run({f"k{i}": {} for i in range(4)})
with open(os.path.join(out, "results"), "w") as handle:
    json.dump(outcome.results, handle)
"""


def _coordinator(out_dir, workers: int, sleep_s: float) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != SEARCH_CHAOS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR, str(out_dir), str(workers),
         str(sleep_s)], env=env, stdin=subprocess.DEVNULL)


def _worker_pids(out_dir) -> set[int]:
    return {int(p.name) for p in out_dir.iterdir() if p.name.isdigit()}


@needs_fork
class TestCoordinatorDeath:
    def test_sigkilled_coordinator_leaves_no_worker_alive(self, tmp_path):
        """Workers read EOF on their one socket once the coordinator is
        gone, and exit mid-task instead of waiting on a lost reader."""
        coordinator = _coordinator(tmp_path, workers=2, sleep_s=2.0)
        try:
            deadline = time.monotonic() + 30.0
            while (len(_worker_pids(tmp_path)) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            pids = _worker_pids(tmp_path)
            assert len(pids) == 2
        finally:
            coordinator.kill()
            coordinator.wait(10.0)
        deadline = time.monotonic() + 5.0
        while (any(map(process_alive, pids))
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not [pid for pid in pids if process_alive(pid)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_worker_holds_exactly_one_socket(self, tmp_path, workers):
        coordinator = _coordinator(tmp_path, workers=workers, sleep_s=0.0)
        assert coordinator.wait(60.0) == 0
        results = json.loads((tmp_path / "results").read_text())
        assert results == {f"k{i}": {"sockets": 1} for i in range(4)}
