"""The lease queue's decision core under a simulated clock.

``TaskQueueCoordinator.decide(event, now)`` is a function of (state,
event, now) that returns plain-data effects, so the retry rule, the
leases, the poison cap, the journal ordering and the exactly-once
contract are proved here in milliseconds: :class:`Pool` plays the
worker processes (who holds which task, who answers, who dies),
hypothesis draws the interleaving, and no process, pipe or sleep is
involved — ``os.fork`` and ``multiprocessing`` are patched to raise.
What only a real fork can show (lease-expiry SIGKILL, a segfault's
signal, ``RLIMIT_AS``) stays in ``test_queue.py``.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfeval.sandbox import (
    CandidateFailure,
    Quarantine,
    SandboxPolicy,
    sandbox_supported,
)
from repro.search.queue import TaskQueueCoordinator

pytestmark = pytest.mark.skipif(
    not sandbox_supported(),
    reason="TaskQueueCoordinator refuses to construct without fork")

POLICY = SandboxPolicy(timeout=10.0, heartbeat_timeout=3.0,
                       max_attempts=3, backoff=0.5)


@pytest.fixture(autouse=True)
def no_processes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the schedule suite must not make a process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr("multiprocessing.get_context", refuse)


@dataclass
class Proc:
    key: str | None = None  # the task it was sent, None when idle
    attempt: int = 0
    lease_from: float | None = None  # None until the lease clock runs
    last_beat: float = 0.0
    beats: bool = True  # False: frozen, the heartbeat thread too


class Pool:
    """The worker processes, for one :class:`TaskQueueCoordinator` core.

    Performs the core's effects on a table of fake workers, keeps an
    independent model of what the core owes each key (attempts, earliest
    resend, the cause it must report) and checks every effect against it.
    """

    def __init__(self, keys: int, *, workers: int = 2,
                 prepare: bool = False):
        self.tasks = {f"k{i}": {"x": i} for i in range(keys)}
        self.prepare = prepare
        self.queue = TaskQueueCoordinator(
            None, prepare=(lambda payload: payload) if prepare else None,
            workers=workers, policy=POLICY, quarantine=Quarantine())
        self.now = 50.0
        self.procs: dict[int, Proc] = {}
        self.sends: dict[str, int] = dict.fromkeys(self.tasks, 0)
        self.ready_at: dict[str, float] = {}
        self.cause: dict[str, tuple] = {}  # (kind, signal) owed on poison
        self.journal: list[str] = []
        self.settled: dict[str, object] = {}
        self.spawns = 0
        for effect in self.queue._begin(self.tasks):
            self.perform(effect)
        self.outcome = self.queue._outcome

    # -- effects -------------------------------------------------------

    def feed(self, *event) -> None:
        for effect in self.queue.decide(event, self.now):
            self.perform(effect)

    def perform(self, effect: tuple) -> None:
        kind, *args = effect
        if kind == "spawn":
            assert args[0] not in self.procs, "spawned into a held slot"
            assert len(self.settled) < len(self.tasks), "forked for nothing"
            self.procs[args[0]] = Proc()
            self.spawns += 1
        elif kind == "kill":
            self.procs.pop(args[0])  # never kill an empty slot
        elif kind == "send":
            wid, key, attempt = args
            proc = self.procs[wid]
            assert proc.key is None, "sent to a busy worker"
            assert key not in self.settled, "a settled key ran again"
            assert all(p.key != key for p in self.procs.values())
            assert self.now >= self.ready_at.get(key, 0.0), "sent early"
            self.sends[key] += 1
            assert attempt == self.sends[key] <= POLICY.max_attempts
            proc.key, proc.attempt = key, attempt
            proc.lease_from = None if self.prepare else self.now
            proc.last_beat = self.now
        elif kind == "journal":
            key, result = args
            assert key not in self.journal and key not in self.settled
            self.journal.append(key)
        else:
            key, value = args
            assert key not in self.settled, "settled twice"
            self.settled[key] = value
            if isinstance(value, CandidateFailure):  # as _feed does
                self.queue.quarantine.add(value)
                self.outcome.failures[key] = value
                want_kind, want_signal = self.cause[key]
                assert (value.kind, value.signal) == (want_kind, want_signal)
                assert value.attempts == self.sends[key]
            else:
                assert self.journal[-1:] == [key], "result before journal"
                self.outcome.results[key] = value

    # -- what the workers do -------------------------------------------

    def lost_attempt(self, proc: Proc, kind: str,
                     signum: int | None = None) -> None:
        """The model's half of the one retry rule."""
        if proc.key is None or proc.key in self.settled:
            return
        self.cause[proc.key] = (kind, signum)
        if kind != "hang" and proc.attempt < POLICY.max_attempts:
            self.ready_at[proc.key] = self.now + POLICY.backoff_s(
                proc.attempt)

    def expect_settled(self, key: str | None, settled_before: bool) -> None:
        if key is not None and not settled_before:
            assert (key in self.settled) == (
                self.sends[key] >= POLICY.max_attempts
                or self.cause[key][0] == "hang")

    def act(self, action: tuple) -> None:
        kind, wid, *args = action
        proc = self.procs.get(wid)
        if proc is None:
            return
        key, before = proc.key, proc.key in self.settled
        if kind == "die":
            self.procs.pop(wid)
            self.lost_attempt(proc, "crash", args[0])
            self.feed("worker_died", wid, args[0], -args[0])
            self.expect_settled(key, before)
        elif kind == "freeze":
            proc.beats = False
        elif kind == "duplicate" and self.outcome.results:
            # A reclaimed lease that had in fact finished reports again.
            done = sorted(self.outcome.results)[args[0] % len(
                self.outcome.results)]
            counted = self.queue.stats["duplicates_ignored"]
            self.feed("message", wid, ("done", done, {"late": True}))
            assert self.queue.stats["duplicates_ignored"] == counted + 1
            assert self.outcome.results[done] != {"late": True}
        elif key is None:
            return
        elif kind == "ready" and self.prepare and proc.lease_from is None:
            proc.lease_from = self.now
            self.feed("message", wid, ("ready", key))
        elif kind == "done" and (proc.lease_from is not None):
            proc.key = None
            self.feed("message", wid, ("done", key, {"value": key}))
            assert before or self.settled[key] == {"value": key}
        elif kind == "fail":
            self.lost_attempt(proc, "error")
            proc.key = None
            self.feed("message", wid,
                      ("fail", key, "error", "RuntimeError: flaky"))
            self.expect_settled(key, before)

    def advance(self, dt: float) -> None:
        """Let ``dt`` pass: running, unfrozen workers have just beaten,
        and the loop ticks."""
        self.now += dt
        overdue = {}
        for wid, proc in self.procs.items():
            if proc.key is None:
                continue
            if proc.beats:
                proc.last_beat = self.now
                self.feed("message", wid, ("beat", proc.key))
            if (proc.lease_from is not None
                    and self.now - proc.lease_from > POLICY.timeout):
                overdue[wid] = "wedged"
            elif self.now - proc.last_beat > POLICY.heartbeat_timeout:
                overdue[wid] = "silent"
        for wid, reason in overdue.items():
            self.lost_attempt(self.procs[wid], "hang")
        watched = {wid: self.procs[wid] for wid in overdue}
        killed = self.queue.stats["workers_killed"]
        self.feed("tick")
        # Every overdue lease was reclaimed by this tick, and only those.
        assert self.queue.stats["workers_killed"] == killed + len(overdue)
        for wid, proc in watched.items():
            assert self.procs.get(wid) is not proc
            assert proc.key in self.settled  # terminal at once
            if self.settled[proc.key] is self.outcome.failures.get(proc.key):
                assert overdue[wid] in self.settled[proc.key].detail

    def finish(self) -> None:
        """Every worker behaves from here on; the run must end."""
        for _ in range(200):
            if len(self.settled) == len(self.tasks):
                break
            self.advance(0.5)
            for wid, proc in list(self.procs.items()):
                proc.beats = True
                self.act(("ready", wid))
                self.act(("done", wid))
        assert set(self.settled) == set(self.tasks), "a key never settled"
        results, failures = self.outcome.results, self.outcome.failures
        assert set(results) | set(failures) == set(self.tasks)
        assert not set(results) & set(failures)
        assert sorted(self.journal) == sorted(results)
        assert set(self.queue.quarantine.entries) == set(failures)
        assert all(n <= POLICY.max_attempts for n in self.sends.values())
        stats = self.queue.stats
        assert stats["workers_spawned"] == self.spawns
        assert stats["completed"] == len(results)
        assert stats["poisoned"] == len(failures)
        assert stats["tasks_total"] == len(self.tasks)


workers = st.integers(0, 2)
actions = st.one_of(
    st.tuples(st.sampled_from(["done", "fail", "ready", "freeze"]),
              workers),
    st.tuples(st.just("die"), workers,
              st.sampled_from([signal.SIGKILL, signal.SIGSEGV])),
    st.tuples(st.just("duplicate"), workers, st.integers(0, 7)),
)
pauses = st.one_of(
    st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 3.5, 11.0]),
    st.floats(0.0, 4.0, allow_nan=False))


class TestRandomSchedules:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(pauses, actions), max_size=40),
           st.integers(1, 6), st.integers(1, 3), st.booleans())
    def test_every_key_settles_exactly_once(self, steps, keys, fleet,
                                            prepare):
        pool = Pool(keys, workers=fleet, prepare=prepare)
        assert pool.spawns == min(fleet, keys)
        for dt, action in steps:
            pool.advance(dt)
            pool.act(action)
        pool.finish()


class TestNamedSchedules:
    def test_dead_worker_is_retried_with_backoff_then_poisoned(self):
        pool = Pool(1, workers=1)
        for attempt in (1, 2, 3):
            pool.advance(0.0)
            assert pool.procs[0].attempt == attempt
            pool.act(("die", 0, signal.SIGSEGV))
            if attempt < 3:
                # Not a moment before the backoff has passed.
                pool.advance(POLICY.backoff_s(attempt) - 0.01)
                assert pool.procs[0].key is None
                pool.advance(0.02)
        failure = pool.outcome.failures["k0"]
        assert failure.kind == "crash" and failure.attempts == 3
        assert failure.signal == signal.SIGSEGV
        assert "killed by signal 11" in failure.detail
        stats = pool.queue.stats
        assert stats["retries"] == 2 and stats["reclaims_dead"] == 3
        # The last death found no work left: nobody was forked for it.
        assert stats["workers_spawned"] == 3 and not pool.procs
        pool.finish()

    def test_a_last_task_that_poisons_forks_no_replacement(self):
        pool = Pool(2, workers=2)
        pool.advance(0.0)
        pool.act(("done", 0))
        for _ in range(POLICY.max_attempts):
            holder = next(w for w, p in pool.procs.items() if p.key == "k1")
            pool.act(("die", holder, signal.SIGKILL))
            pool.advance(2.0)
        assert set(pool.outcome.failures) == {"k1"}
        assert pool.queue.stats["workers_spawned"] == 2 + 2
        pool.finish()

    @pytest.mark.parametrize("prepare", [False, True])
    def test_lease_runs_from_send_or_from_ready_and_a_hang_is_final(
            self, prepare):
        pool = Pool(2, workers=1, prepare=prepare)
        pool.advance(0.0)
        if prepare:
            # The compiler may take longer than the lease; only the
            # heartbeat watches it.
            pool.advance(POLICY.timeout + 5.0)
            assert pool.procs[0].key == "k0"
            pool.act(("ready", 0))
        pool.advance(POLICY.timeout)
        assert pool.procs[0].key == "k0"  # exactly the lease: not yet
        pool.advance(0.1)
        failure = pool.outcome.failures["k0"]
        assert failure.kind == "hang" and failure.attempts == 1
        assert "wedged: nothing within 10s" in failure.detail
        stats = pool.queue.stats
        assert stats["reclaims_wedged"] == 1 and stats["retries"] == 0
        # k1 remains, so the slot was restaffed and k1 sent in one tick.
        assert pool.procs[0].key == "k1" and stats["workers_spawned"] == 2
        pool.finish()
        assert pool.sends == {"k0": 1, "k1": 1}

    def test_frozen_worker_is_killed_on_heartbeat_silence(self):
        pool = Pool(1, workers=1)
        pool.advance(0.0)
        pool.act(("freeze", 0))
        pool.advance(POLICY.heartbeat_timeout)
        assert not pool.settled
        pool.advance(0.1)
        failure = pool.outcome.failures["k0"]
        assert failure.kind == "hang" and "silent" in failure.detail
        assert pool.queue.stats["reclaims_silent"] == 1
        pool.finish()

    def test_task_error_keeps_its_cause_through_the_retries(self):
        pool = Pool(1, workers=1)
        for _ in range(POLICY.max_attempts):
            pool.advance(2.0)
            pool.act(("fail", 0))
        failure = pool.outcome.failures["k0"]
        assert failure.kind == "error" and failure.signal is None
        assert failure.detail == "RuntimeError: flaky"
        assert pool.queue.stats["task_errors"] == 3
        assert pool.queue.stats["workers_spawned"] == 1  # nobody died
        pool.finish()

    def test_journal_replay_and_quarantine_settle_without_a_worker(
            self, tmp_path):
        from repro.search.queue import TaskJournal

        journal = TaskJournal(tmp_path / "journal.jsonl")
        journal.append("k0", {"value": "k0"})
        quarantine = Quarantine()
        quarantine.add(CandidateFailure(kind="hang", plan_key="k1"))
        queue = TaskQueueCoordinator(None, policy=POLICY, journal=journal,
                                     quarantine=quarantine)
        assert queue._begin({"k0": {}, "k1": {}}) == []
        outcome = queue._outcome
        assert outcome.results == {"k0": {"value": "k0"}}
        assert set(outcome.failures) == {"k1"}
        assert queue.decide(("tick",), 0.0) == []
