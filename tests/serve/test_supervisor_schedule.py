"""The supervisor's decision core under a simulated clock.

``Supervisor.decide(event, now)`` is a function of (state, event, now)
that returns plain-data effects, so every restart / backoff / heartbeat
/ rolling / shutdown rule is proved here in milliseconds: :class:`Fleet`
plays the operating system (which slot holds a process, what was
signalled, who exits when), hypothesis draws the interleaving, and no
process, pipe or sleep is involved — ``os.fork`` is patched to raise.
What only a real fork can show (one port, kill -> replace, SIGTERM
drain -> exit 0, SIGHUP roll) stays in ``test_supervisor.py``.
"""

from __future__ import annotations

import errno
import itertools
import os
import random
import signal
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.supervisor import (
    DOWN,
    DRAINING,
    READY,
    STARTING,
    STOPPED,
    BackoffPolicy,
    RestartBudget,
    ServeConfig,
    Supervisor,
    fork_supported,
)

pytestmark = pytest.mark.skipif(
    not fork_supported(),
    reason="Supervisor refuses to construct without fork + SO_REUSEPORT")

HEARTBEAT_TIMEOUT = 5.0
BOOT_GRACE = 20.0
DRAIN_GRACE = 3.0  # a drain is SIGKILLed DRAIN_GRACE + 5 s after SIGTERM
BACKOFF = BackoffPolicy(base_s=0.5, multiplier=2.0, max_s=4.0,
                        jitter=0.25, stable_after_s=10.0)
FLOOR = replace(BACKOFF, jitter=0.0)  # jitter only ever adds delay
LIVE = (STARTING, READY, DRAINING)


@pytest.fixture(autouse=True)
def no_processes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the schedule suite must not make a process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr("multiprocessing.get_context", refuse)


@dataclass
class Proc:
    born: float
    last_beat: float
    beats: bool = True  # False: wedged, the event loop is stuck
    obeys_term: bool = True
    rolling: bool = False  # SIGTERMed by a rolling restart
    signals: list[int] = field(default_factory=list)


class Fleet:
    """The operating system, for one :class:`Supervisor` core.

    Performs the core's effects on a table of fake processes, feeds
    back what an OS would (exits after a signal, beats from healthy
    workers), keeps an independent model of what the core owes
    (failure counts, earliest restart times, the budget window) and
    checks it after every event.
    """

    def __init__(self, workers: int = 3, *, budget: int = 3,
                 window_s: float = 30.0):
        self.sup = Supervisor(
            ServeConfig(drain_grace_s=DRAIN_GRACE), workers=workers,
            heartbeat_timeout=HEARTBEAT_TIMEOUT, boot_grace_s=BOOT_GRACE,
            backoff=BACKOFF, budget=RestartBudget(budget, window_s),
            rng=random.Random(0))
        self.now = 100.0
        self.procs: dict[int, Proc] = {}
        self.fail_spawns = 0  # the next N forks raise
        self.mute_spawns = 0  # the next N workers never heartbeat
        self.stopping = False
        self.restarts: list[float] = []  # budget-spending spawns
        self.failures = [0] * workers  # expected consecutive_failures
        self.due = [0.0] * workers  # earliest permitted restart
        self.rolls: list[list[int]] = []  # slots drained, per HUP taken
        self.pids = itertools.count(1000)
        self.depth = 0
        self.wedge_kills = 0
        self.logs: list[str] = []
        self.published: list[float] = []  # when --port-file was written
        for slot in self.sup.slots:  # what run() does at boot
            self.perform(self.sup._start(slot, self.now), "boot")

    # -- effects -------------------------------------------------------

    @property
    def drained(self) -> list[int]:
        return [index for roll in self.rolls for index in roll]

    def feed(self, *event) -> None:
        self.depth += 1
        for effect in self.sup.decide(event, self.now):
            self.perform(effect, event[0])
        self.depth -= 1
        if not self.depth:  # a nested event sees half-performed effects
            self.check(event[0])

    def perform(self, effect: tuple, during: str) -> None:
        kind, *args = effect
        if kind == "log":
            self.logs.append(args[0])
            if args[0].startswith("rolling restart of"):
                self.rolls.append([])
        elif kind == "spawn":
            self.spawn(args[0], during)
        elif kind == "publish_port":
            # A client dials the moment the file appears: a worker
            # must be listening (heartbeating, so READY) by then.
            assert during == "beat" and not self.published
            assert any(s.state == READY for s in self.sup.slots)
            self.published.append(self.now)
        else:
            index, signum = args
            proc = self.procs[index]  # never signal an empty slot
            assert signum not in proc.signals or self.stopping, (
                "signalled twice")  # a stop may re-TERM a rolling drain
            proc.signals.append(signum)
            if signum == signal.SIGTERM and not self.stopping:
                assert during == "tick"
                proc.rolling = True
                self.rolls[-1].append(index)
            elif signum == signal.SIGKILL and not (
                    self.stopping or proc.rolling):
                self.wedge_kills += 1

    def spawn(self, index: int, during: str) -> None:
        assert not self.stopping, "spawned after stop"
        assert index not in self.procs, "spawned into a held slot"
        if during == "tick":  # a restart: budgeted, never early
            assert self.now >= self.due[index], "restarted too early"
            self.restarts.append(self.now)
            window = self.sup.budget.window_s
            recent = [t for t in self.restarts if self.now - t < window]
            assert len(recent) <= self.sup.budget.budget
        if self.fail_spawns:
            self.fail_spawns -= 1
            self.went_down(index, uptime=0.0)
            self.feed("spawn_failed", index, "Resource temporarily "
                                             "unavailable")
            return
        self.procs[index] = Proc(born=self.now, last_beat=self.now,
                                 beats=not self.mute_spawns)
        self.mute_spawns = max(0, self.mute_spawns - 1)
        self.sup.slots[index].pid = next(self.pids)

    def went_down(self, index: int, uptime: float) -> None:
        if uptime >= BACKOFF.stable_after_s:
            self.failures[index] = 0
        self.failures[index] += 1
        self.due[index] = self.now + FLOOR.delay(self.failures[index])

    # -- what the OS does ----------------------------------------------

    def exit(self, index: int, code: int) -> None:
        proc = self.procs.pop(index)
        self.sup.slots[index].pid = None
        spent = self.sup.budget.spent
        if proc.rolling and not self.stopping:
            self.failures[index] = 0
        elif not self.stopping:
            self.went_down(index, uptime=self.now - proc.born)
        self.feed("exited", index, code)
        if proc.rolling and not self.stopping:
            # Replaced on the spot (unless that fork failed), for free.
            assert index in self.procs or self.failures[index] == 1
            assert self.sup.budget.spent == spent

    def advance(self, dt: float) -> None:
        """Let ``dt`` pass: signalled processes are gone, healthy ones
        have just beaten, and the loop ticks."""
        self.now += dt
        for index, proc in sorted(self.procs.items()):
            if signal.SIGKILL in proc.signals:
                self.exit(index, -signal.SIGKILL)
            elif signal.SIGTERM in proc.signals and proc.obeys_term:
                self.exit(index, 0)
            elif proc.beats:
                proc.last_beat = self.now
                self.feed("beat", index)
        self.feed("tick")

    def act(self, action: tuple) -> None:
        kind, *args = action
        proc = self.procs.get(args[0]) if args else None
        if kind == "crash" and proc is not None:
            self.exit(args[0], -signal.SIGSEGV)
        elif kind == "wedge" and proc is not None:
            proc.beats = False
        elif kind == "stubborn" and proc is not None:
            proc.obeys_term = False
        elif kind == "fail_spawns":
            self.fail_spawns = args[0]
        elif kind == "mute_spawns":
            self.mute_spawns = args[0]
        elif kind == "hup" and not self.stopping:
            self.feed("hup")  # run() drops a HUP that follows a stop
        elif kind == "stop" and not self.stopping:
            self.stopping = True
            self.feed("stop")

    # -- invariants ----------------------------------------------------

    def check(self, during: str) -> None:
        sup = self.sup
        for slot in sup.slots:
            proc = self.procs.get(slot.index)
            assert (slot.state in LIVE) == (proc is not None)
            assert slot.consecutive_failures == self.failures[slot.index]
            if during != "tick" or proc is None or self.stopping:
                continue
            # After a tick nothing overdue is left unkilled.
            overdue = (
                slot.state == READY
                and self.now - proc.last_beat > HEARTBEAT_TIMEOUT
                or slot.state == STARTING
                and self.now - proc.born > BOOT_GRACE)
            assert not overdue or signal.SIGKILL in proc.signals
        rolling = [s.index for s in sup.slots
                   if s.state == DRAINING and s.rolling]
        assert len(rolling) <= 1 or self.stopping, "rolled two at once"
        assert sup.wedge_kills == self.wedge_kills
        status = sup.status()
        assert status["alive"] == len(self.procs)
        assert status["budget_spent"] == len(self.restarts)

    def run(self, seconds: float, step: float = 1.0) -> None:
        for _ in range(int(seconds / step)):
            self.advance(step)


slots = st.integers(0, 2)
actions = st.one_of(
    st.tuples(st.sampled_from(["crash", "wedge", "stubborn"]), slots),
    st.tuples(st.sampled_from(["fail_spawns", "mute_spawns"]),
              st.integers(1, 3)),
    st.sampled_from([("hup",), ("stop",), ("tick",)]),
)
pauses = st.one_of(
    st.sampled_from([0.0, 0.05, 0.5, 1.0, 4.0, 6.0, 11.0, 31.0]),
    st.floats(0.0, 15.0, allow_nan=False))


class TestRandomSchedules:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.tuples(pauses, actions), max_size=40),
           st.integers(1, 4))
    def test_invariants_hold_and_the_fleet_converges(self, steps,
                                                     budget):
        fleet = Fleet(budget=budget)
        for dt, action in steps:
            fleet.advance(dt)
            fleet.act(action)
        # Liveness: left alone, a stopping fleet empties within the
        # drain deadline and any other heals to full strength once the
        # budget window has slid.
        fleet.fail_spawns = fleet.mute_spawns = 0
        if fleet.stopping:
            fleet.run(DRAIN_GRACE + 5.0 + 2.0)
            assert not fleet.procs
            assert all(s.state in (STOPPED, DOWN)
                       for s in fleet.sup.slots)
        else:
            fleet.run(200.0, step=2.5)
            assert [s.state for s in fleet.sup.slots] == [READY] * 3
            assert not fleet.sup.status()["rolling"]
        # A roll drains each slot at most once, in index order.
        for roll in fleet.rolls:
            assert roll == sorted(set(roll))
        assert len(fleet.published) == 1


class TestNamedSchedules:
    def test_budget_exhaustion_degrades_then_recovers(self):
        # The schedule the 5.4 s real-fleet test used to wait out.
        fleet = Fleet(workers=2, budget=1, window_s=4.0)
        fleet.advance(0.5)
        fleet.act(("crash", 0))
        fleet.act(("crash", 1))
        fleet.advance(1.0)  # both backoffs (<= 0.625 s) have passed
        status = fleet.sup.status()
        assert status["alive"] == 1  # one restart fit the budget
        assert status["budget_tripped"] and status["budget_refused"] >= 1
        assert any("restart budget exhausted (1/4s); degraded to 1 "
                   "worker(s)" in line for line in fleet.logs)
        fleet.advance(2.0)
        assert fleet.sup.status()["alive"] == 1  # still inside the window
        fleet.advance(2.0)  # the window has slid
        status = fleet.sup.status()
        assert status["alive"] == 2 and status["budget_refused"] == 1
        fleet.advance(0.1)
        assert fleet.sup.status()["ready"] == 2

    def test_failures_reset_only_after_stable_uptime(self):
        fleet = Fleet(budget=4)
        for expected in (1, 2, 3):
            fleet.advance(BACKOFF.stable_after_s - 5.5)
            fleet.act(("crash", 0))
            assert fleet.sup.slots[0].consecutive_failures == expected
        assert fleet.sup.slots[0].restart_at - fleet.now >= 2.0
        fleet.run(5.0)  # restarted at most 2.5 s after the crash
        fleet.advance(BACKOFF.stable_after_s)
        fleet.act(("crash", 0))
        assert fleet.sup.slots[0].consecutive_failures == 1

    def test_wedged_and_never_ready_workers_are_killed_once(self):
        fleet = Fleet()
        fleet.advance(0.5)
        fleet.act(("wedge", 1))
        fleet.advance(HEARTBEAT_TIMEOUT)
        assert not fleet.procs[1].signals  # silent for exactly the limit
        fleet.advance(0.01)
        fleet.feed("tick")  # the reap lags: still no second SIGKILL
        assert fleet.procs[1].signals == [signal.SIGKILL]
        fleet.act(("mute_spawns", 1))
        fleet.run(2.0)  # reaped, backed off, respawned mute
        assert fleet.sup.slots[1].state == STARTING
        fleet.advance(BOOT_GRACE - 2.0)
        assert not fleet.procs[1].signals
        fleet.advance(2.5)
        assert fleet.procs[1].signals == [signal.SIGKILL]
        assert fleet.sup.wedge_kills == 2 and fleet.sup.crashes == 1
        fleet.advance(0.1)
        assert fleet.sup.crashes == 2  # a kill counts once it is reaped

    def test_roll_is_one_at_a_time_in_order_and_free(self):
        fleet = Fleet()
        fleet.advance(0.5)
        fleet.act(("hup",))
        fleet.act(("hup",))  # a second HUP mid-roll is absorbed
        for _ in range(12):
            fleet.advance(0.1)
            states = [s.state for s in fleet.sup.slots]
            # Capacity never drops by more than one worker.
            assert states.count(READY) >= 2, states
        assert fleet.rolls == [[0, 1, 2]]
        assert not fleet.sup.status()["rolling"]
        assert fleet.sup.budget.spent == 0 and fleet.sup.crashes == 0

    def test_roll_kills_a_slot_that_ignores_drain_then_moves_on(self):
        fleet = Fleet()
        fleet.advance(0.5)
        fleet.act(("stubborn", 0))
        fleet.act(("hup",))
        fleet.advance(0.1)
        fleet.advance(DRAIN_GRACE + 4.9)
        assert fleet.procs[0].signals == [signal.SIGTERM]
        fleet.advance(0.2)
        fleet.feed("tick")  # the reap lags: still no second SIGKILL
        assert fleet.procs[0].signals == [signal.SIGTERM, signal.SIGKILL]
        assert fleet.drained == [0]
        fleet.run(6.0)
        assert fleet.drained == [0, 1, 2]

    def test_roll_does_not_stall_behind_a_crashed_replacement(self):
        fleet = Fleet()
        fleet.advance(0.5)
        fleet.act(("hup",))
        fleet.advance(0.1)
        fleet.act(("fail_spawns", 1))
        fleet.advance(0.1)  # slot 0 drains; its replacement cannot fork
        assert fleet.sup.slots[0].state == DOWN
        assert fleet.drained == [0, 1]  # moved on within the same tick
        fleet.run(5.0)
        assert fleet.drained == [0, 1, 2]
        assert [s.state for s in fleet.sup.slots] == [READY] * 3
        assert fleet.sup.budget.spent == 1  # slot 0's restart, not the roll

    def test_stop_drains_kills_stragglers_and_spawns_nothing(self):
        fleet = Fleet(budget=1)
        fleet.advance(0.5)
        fleet.act(("crash", 2))  # DOWN when the stop arrives
        fleet.act(("stubborn", 1))
        fleet.act(("stop",))
        assert {i: p.signals for i, p in fleet.procs.items()} == {
            0: [signal.SIGTERM], 1: [signal.SIGTERM]}
        fleet.advance(0.1)
        assert fleet.sup.slots[0].state == STOPPED
        fleet.advance(DRAIN_GRACE + 5.0)
        assert fleet.procs[1].signals == [signal.SIGTERM, signal.SIGKILL]
        fleet.advance(0.1)
        assert not fleet.procs and fleet.sup.status()["alive"] == 0
        assert fleet.sup.budget.spent == 0  # slot 2 was never restarted


class TestPortFile:
    def test_published_once_when_the_first_worker_is_ready(self):
        fleet = Fleet()
        for proc in fleet.procs.values():
            proc.beats = False  # booting: building --warm routes
        fleet.run(BOOT_GRACE)
        assert fleet.published == []  # nothing listens yet
        assert [s.state for s in fleet.sup.slots] == [STARTING] * 3
        fleet.run(4.0)  # killed as never ready; the restarts beat
        assert len(fleet.published) == 1
        fleet.act(("crash", 0))
        fleet.act(("hup",))
        fleet.run(10.0)
        assert len(fleet.published) == 1  # a restart does not rewrite it

    def test_the_first_slot_to_beat_publishes_it(self):
        fleet = Fleet()
        fleet.procs[0].beats = fleet.procs[1].beats = False
        fleet.advance(0.5)
        assert fleet.published == [fleet.now]
        assert [s.state for s in fleet.sup.slots] == [STARTING, STARTING,
                                                      READY]
        assert any(line.startswith("worker 2 ") and line.endswith("ready")
                   for line in fleet.logs)

    def test_a_fleet_stopped_while_booting_publishes_nothing(self):
        fleet = Fleet()
        for proc in fleet.procs.values():
            proc.beats = False
        fleet.advance(0.5)
        fleet.act(("stop",))
        fleet.run(DRAIN_GRACE + 5.0 + 2.0)
        assert not fleet.procs
        assert fleet.published == []


class TestFailedFork:
    def test_spawn_failure_backs_off_and_keeps_the_budget_spent(self):
        fleet = Fleet(budget=2)
        fleet.advance(0.5)
        fleet.act(("crash", 0))
        fleet.act(("fail_spawns", 2))
        fleet.advance(1.0)  # restart attempt 1 cannot fork
        slot = fleet.sup.slots[0]
        assert slot.state == DOWN and slot.consecutive_failures == 2
        assert fleet.sup.budget.spent == 1  # not refunded
        assert fleet.sup.crashes == 1  # a failed fork is not a crash
        assert any("worker 0 could not be forked" in line
                   for line in fleet.logs)
        fleet.advance(2.0)  # nor can attempt 2; the budget is now empty
        assert slot.consecutive_failures == 3
        assert fleet.sup.budget.spent == 2
        assert fleet.sup.status()["alive"] == 2  # the others never noticed
        fleet.run(40.0)  # the window slides; attempt 3 forks
        assert slot.state == READY

    def test_spawn_with_fork_raising_leaks_no_fd(self, monkeypatch):
        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        sup = Supervisor(ServeConfig(), workers=2, backoff=BACKOFF)
        before = sorted(os.listdir("/proc/self/fd"))
        slot = sup.slots[1]
        sup._start(slot, 50.0)
        sup._spawn(slot, 50.0)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert slot.state == DOWN and slot.pid is None
        assert sup._shell.pid(slot.index) is None
        assert slot.consecutive_failures == 1
        assert 50.5 <= slot.restart_at <= 50.625
        assert sup.budget.spent == 0
