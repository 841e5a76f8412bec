"""The isolated-measurement executor: a crash-tolerant leased work queue.

The search is the expensive offline half of the system (§4: every
candidate formula is compiled and *executed* to be timed), and the
generated code it executes is untrusted: a miscompiled codelet can
segfault, spin forever, allocate without bound or emit NaN.  This
module is the one place that creates processes for measurement.  A
coordinator fans tasks over long-lived forked workers (every worker
under the policy's ``RLIMIT_AS`` cap) and survives every failure mode
a hostile candidate or an unlucky host can produce:

* **Leases** — a task handed to a worker is *leased*, not gone.  The
  lease clock starts when the task's ``prepare`` step (the host
  compiler, which bounds itself) has returned, so it budgets execution
  only.  A worker that wedges past the lease or stops heartbeating is
  SIGKILLed and its task settles as a ``hang``.
* **One retry rule** — an attempt that ends without a verdict (the
  worker died: segfault, OOM killer, chaos SIGKILL; or the task
  function raised) is retried under exponential backoff up to
  ``max_attempts``, because the cause may lie outside the candidate;
  a lease expiry is terminal at once, because waiting the same timeout
  again cannot end differently.
* **Poison cap** — a task out of attempts is quarantined as a
  structured :class:`~repro.perfeval.sandbox.CandidateFailure` naming
  the last cause (for a lost worker: the signal that killed it), and
  the queue moves on.
* **Journal** — every completed result is appended to a checksummed,
  append-only JSONL journal *before* it is surfaced, so a coordinator
  crash (or Ctrl-C) loses nothing: a restarted run replays the
  journal, counts the replays, and resumes from the remaining keys.
  Corrupt or truncated journal lines (a crash mid-append, bit rot) are
  skipped and counted, never fatal.
* **Exactly-once results** — a lease reclaimed from a worker that had
  in fact finished (the race is unavoidable) can produce a second
  completion; the coordinator keeps the first and counts the
  duplicate, so downstream consumers never see a key twice.

The worker body is deliberately dumb: receive a task, run
``prepare`` then ``task_fn``, send the result, heartbeat from a side
thread while running.  Anything smart — retries, quarantine,
persistence — lives in the coordinator, where a bug cannot be killed
by a segfault.

Chaos: :class:`SearchChaos` (env ``SPL_SEARCH_CHAOS``, e.g.
``kill=0.3,seed=7``) makes workers SIGKILL themselves immediately
before executing a doomed task's first attempt — deterministic per
(key, seed), so an injected kill is always retried into a success and
an end-to-end run still converges.
"""

from __future__ import annotations

import collections
import faulthandler
import hashlib
import math
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.perfeval.ccompile import CCompileError
from repro.perfeval.sandbox import (
    CandidateFailure,
    Quarantine,
    SandboxPolicy,
    default_quarantine,
    sandbox_supported,
)
from repro.wisdom.store import append_journal, read_journal

try:  # POSIX-only; without it workers simply run uncapped
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

#: Environment variable carrying the search chaos spec (mirrors the
#: serving fleet's ``SPL_CHAOS`` convention).
SEARCH_CHAOS_ENV = "SPL_SEARCH_CHAOS"

_STOP = ("stop",)


#: Failure kind by the exception a task raised (first match; else "error").
_FAILURE_KINDS = ((MemoryError, "memory"), (CCompileError, "compile"))


# ---------------------------------------------------------------------------
# Chaos injection.
# ---------------------------------------------------------------------------


def parse_spec(text: str, keys: dict[str, Callable[[str], Any]],
               ) -> dict[str, Any]:
    """Parse a ``key=value,...`` fault spec (``SPL_CHAOS``,
    ``SPL_SEARCH_CHAOS``) into ``{key: keys[key](value)}``.

    Only keys the text names appear in the result, so "absent" and
    "zero" stay distinct (``seed=0`` is a seed).  A malformed element,
    an unknown key or a rejected value raises ``ValueError`` — a typo'd
    spec that silently injected nothing would report fake resilience.
    """
    values: dict[str, Any] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        try:
            if not sep:
                raise ValueError("want key=value")
            if key not in keys:
                raise ValueError(f"unknown key {key!r}")
            values[key] = keys[key](value)
        except ValueError as exc:
            raise ValueError(
                f"bad fault-spec element {part!r}: {exc}") from None
    return values


def spec_rate(value: str) -> float:
    """A per-event probability in a fault spec: a float in [0, 1]."""
    rate = float(value)
    if not 0 <= rate <= 1:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    return rate


@dataclass(frozen=True)
class SearchChaos:
    """Deterministic worker-kill injection for the search queue.

    ``kill_rate`` of task keys are doomed: a worker about to execute
    such a key SIGKILLs itself instead — but only for the first
    ``kill_attempts`` attempts of that key, so the lease/retry
    machinery always converges.  The doomed set is a pure function of
    (key, seed): every worker, every restart, every test run agrees on
    which keys die, which is what makes "distributed equals serial"
    assertable under injected faults.
    """

    kill_rate: float = 0.0
    kill_attempts: int = 1
    seed: int = 0

    @property
    def enabled(self) -> bool:
        return self.kill_rate > 0

    def should_kill(self, key: str, attempt: int) -> bool:
        if not self.enabled or attempt > self.kill_attempts:
            return False
        digest = hashlib.sha256(f"{self.seed}:{key}".encode()).digest()
        draw = int.from_bytes(digest[:4], "big") / 2 ** 32
        return draw < self.kill_rate

    @classmethod
    def from_spec(cls, spec: str) -> "SearchChaos":
        """Parse ``kill=RATE[,attempts=N][,seed=N]`` (typos raise).

        A spec without ``seed=`` is unseeded: the doomed set is drawn
        afresh (and :meth:`to_spec` names the seed that was drawn).
        """
        values = parse_spec(spec, {"kill": spec_rate, "attempts": int,
                                   "seed": int})
        return cls(kill_rate=values.get("kill", 0.0),
                   kill_attempts=values.get("attempts", 1),
                   seed=values.get("seed", random.getrandbits(32)))

    def to_spec(self) -> str:
        return (f"kill={self.kill_rate},attempts={self.kill_attempts},"
                f"seed={self.seed}")

    @classmethod
    def from_env(cls, environ=os.environ) -> "SearchChaos | None":
        spec = environ.get(SEARCH_CHAOS_ENV, "").strip()
        if not spec:
            return None
        return cls.from_spec(spec)


# ---------------------------------------------------------------------------
# The journal.
# ---------------------------------------------------------------------------


@dataclass
class JournalReplay:
    """What :meth:`TaskJournal.replay` recovered from disk."""

    results: dict[str, Any] = field(default_factory=dict)
    corrupt_lines: int = 0  # bad JSON / failed checksum (truncation)
    duplicate_keys: int = 0  # later lines for an already-seen key


class TaskJournal:
    """Append-only, per-line-checksummed completion log.

    The wisdom store's journal format and code
    (:func:`~repro.wisdom.store.read_journal`,
    :func:`~repro.wisdom.store.append_journal`): one
    ``{"key", "result", "sha"}`` line per completion, flushed and
    ``fsync``ed line-at-a-time, so a coordinator killed mid-run — or a
    power cut — loses at most the line being written, and that line
    fails its checksum (or does not parse) on replay and is skipped,
    never trusted; the next append starts a fresh line after it.  The
    file is only ever appended to; dedup on replay keeps the *first*
    record for a key, so a journal assembled across crashes and
    restarts still yields exactly one result per key.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.appends = 0
        self.append_errors = 0

    def replay(self) -> JournalReplay:
        """Recover completed results; never raises for a damaged file."""
        lines, bad = read_journal(self.path)
        replay = JournalReplay(corrupt_lines=bad)
        for key, result in lines:
            if key in replay.results:
                replay.duplicate_keys += 1
            else:
                replay.results[key] = result
        return replay

    def append(self, key: str, result: Any) -> bool:
        """Record one completion so that it outlives this process and
        a power cut; False on an unwritable path or a failed sync.

        Failure to journal must never lose the in-memory result or
        abort the run — it just means a crash after this point would
        re-measure the key.
        """
        try:
            append_journal(self.path, key, result)
        except (OSError, TypeError, ValueError):
            self.append_errors += 1
            return False
        self.appends += 1
        return True


# ---------------------------------------------------------------------------
# The outcome type.
# ---------------------------------------------------------------------------


@dataclass
class QueueOutcome:
    """Everything one :meth:`TaskQueueCoordinator.run` produced."""

    results: dict[str, Any] = field(default_factory=dict)
    failures: dict[str, CandidateFailure] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The worker body.
# ---------------------------------------------------------------------------


def _limit_memory(memory_mb: int) -> None:
    if resource is None or memory_mb <= 0:
        return
    limit = memory_mb * 1024 * 1024
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (OSError, ValueError):  # pragma: no cover - exotic rlimit state
        pass


def _worker_main(conn, task_fn: Callable[[dict], Any],
                 prepare: Callable[[dict], dict] | None,
                 policy: SandboxPolicy,
                 chaos: SearchChaos | None) -> None:
    """Receive tasks, run them, heartbeat while running, report.

    Runs in a forked child.  ``conn`` sends are serialized by a lock
    (the heartbeat thread and the task loop share the pipe).  A task
    whose ``prepare`` or ``task_fn`` raises reports a ``fail`` message
    — the coordinator decides whether to retry; a task that crashes the
    process reports nothing, which the coordinator observes as EOF plus
    the exit signal.
    """
    # The parent's fault handler (pytest, ``-X faulthandler``) would
    # dump the *parent's* inherited stack when a candidate segfaults;
    # the crash is reported structurally by the coordinator instead.
    faulthandler.disable()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (OSError, ValueError):  # pragma: no cover
            pass
    _limit_memory(policy.memory_mb)
    send_lock = threading.Lock()

    def send(message: tuple) -> bool:
        with send_lock:
            try:
                conn.send(message)
                return True
            except (OSError, ValueError, BrokenPipeError):
                return False

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # coordinator is gone: die quietly
        if message[0] == "stop":
            return
        _, key, payload, attempt = message
        if chaos is not None and chaos.should_kill(key, attempt):
            os.kill(os.getpid(), signal.SIGKILL)
        done = threading.Event()

        def beat(task_key: str = key) -> None:
            while not done.wait(policy.heartbeat_interval):
                if not send(("beat", task_key)):
                    return

        beater = threading.Thread(target=beat, daemon=True)
        beater.start()
        try:
            if prepare is not None:
                payload = prepare(payload)
                send(("ready", key))
            result = task_fn(payload)
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            done.set()
            kind = next((kind for cls, kind in _FAILURE_KINDS
                         if isinstance(exc, cls)), "error")
            sent = send(("fail", key, kind,
                         f"{type(exc).__name__}: {exc}"[:2000]))
        else:
            done.set()
            sent = send(("done", key, result))
        finally:
            done.set()
            beater.join(timeout=1.0)
        if not sent:
            return


# ---------------------------------------------------------------------------
# The coordinator: a decision core behind a thin I/O loop.
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    """The core's view of one worker slot: its lease, nothing else."""

    key: str | None = None  # leased task, None when idle
    leased_at: float = 0.0
    last_beat: float = 0.0


class TaskQueueCoordinator:
    """Fan tasks over forked workers; lease, journal, retry, quarantine.

    ``task_fn(payload) -> result`` runs inside the worker process under
    the lease and must return something JSON-serializable (the journal
    stores it verbatim).  ``prepare(payload) -> payload`` — optional —
    runs in the worker first and *outside* the lease (it must bound
    itself, as the host compiler does); its return value is what
    ``task_fn`` receives.  Either one raising counts as a failed
    attempt and is retried under backoff like a lost worker; code that
    wants a failure to be a *terminal data point* (e.g. "this candidate
    emits NaN") should return a structured result instead.

    Two halves.  :meth:`decide` is the **decision core**: a function of
    (this object's state, one event, ``now``) that updates the state
    and returns plain-data effects; it never reads a clock, forks,
    kills, sends or waits, so the retry rule, the leases and the
    exactly-once contract run under a simulated clock
    (``tests/search/test_queue_schedule.py``).

    ======================================  ============================
    event                                   effect
    ======================================  ============================
    ``("message", worker, msg)``            ``("send", worker, key, attempt)``
    ``("worker_died", worker, sig, code)``  ``("kill", worker)``
    ``("tick",)``                           ``("spawn", worker)``
    ..                                      ``("journal", key, result)``
    ..                                      ``("settle", key, value)``
    ======================================  ============================

    :meth:`run` is the **I/O loop**: it reads the clock once per
    iteration, turns pipe traffic and dead processes into events and
    performs the effects (``settle`` writes the outcome and, for a
    failure, the quarantine).
    """

    def __init__(self, task_fn: Callable[[dict], Any], *,
                 prepare: Callable[[dict], dict] | None = None,
                 workers: int = 2,
                 policy: SandboxPolicy | None = None,
                 journal: TaskJournal | None = None,
                 quarantine: Quarantine | None = None,
                 chaos: SearchChaos | None = None):
        if not sandbox_supported():
            raise RuntimeError(
                "isolated measurement needs POSIX fork "
                "(measure in-process here)")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.task_fn = task_fn
        self.prepare = prepare
        self.workers = workers
        self.policy = policy or SandboxPolicy()
        self.journal = journal
        self.quarantine = (quarantine if quarantine is not None
                           else default_quarantine())
        self.chaos = chaos if chaos is not None else SearchChaos.from_env()
        self.stats: dict[str, int] = collections.defaultdict(int)

    # -- the decision core ---------------------------------------------

    def _begin(self, tasks: dict[str, dict]) -> list[tuple]:
        """Settle what the journal and the quarantine already know,
        open the rest, and staff the first workers."""
        self._tasks = tasks
        outcome = self._outcome = QueueOutcome()
        self._pending: collections.deque[str] = collections.deque()
        self._attempts = {key: 0 for key in tasks}
        # Last observed (kind, detail, signal) per key, so the eventual
        # CandidateFailure names the real reason, not a generic one.
        self._last_cause: dict[str, tuple[str, str, int | None]] = {}
        self._ready_at: dict[str, float] = {}
        self._slots: dict[int, _Worker] = {}
        replayed: dict[str, Any] = {}
        if self.journal is not None:
            replay = self.journal.replay()
            self.stats["journal_corrupt_lines"] += replay.corrupt_lines
            self.stats["journal_duplicates"] += replay.duplicate_keys
            replayed = replay.results
        for key in tasks:
            if key in replayed:
                outcome.results[key] = replayed[key]
                self.stats["journal_replayed"] += 1
                continue
            known = self.quarantine.check(key)
            if known is not None:
                outcome.failures[key] = known
                self.stats["quarantine_skips"] += 1
                continue
            self._pending.append(key)
        self._open = set(self._pending)  # pending or leased, not settled
        self.stats["tasks_total"] += len(tasks)
        return [self._staff(wid)
                for wid in range(min(self.workers, len(self._pending)))]

    def decide(self, event: tuple, now: float) -> list[tuple]:
        """Apply one event at time ``now``; return the effects to perform."""
        return getattr(self, f"_on_{event[0]}")(now, *event[1:])

    def _staff(self, wid: int) -> tuple:
        self._slots[wid] = _Worker()
        self.stats["workers_spawned"] += 1
        return ("spawn", wid)

    def _poison(self, key: str) -> list[tuple]:
        kind, detail, signum = self._last_cause[key]
        self._open.discard(key)
        self.stats["poisoned"] += 1
        return [("settle", key, CandidateFailure(
            kind=kind, plan_key=key, detail=detail, signal=signum,
            attempts=self._attempts[key]))]

    def _retry_or_poison(self, key: str, now: float) -> list[tuple]:
        if self._attempts[key] >= self.policy.max_attempts:
            return self._poison(key)
        self._ready_at[key] = now + self.policy.backoff_s(
            self._attempts[key])
        self._pending.append(key)
        self.stats["retries"] += 1
        return []

    def _reclaim(self, now: float, wid: int, reason: str,
                 cause: tuple) -> list[tuple]:
        """Take back ``wid``'s lease — a crash is retried, a hang is
        terminal — and restaff the slot only while work remains."""
        key = self._slots.pop(wid).key
        effects: list[tuple] = []
        if key in self._open:
            self.stats[f"reclaims_{reason}"] += 1
            self._last_cause[key] = cause
            effects = (self._retry_or_poison(key, now)
                       if reason == "dead" else self._poison(key))
        if self._open:
            effects.append(self._staff(wid))
        return effects

    def _on_worker_died(self, now: float, wid: int, signum: int | None,
                        exitcode: int | None) -> list[tuple]:
        # Crash, chaos SIGKILL, rlimit, OOM killer.
        self.stats["worker_deaths"] += 1
        how = (f"killed by signal {signum}" if signum is not None
               else f"exited with code {exitcode}")
        return self._reclaim(now, wid, "dead",
                             ("crash", f"worker {how}", signum))

    def _on_message(self, now: float, wid: int,
                    message: tuple) -> list[tuple]:
        worker = self._slots[wid]
        kind, key = message[:2]
        if kind == "beat":
            worker.last_beat = now
            return []
        if kind == "ready":
            if worker.key == key:
                worker.leased_at = now
            return []
        if worker.key == key:
            worker.key = None
        if key not in self._open:
            # A reclaimed lease finished anyway: the first settlement
            # stands, the duplicate is counted.
            self.stats["duplicates_ignored"] += 1
            return []
        if kind == "done":
            self._open.discard(key)
            self.stats["completed"] += 1
            return [("journal", key, message[2]),
                    ("settle", key, message[2])]
        self.stats["task_errors"] += 1
        self._last_cause[key] = (message[2], message[3], None)
        return self._retry_or_poison(key, now)

    def _on_tick(self, now: float) -> list[tuple]:
        policy = self.policy
        effects: list[tuple] = []
        # Lease and heartbeat enforcement.
        for wid, worker in list(self._slots.items()):
            if worker.key is None:
                continue
            if now - worker.leased_at > policy.timeout:
                reason, limit = "wedged", policy.timeout
            elif now - worker.last_beat > policy.heartbeat_timeout:
                reason, limit = "silent", policy.heartbeat_timeout
            else:
                continue
            self.stats["workers_killed"] += 1
            effects.append(("kill", wid))
            effects += self._reclaim(now, wid, reason, (
                "hang", f"worker {reason}: nothing within {limit:g}s",
                None))
        # Assign ready tasks to idle workers.
        for wid, worker in self._slots.items():
            if worker.key is not None:
                continue
            key = next((k for k in self._pending
                        if now >= self._ready_at.get(k, 0.0)), None)
            if key is None:
                break  # everything pending is backing off
            self._pending.remove(key)
            self._attempts[key] += 1
            worker.key = key
            # With a prepare step the lease clock starts at the
            # worker's "ready"; until then only heartbeats watch.
            worker.leased_at = now if self.prepare is None else math.inf
            worker.last_beat = now
            effects.append(("send", wid, key, self._attempts[key]))
        return effects

    def _poll_timeout(self, now: float) -> float:
        horizon = now + 0.5
        for worker in self._slots.values():
            if worker.key is not None:
                horizon = min(
                    horizon,
                    worker.leased_at + self.policy.timeout,
                    worker.last_beat + self.policy.heartbeat_timeout,
                )
        for key in self._pending:
            horizon = min(horizon, self._ready_at.get(key, horizon))
        return max(0.01, horizon - now)

    # -- the I/O loop: events in, effects out --------------------------

    def _spawn_worker(self) -> tuple:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.task_fn, self.prepare, self.policy,
                  self.chaos),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _reap(self, proc, conn, *, grace: float) -> int | None:
        """Collect a worker, SIGKILLing it if it outlives ``grace``.

        Returns its exit code (negative: the signal that ended it).  A
        worker that closed its pipe gets a moment to be reaped first,
        so the signal reported is its own (SIGSEGV, the OOM killer's
        SIGKILL) rather than ours.
        """
        proc.join(grace)
        if proc.exitcode is None:
            proc.kill()
            proc.join(5.0)
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
        return proc.exitcode

    def _died(self, wid: int) -> tuple:
        """Reap the dead worker in ``wid``; the event that reports it."""
        code = self._reap(*self._procs.pop(wid), grace=1.0)
        signum = -code if code is not None and code < 0 else None
        return ("worker_died", wid, signum, code)

    def _feed(self, event: tuple, now: float) -> None:
        """Decide on one event and perform what the core asks for."""
        for kind, *args in self.decide(event, now):
            if kind == "settle":
                key, value = args
                if isinstance(value, CandidateFailure):
                    self.quarantine.add(value)
                    self._outcome.failures[key] = value
                else:
                    self._outcome.results[key] = value
            elif kind == "journal":
                if self.journal is not None:
                    self.journal.append(*args)
            elif kind == "spawn":
                self._procs[args[0]] = self._spawn_worker()
            elif kind == "kill":
                self._reap(*self._procs.pop(args[0]), grace=0.0)
            else:
                wid, key, attempt = args
                try:
                    self._procs[wid][1].send(
                        ("task", key, self._tasks[key], attempt))
                except (OSError, ValueError, BrokenPipeError):
                    # Worker died between assignments.
                    self._feed(self._died(wid), now)

    def _wait(self, timeout: float) -> list[tuple]:
        """Block for pipe traffic or ``timeout``; what arrived, as events."""
        import multiprocessing.connection as mpc

        wids = {conn: wid for wid, (_, conn) in self._procs.items()}
        try:
            ready = mpc.wait(list(wids), timeout)
        except OSError:  # pragma: no cover - torn-down conn
            ready = []
        events = []
        for conn in ready:
            try:
                while conn.poll(0):
                    events.append(("message", wids[conn], conn.recv()))
            except (EOFError, OSError):
                events.append(self._died(wids[conn]))
        return events

    def run(self, tasks: dict[str, dict]) -> QueueOutcome:
        """Execute every task exactly once; blocks until all settle.

        ``tasks`` maps stable string keys to JSON-serializable
        payloads.  Keys already completed in the journal are replayed
        without running anything; keys already quarantined return
        their remembered failure.  The outcome holds one entry per
        key — in ``results`` or in ``failures`` — with zero losses and
        zero duplicates by construction.
        """
        self._procs: dict[int, tuple] = {}
        try:
            for _, wid in self._begin(tasks):
                self._procs[wid] = self._spawn_worker()
            events: list[tuple] = []
            while self._open:
                now = time.monotonic()  # the loop's one clock read
                for event in (*events, ("tick",)):
                    self._feed(event, now)
                events = (self._wait(self._poll_timeout(now))
                          if self._open else [])
        finally:
            for proc, conn in self._procs.values():
                try:
                    conn.send(_STOP)
                except (OSError, ValueError, BrokenPipeError):
                    pass
                self._reap(proc, conn, grace=1.0)
        self._outcome.stats = dict(self.stats)
        return self._outcome
