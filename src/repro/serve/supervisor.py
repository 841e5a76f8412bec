"""Supervised multi-process serving: the ``spl serve --workers N`` fleet.

One asyncio event loop saturates around a few thousand requests/sec
and — worse — is a single point of failure: one segfaulting batch
takes the whole service down.  This module runs the service as a
*fleet*:

::

    supervisor (parent)
      |  fork x N                 SIGTERM -> graceful drain
      |  one socket per worker    SIGHUP  -> rolling restart
      |  heartbeats, EOF + reap   crash   -> backoff + restart budget
      v
    worker 0 .. worker N-1        each: SplServer on its own
                                  SO_REUSEPORT listener bound to the
                                  same (host, port); the kernel
                                  load-balances connections

**Crash recovery.**  The parent watches workers two ways, both over
the worker's one socket (:mod:`repro.runtime.workers`): EOF plus the
reaped exit status (a crash or a completed drain) and heartbeats (each
worker's event loop sends one every ``heartbeat_interval``; a
silent-but-alive worker is *wedged* — its loop is stuck even though the
process lives — and is SIGKILLed).
Dead workers restart under exponential backoff with jitter, and
a fleet-wide **restart budget** (a sliding window) breaks the
crash-restart-crash flap: once the window fills, further restarts are
refused and the fleet *degrades to fewer workers* until the window
slides clear, rather than burning CPU relaunching a doomed binary.

**Graceful drain.**  SIGTERM/SIGINT forwards SIGTERM to every worker;
each stops accepting, answers every request already admitted (via
``SplServer.drain`` over the dispatcher's drain hooks), then exits 0.
SIGHUP is a **rolling restart**: workers are drained and replaced one
at a time, so fleet capacity never drops by more than one worker.

The supervisor itself does no request work and holds no plan state —
it is a decision core over the shared worker shell, which can only fail
simple ways, which is the point: the blast radius of any serving bug
is one worker process.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import os
import random
import signal
import socket
import sys
import time
from dataclasses import dataclass

from repro.runtime.backoff import backoff_delay
from repro.serve.chaos import injector_from_env
from repro.serve.plans import PlanKey, PlanRegistry
from repro.wisdom.store import WisdomStore, atomic_write

_HEARTBEAT = ("beat",)
#: Seconds between a worker's beats; a heartbeat timeout must exceed it.
HEARTBEAT_INTERVAL_S = 0.5


def fork_supported() -> bool:
    """Can this host run the supervisor at all: fork workers, and let
    them share one port?"""
    # Imported here: single-process ``spl serve`` never loads the shell.
    from repro.runtime.workers import supported

    return supported() and hasattr(socket, "SO_REUSEPORT")


# ---------------------------------------------------------------------------
# Shared serve configuration + the worker side.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeConfig:
    """Everything needed to stand up one :class:`SplServer`.

    Built once from the CLI arguments and shared by the single-process
    path and every forked worker, so a worker is guaranteed to serve
    exactly what ``spl serve`` without ``--workers`` would have.
    """

    host: str = "127.0.0.1"
    port: int = 0
    warm: tuple[PlanKey, ...] = ()
    wisdom_path: str | None = None
    pack_path: str | None = None
    prefer: str | None = None
    max_batch: int = 64
    queue_limit: int = 256
    drain_grace_s: float = 30.0


def _boot_wisdom(config: ServeConfig):
    """(wisdom store or None, source label) for one server boot.

    A ``--pack`` pack is preferred over ``--wisdom``: packs are the
    deployment artifact (read-only, integrity-checked, optionally
    carrying compiled ``.so`` files).  Pack problems *never* crash the
    boot — every diagnostic goes to stderr and the server degrades to
    the plain wisdom store, or to no wisdom at all (estimate /
    search-on-demand), exactly as if the pack had not been shipped.
    """
    if config.pack_path:
        from repro.wisdom.pack import load_pack

        result = load_pack(config.pack_path)
        for diagnostic in result.diagnostics:
            print(f"spl serve: pack {config.pack_path}: "
                  f"{diagnostic.describe()}", file=sys.stderr,
                  flush=True)
        if result.store is not None and len(result.store):
            print(f"spl serve: booting from pack {config.pack_path} "
                  f"({result.entries_loaded} entries, "
                  f"{result.artifacts_installed} artifacts installed)",
                  file=sys.stderr, flush=True)
            return result.store, "pack"
        print(f"spl serve: pack {config.pack_path} unusable; "
              f"degrading to "
              f"{'--wisdom store' if config.wisdom_path else 'no wisdom'}",
              file=sys.stderr, flush=True)
    if config.wisdom_path:
        return WisdomStore(config.wisdom_path), "store"
    return None, "none"


def build_server(config: ServeConfig, *, reuse_port: bool = False):
    """A fresh :class:`SplServer` from one :class:`ServeConfig`."""
    from repro.serve.server import SplServer

    wisdom, wisdom_source = _boot_wisdom(config)
    registry = PlanRegistry(prefer=config.prefer, wisdom=wisdom,
                            wisdom_source=wisdom_source)
    return SplServer(registry, host=config.host, port=config.port,
                     warm=list(config.warm), max_batch=config.max_batch,
                     queue_limit=config.queue_limit, reuse_port=reuse_port,
                     chaos=injector_from_env())


def run_worker(config: ServeConfig, *, reuse_port: bool = False,
               heartbeat=None,
               heartbeat_interval: float = HEARTBEAT_INTERVAL_S,
               port_file: str | None = None,
               label: str = "spl serve") -> int:
    """One serving process, drained gracefully on SIGTERM/SIGINT/SIGHUP.

    This is both the supervised worker body (``heartbeat`` is its
    :class:`~repro.runtime.workers.Conn`, ``reuse_port=True``) and the
    whole of single-process ``spl serve`` — so Ctrl-C and orchestrator
    stop get the same stop-accepting / answer-everything-admitted /
    exit-0 sequence in both modes.
    """
    return asyncio.run(_worker_amain(
        config, reuse_port=reuse_port, heartbeat=heartbeat,
        heartbeat_interval=heartbeat_interval, port_file=port_file,
        label=label))


async def _worker_amain(config: ServeConfig, *, reuse_port: bool,
                        heartbeat,
                        heartbeat_interval: float,
                        port_file: str | None,
                        label: str) -> int:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # platform/thread without signal support

    server = build_server(config, reuse_port=reuse_port)
    host, port = await server.start()
    if port_file is not None:
        _publish_port(port_file, host, port)
    print(f"{label}: pid {os.getpid()} listening on {host}:{port} "
          f"(prefer={server.registry.prefer})",
          file=sys.stderr, flush=True)

    beat_task = None
    if heartbeat is not None:
        heartbeat.sock.setblocking(False)
        beat_frame = heartbeat.frame(_HEARTBEAT)

        async def beat() -> None:
            while True:
                try:
                    # Awaited, not blocking: a supervisor that stops
                    # reading (a socket holds ~280 beats) delays beats,
                    # never requests.
                    await loop.sock_sendall(heartbeat.sock, beat_frame)
                except OSError:
                    # Supervisor is gone: orphaned workers drain and
                    # exit instead of serving forever unsupervised.
                    stop.set()
                    return
                await asyncio.sleep(heartbeat_interval)

        beat_task = asyncio.ensure_future(beat())

    try:
        await stop.wait()
        # One grace bounds both answering the admitted work and
        # flushing its replies to slow readers.
        deadline = time.monotonic() + config.drain_grace_s
        drained = await server.drain(grace=config.drain_grace_s)
        if not drained:
            print(f"{label}: pid {os.getpid()} drain grace expired "
                  f"with {server._inflight} in flight",
                  file=sys.stderr, flush=True)
        await server.close(grace=deadline - time.monotonic())
    finally:
        if beat_task is not None:
            beat_task.cancel()
    print(f"{label}: pid {os.getpid()} drained and stopped",
          file=sys.stderr, flush=True)
    return 0


def _publish_port(port_file: str, host: str, port: int) -> None:
    atomic_write(port_file, f"{host}:{port}\n")


# ---------------------------------------------------------------------------
# Restart policy primitives (pure logic, unit-testable).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with additive jitter for worker restarts.

    The delay before restart attempt ``k`` (1-based consecutive
    failures) is ``min(max_s, base_s * multiplier^(k-1))`` plus a
    uniform jitter draw of up to ``jitter`` of itself.  A worker that
    stayed up at least ``stable_after_s`` before dying resets the
    failure count: one crash per hour is an incident, not a flap.
    """

    base_s: float = 0.5
    multiplier: float = 2.0
    max_s: float = 15.0
    jitter: float = 0.25
    stable_after_s: float = 10.0

    def delay(self, consecutive_failures: int,
              rng: random.Random | None = None) -> float:
        return backoff_delay(max(1, consecutive_failures) - 1,
                             base=self.base_s, multiplier=self.multiplier,
                             cap=self.max_s, hi=1 + max(self.jitter, 0.0),
                             rng=rng)


class RestartBudget:
    """A fleet-wide sliding window bounding restarts per interval.

    ``try_spend(now)`` records a restart if fewer than ``budget``
    happened in the trailing ``window_s`` seconds; refusing is the
    breaker: the supervisor leaves the slot down (fewer workers, but
    no flap) and retries after :meth:`retry_after`.
    """

    def __init__(self, budget: int = 6, window_s: float = 30.0):
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.budget = int(budget)
        self.window_s = float(window_s)
        self._events: collections.deque[float] = collections.deque()
        self.spent = 0
        self.refused = 0

    def _evict(self, now: float) -> None:
        while self._events and now - self._events[0] >= self.window_s:
            self._events.popleft()

    def try_spend(self, now: float) -> bool:
        self._evict(now)
        if len(self._events) >= self.budget:
            self.refused += 1
            return False
        self._events.append(now)
        self.spent += 1
        return True

    def tripped(self, now: float) -> bool:
        self._evict(now)
        return len(self._events) >= self.budget

    def retry_after(self, now: float) -> float:
        """Seconds until the oldest windowed restart slides out."""
        self._evict(now)
        if len(self._events) < self.budget:
            return 0.0
        return max(0.0, self._events[0] + self.window_s - now)

    def remaining(self, now: float) -> int:
        """Restarts still available in the current window."""
        self._evict(now)
        return max(0, self.budget - len(self._events))


# ---------------------------------------------------------------------------
# The supervisor: a decision core behind a thin I/O loop.
# ---------------------------------------------------------------------------

# Worker slot states.
STARTING = "starting"  # forked, no heartbeat yet
READY = "ready"  # heartbeating
DRAINING = "draining"  # SIGTERM sent (rolling restart / shutdown)
DOWN = "down"  # dead, restart scheduled at slot.restart_at
STOPPED = "stopped"  # shutdown complete
_LIVE = (STARTING, READY, DRAINING)  # a process holds the slot


@dataclass
class WorkerSlot:
    """Parent-side bookkeeping for one worker position.

    ``pid`` belongs to the I/O loop (the core only quotes it in log
    lines); everything else is core state.
    """

    index: int
    pid: int | None = None
    state: str = DOWN
    started_at: float = 0.0
    last_beat: float = 0.0
    restart_at: float = 0.0
    consecutive_failures: int = 0
    restarts: int = 0
    rolling: bool = False  # mid rolling-restart
    killed: bool = False  # SIGKILL already sent to this process


class Supervisor:
    """Fork, watch, restart, drain.  Blocks in :meth:`run`.

    Two halves.  :meth:`decide` is the **decision core**: a function of
    (this object's state, one event, ``now``) that updates the state
    and returns plain-data effects; it never reads a clock, forks,
    signals or waits, so every restart / backoff / heartbeat / rolling
    rule runs under a simulated clock
    (``tests/serve/test_supervisor_schedule.py``).

    ==============================  ====================================
    event                           effect
    ==============================  ====================================
    ``("exited", slot, code)``      ``("spawn", slot)``
    ``("beat", slot)``              ``("signal", slot, SIGTERM)``
    ``("spawn_failed", slot, why)``  ``("signal", slot, SIGKILL)``
    ``("hup",)`` ``("stop",)``      ``("log", text)``
    ``("tick",)``                   ``("publish_port",)``
    ==============================  ====================================

    ``publish_port`` comes once, with the first slot to turn READY: a
    worker beats only once its listener is up, so a client that dials
    the moment ``--port-file`` appears is never refused.

    :meth:`run` is the **I/O loop**: it reads the clock once per
    iteration, turns the worker shell's events (every message is a
    beat) and signal flags into events and performs the effects.  It
    must run on the main thread of a process it owns (it installs
    signal handlers and forks); the fleet tests drive it through the
    real CLI in a subprocess.
    """

    def __init__(self, config: ServeConfig, *, workers: int,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL_S,
                 heartbeat_timeout: float = 5.0,
                 boot_grace_s: float = 60.0,
                 backoff: BackoffPolicy | None = None,
                 budget: RestartBudget | None = None,
                 port_file: str | None = None,
                 status_file: str | None = None,
                 rng: random.Random | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not fork_supported():
            raise RuntimeError(
                "supervised serving needs fork and SO_REUSEPORT "
                "(run with --workers 1 here)")
        from repro.runtime.workers import Workers

        self.config = config
        self.workers = workers
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.boot_grace_s = boot_grace_s
        self.backoff = backoff or BackoffPolicy()
        self.budget = budget or RestartBudget()
        self.port_file = port_file
        self.status_file = status_file
        self._last_status_json: str | None = None
        self._rng = rng or random.Random()
        self.slots = [WorkerSlot(index=i) for i in range(workers)]
        self._shell = Workers()
        self._reserve_sock: socket.socket | None = None
        self._stop_requested = False
        self._hup_requested = False
        self._now = 0.0  # the last clock reading the core was given
        self._stopping = False
        self._stop_deadline = 0.0
        self._roll_queue: collections.deque[int] = collections.deque()
        self._roll_slot: int | None = None
        self._roll_deadline = 0.0
        self._published = False  # the port file is written once
        self.wedge_kills = 0
        self.crashes = 0

    # -- the decision core ---------------------------------------------

    def decide(self, event: tuple, now: float) -> list[tuple]:
        """Apply one event at time ``now``; return the effects to perform."""
        self._now = now
        return getattr(self, f"_on_{event[0]}")(now, *event[1:])

    def _start(self, slot: WorkerSlot, now: float) -> tuple:
        slot.state = STARTING
        slot.started_at = slot.last_beat = now
        slot.killed = False
        return ("spawn", slot.index)

    def _kill(self, slot: WorkerSlot) -> tuple:
        slot.killed = True
        return ("signal", slot.index, signal.SIGKILL)

    def _back_off(self, slot: WorkerSlot, now: float,
                  what: str) -> list[tuple]:
        slot.consecutive_failures += 1
        delay = self.backoff.delay(slot.consecutive_failures,
                                   self._rng)
        slot.state = DOWN
        slot.restart_at = now + delay
        return [("log", f"worker {slot.index} {what}; restart in "
                        f"{delay:.2f}s (failure "
                        f"#{slot.consecutive_failures})")]

    def _on_exited(self, now: float, index: int,
                   code: int) -> list[tuple]:
        slot = self.slots[index]
        if self._stopping:
            slot.state = STOPPED
            return []
        if slot.state == DRAINING and slot.rolling:
            # Deliberate rolling replacement: no backoff, no budget.
            slot.rolling = False
            slot.consecutive_failures = 0
            return [("log", f"worker {index} drained for rolling "
                            f"restart (code {code}); replacing"),
                    self._start(slot, now)]
        # Crash, wedge-kill, or an exit nobody asked for.
        self.crashes += 1
        alive_s = now - slot.started_at
        if alive_s >= self.backoff.stable_after_s:
            slot.consecutive_failures = 0
        cause = f"signal {-code}" if code < 0 else f"code {code}"
        return self._back_off(
            slot, now, f"died ({cause}, up {alive_s:.1f}s)")

    def _on_spawn_failed(self, now: float, index: int,
                         why: str) -> list[tuple]:
        # A failed fork is one more consecutive failure of the slot:
        # normal backoff, and a budget already spent stays spent.
        return self._back_off(self.slots[index], now,
                              f"could not be forked ({why})")

    def _on_beat(self, now: float, index: int) -> list[tuple]:
        slot = self.slots[index]
        slot.last_beat = now
        if slot.state != STARTING:
            return []
        slot.state = READY
        effects = [("log", f"worker {index} (pid {slot.pid}) ready")]
        if not self._published:
            self._published = True
            effects.append(("publish_port",))
        return effects

    def _on_hup(self, now: float) -> list[tuple]:  # noqa: ARG002
        if self._roll_queue or self._roll_slot is not None:
            return []  # a roll is already in progress
        self._roll_queue.extend(range(len(self.slots)))
        return [("log",
                 f"rolling restart of {len(self.slots)} worker(s)")]

    def _on_stop(self, now: float) -> list[tuple]:
        self._stopping = True
        self._stop_deadline = now + self.config.drain_grace_s + 5.0
        alive = [s for s in self.slots if s.state in _LIVE]
        effects = [("log", f"shutting down: draining {len(alive)} "
                           f"worker(s)")]
        for slot in alive:
            slot.state = DRAINING
            effects.append(("signal", slot.index, signal.SIGTERM))
        return effects

    def _on_tick(self, now: float) -> list[tuple]:
        if not self._stopping:
            return (self._check_wedged(now) + self._advance_rolling(now)
                    + self._process_restarts(now))
        effects = []
        for slot in self.slots:
            if (now >= self._stop_deadline and slot.state in _LIVE
                    and not slot.killed):
                effects += [("log", f"worker {slot.index} ignored "
                                    f"drain; killing"),
                            self._kill(slot)]
        return effects

    def _check_wedged(self, now: float) -> list[tuple]:
        effects = []
        for slot in self.slots:
            if slot.killed:
                continue
            silent = now - slot.last_beat
            if slot.state == READY and silent > self.heartbeat_timeout:
                why = f"silent for {silent:.1f}s: wedged, killing"
            elif (slot.state == STARTING
                    and now - slot.started_at > self.boot_grace_s):
                why = "never became ready: killing"
            else:
                continue
            self.wedge_kills += 1
            effects += [("log", f"worker {slot.index} (pid {slot.pid}) "
                                f"{why}"),
                        self._kill(slot)]
        return effects

    def _advance_rolling(self, now: float) -> list[tuple]:
        if self._roll_slot is not None:
            slot = self.slots[self._roll_slot]
            if slot.state == DRAINING:
                if now <= self._roll_deadline or slot.killed:
                    return []
                return [("log", f"rolling: worker {slot.index} ignored "
                                f"drain; killing"),
                        self._kill(slot)]
            if slot.state == STARTING:
                return []  # the replacement is still booting
            # READY: the replacement is heartbeating.  DOWN: it crashed
            # at boot and the restart machinery owns the slot now — do
            # not stall the roll behind it.  Either way, next slot.
            self._roll_slot = None
        while self._roll_queue:
            slot = self.slots[self._roll_queue.popleft()]
            if slot.state not in _LIVE:
                continue  # already down; restart path owns it
            slot.state = DRAINING
            slot.rolling = True
            self._roll_slot = slot.index
            self._roll_deadline = now + self.config.drain_grace_s + 5.0
            return [("log", f"rolling: draining worker {slot.index} "
                            f"(pid {slot.pid})"),
                    ("signal", slot.index, signal.SIGTERM)]
        return []

    def _process_restarts(self, now: float) -> list[tuple]:
        effects = []
        for slot in self.slots:
            if slot.state != DOWN or now < slot.restart_at:
                continue
            if self.budget.try_spend(now):
                slot.restarts += 1
                effects.append(self._start(slot, now))
            else:
                retry = max(1.0, self.budget.retry_after(now))
                slot.restart_at = now + retry
                alive = sum(1 for s in self.slots if s.state in _LIVE)
                effects.append(("log", (
                    f"restart budget exhausted "
                    f"({self.budget.budget}/{self.budget.window_s:g}s"
                    f"); degraded to {alive} worker(s), retrying "
                    f"slot {slot.index} in {retry:.1f}s")))
        return effects

    def _poll_timeout(self, now: float) -> float:
        horizon = now + 1.0
        for slot in self.slots:
            if slot.state == DOWN:
                horizon = min(horizon, slot.restart_at)
            elif slot.state in _LIVE:
                horizon = min(
                    horizon, slot.last_beat + self.heartbeat_timeout)
        if self._roll_slot is not None:
            horizon = min(horizon, self._roll_deadline)
        if self._stopping:
            horizon = min(horizon, self._stop_deadline)
        return max(0.05, horizon - now)

    def status(self) -> dict:
        return {
            "workers": self.workers,
            "alive": sum(1 for s in self.slots if s.state in _LIVE),
            "ready": sum(1 for s in self.slots if s.state == READY),
            "crashes": self.crashes,
            "wedge_kills": self.wedge_kills,
            "restarts": sum(s.restarts for s in self.slots),
            "budget_tripped": self.budget.tripped(self._now),
            "budget_spent": self.budget.spent,
            "budget_refused": self.budget.refused,
            "budget_remaining": self.budget.remaining(self._now),
            "stopping": self._stopping or self._stop_requested,
            "rolling": self._roll_slot is not None
                       or bool(self._roll_queue),
            "slots": [
                {
                    "index": s.index,
                    "pid": s.pid,
                    "state": s.state,
                    "restarts": s.restarts,
                    "consecutive_failures": s.consecutive_failures,
                }
                for s in self.slots
            ],
        }

    # -- the I/O loop: events in, effects out --------------------------

    def _log(self, message: str) -> None:
        print(f"spl serve[supervisor]: {message}", file=sys.stderr,
              flush=True)

    def _feed(self, event: tuple, now: float) -> None:
        """Decide on one event and perform what the core asks for."""
        for kind, *args in self.decide(event, now):
            if kind == "log":
                self._log(*args)
            elif kind == "spawn":
                self._spawn(self.slots[args[0]], now)
            elif kind == "publish_port":
                if self.port_file is not None:
                    _publish_port(self.port_file, self.config.host,
                                  self.config.port)
            else:
                self._shell.signal(*args)

    def _reserve_address(self) -> tuple[str, int]:
        """Bind a non-listening SO_REUSEPORT socket to pin the port.

        Workers each bind their own listening SO_REUSEPORT socket to
        the same address; holding this one in the parent keeps the
        port reserved across the window where every worker is dead
        (mid-restart), so no other process can steal the address.
        A bound-but-not-listening socket receives no connections —
        the kernel balances only across *listening* sockets.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.config.host, self.config.port))
        host, port = sock.getsockname()[:2]
        self._reserve_sock = sock
        return host, port

    def _spawn(self, slot: WorkerSlot, now: float) -> None:
        """Fork a worker into ``slot``; a failed fork is an event."""
        why = self._shell.spawn(
            slot.index, functools.partial(self._worker_body, slot.index))
        if why is not None:
            # EAGAIN under a process limit, EMFILE: the host is under
            # pressure, which is no time to orphan the live workers.
            self._feed(("spawn_failed", slot.index, why), now)
            return
        slot.pid = self._shell.pid(slot.index)
        self._log(f"worker {slot.index} started (pid {slot.pid})")

    def _worker_body(self, index: int, conn) -> int:
        """A forked worker: the reserved port is the parent's."""
        if self._reserve_sock is not None:
            self._reserve_sock.close()
        return run_worker(
            self.config, reuse_port=True, heartbeat=conn,
            heartbeat_interval=self.heartbeat_interval,
            label=f"spl serve[worker {index}]")

    def _signalled(self, signum, frame) -> None:  # noqa: ARG002
        """Signal handler: note the request, wake the loop's wait."""
        if signum == signal.SIGHUP:
            self._hup_requested = True
        else:
            self._stop_requested = True
        self._shell.wake()

    def _maybe_publish_status(self) -> None:
        """Atomically write :meth:`status` as JSON on every change.

        Orchestrators tail this file instead of parsing the stderr
        log.  The write is :func:`atomic_write` (readers never see a
        partial document) and is skipped when nothing changed, so the
        steady-state fleet does not rewrite the file once per poll.
        Write failures are logged once per change, never fatal: losing
        observability must not take down serving.
        """
        if self.status_file is None:
            return
        import json

        text = json.dumps(self.status(), sort_keys=True)
        if text == self._last_status_json:
            return
        self._last_status_json = text
        try:
            atomic_write(self.status_file, text + "\n")
        except OSError as exc:
            self._log(f"status file write failed: {exc}")

    def run(self) -> int:
        host, port = self._reserve_address()
        self._log(f"supervising {self.workers} worker(s) on "
                  f"{host}:{port} (SIGTERM drains, SIGHUP rolls)")
        # Pin the resolved address so every forked worker binds it.
        self.config = ServeConfig(**{
            **self.config.__dict__, "host": host, "port": port})
        previous = {
            signum: signal.signal(signum, self._signalled)
            for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)}
        try:
            # Initial boot is not a restart: it never spends budget.
            now = time.monotonic()
            for slot in self.slots:
                self._start(slot, now)
                self._spawn(slot, now)
            self._maybe_publish_status()
            while not self._stopping or (
                    len(self._shell) and now < self._stop_deadline + 1.0):
                arrived = self._shell.wait(self._poll_timeout(now))
                now = time.monotonic()  # the loop's one clock read
                events: list[tuple] = []
                for kind, index, value in arrived:
                    if kind == "exited":
                        self.slots[index].pid = None
                        events.append(("exited", index, value))
                    else:  # every message a worker sends is a beat
                        events.append(("beat", index))
                if self._stop_requested:
                    if not self._stopping:
                        events.append(("stop",))
                elif self._hup_requested:
                    self._hup_requested = False
                    events.append(("hup",))
                for event in (*events, ("tick",)):
                    self._feed(event, now)
                self._maybe_publish_status()
            self._log("fleet stopped")
            return 0
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self._shell.stop(self.config.drain_grace_s)
            if self._reserve_sock is not None:
                self._reserve_sock.close()
