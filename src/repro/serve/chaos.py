"""Chaos fault injection for the serving fleet.

Resilience claims that are never exercised are fiction, so this
module makes the failure modes injectable and the recovery assertions
runnable:

* **worker SIGKILL** — the harness kills a live worker process
  mid-load; the supervisor must restart it and the client retry layer
  must mask the gap;
* **stalled responses** — a worker holds a finished response for
  ``stall_s`` seconds; the client per-request timeout must fire
  instead of hanging the caller;
* **truncated frames** — a worker writes half a response frame and
  hangs up; the client must classify it as a connection loss and
  retry elsewhere;
* **forced breaker trips** — a plan's circuit breaker is tripped
  mid-load, degrading the backend a tier; answers must stay correct.

Server-side injection is armed by the ``SPL_CHAOS`` environment
variable (so it crosses the fork into supervised workers), e.g.::

    SPL_CHAOS="stall=0.01:2.0,truncate=0.005,trip=0.002,seed=7"

``rate`` values are per-response probabilities.  Everything is off by
default: an unset/empty ``SPL_CHAOS`` means zero injection and zero
overhead.

:func:`run_chaos` is the harness: it boots a real supervised fleet
(``spl serve --workers N`` in a subprocess), drives it with an
open-loop arrival schedule through reconnecting/retrying clients,
SIGKILLs workers at configured times, **verifies every completed
transform against the numpy oracle**, and reports availability —
overall and after the restart/backoff recovery window.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.search.queue import parse_spec, spec_rate
from repro.serve.errors import ServeError
from repro.serve.retry import RetryBudget, RetryPolicy

#: Environment variable carrying the server-side injection spec.
CHAOS_ENV = "SPL_CHAOS"


@dataclass(frozen=True)
class ChaosConfig:
    """Parsed server-side injection rates (all off by default)."""

    stall_rate: float = 0.0
    stall_s: float = 1.0
    truncate_rate: float = 0.0
    trip_rate: float = 0.0
    seed: int | None = None  # None: unseeded (OS entropy); 0 is a seed

    @property
    def enabled(self) -> bool:
        return (self.stall_rate > 0 or self.truncate_rate > 0
                or self.trip_rate > 0)

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosConfig":
        """Parse ``stall=RATE[:SECONDS],truncate=RATE,trip=RATE``.

        Unknown keys raise (see :func:`parse_spec`); a spec without
        ``seed=`` draws from OS entropy, ``seed=0`` is a seed like any
        other.
        """
        def stall(value: str) -> tuple[float, float]:
            rate, _, hold = value.partition(":")
            return spec_rate(rate), float(hold) if hold else 1.0

        values = parse_spec(spec, {"stall": stall, "truncate": spec_rate,
                                   "trip": spec_rate, "seed": int})
        stall_rate, stall_s = values.get("stall", (0.0, 1.0))
        return cls(stall_rate=stall_rate, stall_s=stall_s,
                   truncate_rate=values.get("truncate", 0.0),
                   trip_rate=values.get("trip", 0.0),
                   seed=values.get("seed"))

    @classmethod
    def from_env(cls, environ=os.environ) -> "ChaosConfig | None":
        spec = environ.get(CHAOS_ENV, "").strip()
        if not spec:
            return None
        return cls.from_spec(spec)

    def to_spec(self) -> str:
        """The inverse of :meth:`from_spec` (for subprocess env)."""
        parts = []
        if self.stall_rate:
            parts.append(f"stall={self.stall_rate}:{self.stall_s}")
        if self.truncate_rate:
            parts.append(f"truncate={self.truncate_rate}")
        if self.trip_rate:
            parts.append(f"trip={self.trip_rate}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return ",".join(parts)


class ChaosInjector:
    """Draws faults at the configured rates; counts what it injected.

    Lives on the server's event loop thread, so plain counters are
    race-free.  ``force_trip`` walks a plan's circuit breaker one tier
    down exactly the way a real backend fault would.
    """

    def __init__(self, config: ChaosConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        self.stalls = 0
        self.truncations = 0
        self.trips = 0

    @property
    def stall_s(self) -> float:
        return self.config.stall_s

    def _draw(self, rate: float) -> bool:
        return rate > 0 and self._rng.random() < rate

    def take_stall(self) -> bool:
        if self._draw(self.config.stall_rate):
            self.stalls += 1
            return True
        return False

    def take_truncate(self) -> bool:
        if self._draw(self.config.truncate_rate):
            self.truncations += 1
            return True
        return False

    def take_trip(self) -> bool:
        if self._draw(self.config.trip_rate):
            self.trips += 1
            return True
        return False

    def force_trip(self, executable) -> None:
        """Trip ``executable``'s breaker as if its backend faulted."""
        generation = getattr(executable, "_generation", None)
        degrade = getattr(executable, "_degrade", None)
        if degrade is None or generation is None:
            return
        degrade(RuntimeError("chaos: forced breaker trip"),
                "chaos", generation)


def injector_from_env(environ=os.environ) -> ChaosInjector | None:
    config = ChaosConfig.from_env(environ)
    if config is None or not config.enabled:
        return None
    return ChaosInjector(config)


# ---------------------------------------------------------------------------
# The harness: a real fleet, open-loop load, injected kills, oracles.
# ---------------------------------------------------------------------------


class FleetProcess:
    """``spl serve --workers N`` as a context-managed subprocess.

    Used by the chaos harness and the supervisor tests: boots the real
    CLI (signals, fork, SO_REUSEPORT — nothing mocked), learns the
    bound port through ``--port-file``, and guarantees teardown.
    """

    def __init__(self, *, workers: int = 2, prefer: str = "numpy",
                 warm: tuple[str, ...] = (), extra_args: tuple[str, ...] = (),
                 chaos: ChaosConfig | None = None,
                 env_extra: dict[str, str] | None = None,
                 boot_timeout: float = 60.0):
        self.workers = workers
        self.prefer = prefer
        self.warm = tuple(warm)
        self.extra_args = tuple(extra_args)
        self.chaos = chaos
        self.env_extra = dict(env_extra or {})
        self.boot_timeout = boot_timeout
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self._port_file = ""
        self._stderr_path = ""

    def __enter__(self) -> "FleetProcess":
        import tempfile

        fd, self._port_file = tempfile.mkstemp(prefix="spl-port-")
        os.close(fd)
        os.unlink(self._port_file)  # the supervisor creates it
        argv = [
            sys.executable, "-m", "repro.serve",
            "--host", self.host, "--port", "0",
            "--workers", str(self.workers),
            "--prefer", self.prefer,
            "--port-file", self._port_file,
        ]
        for spec in self.warm:
            argv += ["--warm", spec]
        argv += list(self.extra_args)
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p)
        if self.chaos is not None and self.chaos.enabled:
            env[CHAOS_ENV] = self.chaos.to_spec()
        else:
            env.pop(CHAOS_ENV, None)
        env.update(self.env_extra)
        # stderr goes to a file, not a pipe: nobody drains a pipe
        # mid-run, and a supervisor busy logging restarts must never
        # block on a full pipe buffer.
        stderr_fd, self._stderr_path = tempfile.mkstemp(
            prefix="spl-fleet-err-")
        try:
            self.proc = subprocess.Popen(argv, env=env,
                                         stdout=subprocess.DEVNULL,
                                         stderr=stderr_fd)
        finally:
            os.close(stderr_fd)
        deadline = time.monotonic() + self.boot_timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"fleet exited during boot "
                    f"(code {self.proc.returncode}):\n"
                    f"{self.stderr_text()}")
            try:
                text = open(self._port_file).read().strip()
            except FileNotFoundError:
                text = ""
            if text:
                host, port = text.rsplit(":", 1)
                self.host, self.port = host, int(port)
                return self
            time.sleep(0.02)
        self.terminate(kill=True)
        raise RuntimeError("fleet did not publish its port in time")

    def __exit__(self, *exc_info) -> None:
        self.terminate()
        for path in (self._port_file, self._stderr_path):
            if path:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def stderr_text(self) -> str:
        """Everything the fleet wrote to stderr so far."""
        if not self._stderr_path:
            return ""
        try:
            with open(self._stderr_path, "rb") as handle:
                return handle.read().decode(errors="replace")
        except OSError:
            return ""

    # -- control -------------------------------------------------------

    def signal(self, signum: int) -> None:
        assert self.proc is not None
        self.proc.send_signal(signum)

    def terminate(self, kill: bool = False,
                  timeout: float = 30.0) -> int | None:
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(
                signal.SIGKILL if kill else signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10)
        return self.proc.returncode

    def worker_pids(self, want: int | None = None,
                    timeout: float = 20.0,
                    attempts: int = 64) -> set[int]:
        """Worker pids discovered by dialing the fleet repeatedly.

        SO_REUSEPORT load-balances connections, so fresh connections
        land on different workers; each reports its pid in ``stats``.
        """
        from repro.serve.client import SplClient

        want = self.workers if want is None else want
        pids: set[int] = set()
        deadline = time.monotonic() + timeout
        for _ in range(attempts):
            if len(pids) >= want or time.monotonic() > deadline:
                break
            try:
                with SplClient(self.host, self.port, timeout=5.0,
                               request_timeout=5.0) as client:
                    pids.add(client.stats()["pid"])
            except (ConnectionError, OSError, ServeError):
                time.sleep(0.05)
        return pids


@dataclass
class ChaosReport:
    """Outcome accounting for one chaos run."""

    offered: int = 0
    ok: int = 0
    wrong: int = 0  # completed with an incorrect vector: must be 0
    errors: dict[str, int] = field(default_factory=dict)
    duration_s: float = 0.0
    kill_times_s: list[float] = field(default_factory=list)
    killed_pids: list[int] = field(default_factory=list)
    recovery_window_s: float = 0.0
    post_recovery_offered: int = 0
    post_recovery_ok: int = 0
    reconnects: int = 0
    retries_spent: int = 0
    latencies_s: list[float] = field(default_factory=list)

    @property
    def availability(self) -> float:
        return self.ok / self.offered if self.offered else 0.0

    @property
    def post_recovery_availability(self) -> float:
        """Success rate over arrivals after every kill's backoff
        window — the steady-state-after-recovery number the
        acceptance gate holds at >= 99%."""
        if not self.post_recovery_offered:
            return 0.0
        return self.post_recovery_ok / self.post_recovery_offered

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_s:
            return float("nan")
        return float(np.percentile(self.latencies_s, q) * 1e3)

    def summary(self) -> dict:
        return {
            "offered": self.offered,
            "ok": self.ok,
            "wrong": self.wrong,
            "errors": dict(sorted(self.errors.items())),
            "duration_s": self.duration_s,
            "kill_times_s": list(self.kill_times_s),
            "workers_killed": len(self.killed_pids),
            "recovery_window_s": self.recovery_window_s,
            "availability": self.availability,
            "post_recovery_offered": self.post_recovery_offered,
            "post_recovery_availability":
                self.post_recovery_availability,
            "reconnects": self.reconnects,
            "retries_spent": self.retries_spent,
            "p50_ms": self.percentile_ms(50),
            "p99_ms": self.percentile_ms(99),
        }


async def _drive_chaos(fleet: FleetProcess, report: ChaosReport, *,
                       n: int, rate: float, duration: float,
                       kill_at: tuple[float, ...],
                       recovery_window_s: float,
                       connections: int, seed: int,
                       request_timeout: float,
                       policy: RetryPolicy) -> None:
    from repro.serve.client import ResilientAsyncClient

    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    pool = []
    for _ in range(16):
        x = nprng.standard_normal(n) + 1j * nprng.standard_normal(n)
        pool.append((x, np.fft.fft(x)))

    clients = [
        ResilientAsyncClient(fleet.host, fleet.port, policy=policy,
                             request_timeout=request_timeout,
                             rng=random.Random(seed + i))
        for i in range(max(1, connections))
    ]
    # Arrivals are open-loop: the schedule is fixed up front and never
    # slows down because the fleet is hurting.
    arrivals: list[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            break
        arrivals.append(t)
    last_kill = max(kill_at) if kill_at else 0.0
    recovered_after = last_kill + recovery_window_s

    tasks = []
    start = time.monotonic()

    async def killer() -> None:
        for when in sorted(kill_at):
            delay = start + when - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            pids = await asyncio.get_running_loop().run_in_executor(
                None, lambda: fleet.worker_pids(want=1, timeout=5.0))
            if not pids:
                continue
            victim = sorted(pids)[0]
            try:
                os.kill(victim, signal.SIGKILL)
            except ProcessLookupError:
                continue
            report.kill_times_s.append(time.monotonic() - start)
            report.killed_pids.append(victim)

    async def one_request(offset: float, index: int) -> None:
        x, expected = pool[index % len(pool)]
        client = clients[index % len(clients)]
        post_recovery = offset >= recovered_after
        if post_recovery:
            report.post_recovery_offered += 1
        issued = time.monotonic()
        try:
            y = await client.transform("fft", x)
        except ServeError as exc:
            report.errors[exc.code] = report.errors.get(exc.code,
                                                        0) + 1
            return
        except Exception:  # noqa: BLE001 - transport-level loss
            report.errors["transport"] = \
                report.errors.get("transport", 0) + 1
            return
        report.latencies_s.append(time.monotonic() - issued)
        if np.allclose(y, expected, atol=1e-6 * max(1.0, n)):
            report.ok += 1
            if post_recovery:
                report.post_recovery_ok += 1
        else:
            report.wrong += 1

    kill_task = asyncio.ensure_future(killer())
    try:
        for index, offset in enumerate(arrivals):
            wait = start + offset - time.monotonic()
            if wait > 0:
                await asyncio.sleep(wait)
            report.offered += 1
            tasks.append(asyncio.ensure_future(
                one_request(offset, index)))
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await kill_task
    finally:
        kill_task.cancel()
        report.duration_s = time.monotonic() - start
        report.reconnects = sum(c.reconnects for c in clients)
        if policy.budget is not None:
            report.retries_spent = policy.budget.spent
        for client in clients:
            await client.close()


def run_chaos(*, workers: int = 2, n: int = 16, rate: float = 300.0,
              duration: float = 6.0,
              kill_at: tuple[float, ...] = (1.5,),
              recovery_window_s: float = 2.5,
              server_chaos: ChaosConfig | None = None,
              connections: int = 4, seed: int = 0,
              request_timeout: float = 0.5,
              policy: RetryPolicy | None = None,
              prefer: str = "numpy") -> ChaosReport:
    """One full chaos experiment against a real supervised fleet.

    Boots ``spl serve --workers N`` (optionally with server-side
    ``SPL_CHAOS`` injection), offers ``rate`` req/s open-loop for
    ``duration`` seconds through retrying clients, SIGKILLs one worker
    at each offset in ``kill_at``, and verifies every completed
    result against ``numpy.fft``.  The caller asserts on the report;
    the harness never hides an outcome.
    """
    from repro.serve.supervisor import fork_supported

    if not fork_supported():
        raise RuntimeError("supervised fleets need fork + SO_REUSEPORT")
    if policy is None:
        policy = RetryPolicy(
            attempts=5, base_backoff_s=0.02, max_backoff_s=0.4,
            budget=RetryBudget(ratio=0.5, max_tokens=64.0,
                               min_reserve=8.0),
        )
    report = ChaosReport(recovery_window_s=recovery_window_s)
    warm = (f"fft:{n}",)
    with FleetProcess(workers=workers, prefer=prefer, warm=warm,
                      chaos=server_chaos) as fleet:
        # Make sure every worker slot is up before the clock starts.
        fleet.worker_pids(timeout=20.0)
        asyncio.run(_drive_chaos(
            fleet, report, n=n, rate=rate, duration=duration,
            kill_at=tuple(kill_at),
            recovery_window_s=recovery_window_s,
            connections=connections, seed=seed,
            request_timeout=request_timeout, policy=policy))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.chaos",
        description="Chaos harness: kill workers under load and "
                    "check the fleet recovers with zero wrong "
                    "answers.",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--rate", type=float, default=300.0)
    parser.add_argument("--duration", type=float, default=6.0)
    parser.add_argument("--kill-at", type=float, nargs="*",
                        default=[1.5], metavar="SECONDS")
    parser.add_argument("--recovery-window", type=float, default=2.5)
    parser.add_argument("--server-chaos", default=None,
                        metavar="SPEC",
                        help='e.g. "stall=0.01:2.0,truncate=0.005"')
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-availability", type=float,
                        default=0.99,
                        help="post-recovery availability gate")
    args = parser.parse_args(argv)

    from repro.serve.supervisor import fork_supported

    if not fork_supported():
        print("chaos: fork/SO_REUSEPORT unavailable; skipping",
              file=sys.stderr)
        return 0
    server_chaos = (ChaosConfig.from_spec(args.server_chaos)
                    if args.server_chaos else None)
    report = run_chaos(
        workers=args.workers, n=args.n, rate=args.rate,
        duration=args.duration, kill_at=tuple(args.kill_at),
        recovery_window_s=args.recovery_window,
        server_chaos=server_chaos, seed=args.seed)
    print(json.dumps(report.summary(), indent=2))
    if report.wrong:
        print(f"chaos: {report.wrong} INCORRECT results",
              file=sys.stderr)
        return 1
    if report.post_recovery_availability < args.min_availability:
        print(f"chaos: post-recovery availability "
              f"{report.post_recovery_availability:.4f} < "
              f"{args.min_availability}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
