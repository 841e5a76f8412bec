"""Test helpers: a real ``spl serve`` fleet and an open-loop kill run.

:class:`FleetProcess` boots the real CLI in a subprocess (signals,
fork, SO_REUSEPORT — nothing mocked), learns the bound port through
``--port-file`` and guarantees teardown.  :func:`run_chaos` drives such
a fleet with a fixed open-loop arrival schedule through
reconnecting/retrying clients, SIGKILLs a worker at the configured
offsets, checks every completed transform against ``numpy.fft`` and
reports availability overall and after the recovery window.  Server and
runner *speed* is ``bench/run.py``'s business, not this file's.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.serve.chaos import CHAOS_ENV, ChaosConfig
from repro.serve.client import ResilientAsyncClient, SplClient
from repro.serve.errors import ServeError
from repro.serve.retry import RetryBudget, RetryPolicy

_SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    repro.__file__)))


class FleetProcess:
    """``spl serve --workers N`` as a context-managed subprocess."""

    def __init__(self, *, workers: int = 2, prefer: str = "numpy",
                 warm: tuple[str, ...] = (),
                 extra_args: tuple[str, ...] = (),
                 chaos: ChaosConfig | None = None):
        self.workers = workers
        self.argv = [
            sys.executable, "-m", "repro.serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(workers), "--prefer", prefer,
            *(arg for spec in warm for arg in ("--warm", spec)),
            *extra_args,
        ]
        self.chaos = chaos
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self._dir = tempfile.TemporaryDirectory(prefix="spl-fleet-")

    def __enter__(self) -> "FleetProcess":
        port_file = os.path.join(self._dir.name, "port")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC_ROOT, env.get("PYTHONPATH")) if p)
        env.pop(CHAOS_ENV, None)
        if self.chaos is not None and self.chaos.enabled:
            env[CHAOS_ENV] = self.chaos.to_spec()
        # stderr goes to a file, not a pipe: nobody drains a pipe
        # mid-run, and a supervisor busy logging restarts must never
        # block on a full pipe buffer.
        with open(os.path.join(self._dir.name, "stderr"), "wb") as err:
            self.proc = subprocess.Popen(
                [*self.argv, "--port-file", port_file], env=env,
                stdout=subprocess.DEVNULL, stderr=err)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"fleet exited during boot (code "
                    f"{self.proc.returncode}):\n{self.stderr_text()}")
            try:
                text = Path(port_file).read_text().strip()
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
        self._dir.cleanup()

    def stderr_text(self) -> str:
        """Everything the fleet wrote to stderr so far."""
        try:
            with open(os.path.join(self._dir.name, "stderr"),
                      "rb") as handle:
                return handle.read().decode(errors="replace")
        except OSError:
            return ""

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def terminate(self, kill: bool = False) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
        try:
            self.proc.wait(30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(10)

    def worker_pids(self, want: int | None = None,
                    timeout: float = 20.0) -> set[int]:
        """Worker pids discovered by dialing the fleet repeatedly.

        SO_REUSEPORT load-balances connections, so fresh connections
        land on different workers; each reports its pid in ``stats``.
        """
        want = self.workers if want is None else want
        pids: set[int] = set()
        deadline = time.monotonic() + timeout
        for _ in range(64):
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
    killed_pids: list[int] = field(default_factory=list)
    post_recovery_offered: int = 0
    post_recovery_ok: int = 0

    @property
    def availability(self) -> float:
        return self.ok / self.offered if self.offered else 0.0

    @property
    def post_recovery_availability(self) -> float:
        """Success rate over arrivals after every kill's backoff
        window — the steady-state-after-recovery number held at
        >= 99%."""
        if not self.post_recovery_offered:
            return 0.0
        return self.post_recovery_ok / self.post_recovery_offered


async def _drive_chaos(fleet: FleetProcess, report: ChaosReport, *,
                       n: int, rate: float, duration: float,
                       kill_at: tuple[float, ...],
                       recovery_window_s: float, connections: int,
                       seed: int) -> None:
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    pool = []
    for _ in range(16):
        x = nprng.standard_normal(n) + 1j * nprng.standard_normal(n)
        pool.append((x, np.fft.fft(x)))
    policy = RetryPolicy(
        attempts=5, base_backoff_s=0.02, max_backoff_s=0.4,
        budget=RetryBudget(ratio=0.5, max_tokens=64.0, min_reserve=8.0))
    clients = [
        ResilientAsyncClient(fleet.host, fleet.port, policy=policy,
                             request_timeout=0.5,
                             rng=random.Random(seed + i))
        for i in range(connections)
    ]
    # Arrivals are open-loop: the schedule is fixed up front and never
    # slows down because the fleet is hurting.
    arrivals: list[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        arrivals.append(t)
        t += rng.expovariate(rate)
    recovered_after = max(kill_at, default=0.0) + recovery_window_s
    start = time.monotonic()

    async def killer() -> None:
        for when in sorted(kill_at):
            await asyncio.sleep(max(0.0, start + when - time.monotonic()))
            pids = await asyncio.get_running_loop().run_in_executor(
                None, lambda: fleet.worker_pids(want=1, timeout=5.0))
            if pids:
                victim = min(pids)
                try:
                    os.kill(victim, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                report.killed_pids.append(victim)

    async def one_request(offset: float, index: int) -> None:
        x, expected = pool[index % len(pool)]
        post_recovery = offset >= recovered_after
        report.post_recovery_offered += post_recovery
        try:
            y = await clients[index % len(clients)].transform("fft", x)
        except Exception as exc:  # noqa: BLE001 - typed or transport loss
            code = getattr(exc, "code", "transport")
            report.errors[code] = report.errors.get(code, 0) + 1
            return
        if np.allclose(y, expected, atol=1e-6 * max(1.0, n)):
            report.ok += 1
            report.post_recovery_ok += post_recovery
        else:
            report.wrong += 1

    kill_task = asyncio.ensure_future(killer())
    tasks = []
    try:
        for index, offset in enumerate(arrivals):
            await asyncio.sleep(max(0.0, start + offset - time.monotonic()))
            report.offered += 1
            tasks.append(asyncio.ensure_future(one_request(offset, index)))
        await asyncio.gather(*tasks, return_exceptions=True)
        await kill_task
    finally:
        kill_task.cancel()
        for client in clients:
            await client.close()


def run_chaos(*, workers: int = 2, n: int = 16, rate: float = 300.0,
              duration: float = 6.0, kill_at: tuple[float, ...] = (1.5,),
              recovery_window_s: float = 2.5,
              server_chaos: ChaosConfig | None = None,
              connections: int = 4, seed: int = 0) -> ChaosReport:
    """One chaos experiment against a real supervised fleet.

    Boots ``spl serve --workers N`` (optionally with server-side
    ``SPL_CHAOS`` injection), offers ``rate`` req/s open-loop for
    ``duration`` seconds through retrying clients and SIGKILLs one
    worker at each offset in ``kill_at``.  The caller asserts on the
    report; the helper never hides an outcome.
    """
    report = ChaosReport()
    with FleetProcess(workers=workers, warm=(f"fft:{n}",),
                      chaos=server_chaos) as fleet:
        # Make sure every worker slot is up before the clock starts.
        fleet.worker_pids(timeout=20.0)
        asyncio.run(_drive_chaos(
            fleet, report, n=n, rate=rate, duration=duration,
            kill_at=tuple(kill_at), recovery_window_s=recovery_window_s,
            connections=connections, seed=seed))
    return report
