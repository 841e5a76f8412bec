"""The supervised fleet: restart policy units + live-fleet behavior.

Policy logic (backoff shape, restart-budget window) is tested pure, and
every restart / backoff / heartbeat / rolling *decision* under a
simulated clock in ``test_supervisor_schedule.py``.  OS behavior —
crash recovery, graceful SIGTERM drain, SIGHUP rolling restart — is
tested against the *real CLI* in a subprocess
(fork from a threaded pytest process is unsafe, and the CLI path is
exactly what production runs).  Fleet tests skip on hosts without
fork/SO_REUSEPORT, mirroring the jit-smoke convention.
"""

from __future__ import annotations

import asyncio
import random
import signal
import time

import numpy as np
import pytest

from repro.serve import AsyncSplClient, RetryPolicy, SplClient
from repro.serve.supervisor import (
    BackoffPolicy,
    RestartBudget,
    ServeConfig,
    fork_supported,
)

from tests.serve.fleet import FleetProcess
from tests.serve.test_server import _complex_vec

needs_fleet = pytest.mark.skipif(
    not fork_supported(),
    reason="supervised fleets need fork, SIGCHLD and SO_REUSEPORT")


class TestBackoffPolicy:
    def test_delay_grows_exponentially_and_caps(self):
        policy = BackoffPolicy(base_s=0.5, multiplier=2.0, max_s=4.0,
                               jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.5)
        assert policy.delay(2) == pytest.approx(1.0)
        assert policy.delay(3) == pytest.approx(2.0)
        assert policy.delay(4) == pytest.approx(4.0)
        assert policy.delay(9) == pytest.approx(4.0)

    def test_jitter_bounds(self):
        policy = BackoffPolicy(base_s=1.0, multiplier=1.0, max_s=1.0,
                               jitter=0.25)
        rng = random.Random(11)
        for _ in range(100):
            delay = policy.delay(1, rng)
            assert 1.0 <= delay <= 1.25

    def test_zero_failures_treated_as_first(self):
        policy = BackoffPolicy(base_s=0.5, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.5)


class TestRestartBudget:
    def test_spends_until_window_full(self):
        budget = RestartBudget(budget=3, window_s=100.0)
        assert budget.try_spend(0.0)
        assert budget.try_spend(1.0)
        assert budget.try_spend(2.0)
        assert not budget.try_spend(3.0)
        assert budget.spent == 3
        assert budget.refused == 1
        assert budget.tripped(3.0)

    def test_window_slides_and_frees_capacity(self):
        budget = RestartBudget(budget=2, window_s=10.0)
        assert budget.try_spend(0.0)
        assert budget.try_spend(1.0)
        assert not budget.try_spend(5.0)
        # t=0 event leaves the window at t=10.
        assert budget.retry_after(5.0) == pytest.approx(5.0)
        assert budget.try_spend(10.0)
        assert budget.tripped(10.5)  # events at 1.0 and 10.0
        assert not budget.tripped(11.0)  # the 1.0 event slid out

    def test_retry_after_is_zero_with_capacity(self):
        budget = RestartBudget(budget=2, window_s=10.0)
        assert budget.retry_after(0.0) == 0.0
        budget.try_spend(0.0)
        assert budget.retry_after(0.0) == 0.0

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            RestartBudget(budget=0)


class TestServeConfig:
    def test_defaults_are_single_process_friendly(self):
        config = ServeConfig()
        assert config.port == 0
        assert config.drain_grace_s > 0


def _oracle_roundtrips(host: str, port: int, count: int = 5) -> None:
    # The retry policy is part of the contract under test: a request
    # that lands on a draining/dying worker is answered with a typed
    # retryable error, and the retry re-dials onto a healthy one.
    x = _complex_vec(16, seed=2)
    expected = np.fft.fft(x)
    policy = RetryPolicy(attempts=6, base_backoff_s=0.05,
                         max_backoff_s=0.5)
    with SplClient(host, port, timeout=10.0, request_timeout=10.0,
                   retry=policy) as client:
        for _ in range(count):
            np.testing.assert_allclose(
                client.transform("fft", x), expected, atol=1e-9)


@needs_fleet
class TestFleet:
    def test_fleet_boots_n_workers_on_one_port(self):
        with FleetProcess(workers=2, warm=("fft:16",)) as fleet:
            pids = fleet.worker_pids()
            assert len(pids) == 2
            _oracle_roundtrips(fleet.host, fleet.port)

    def test_port_file_appears_once_a_worker_listens(self):
        """A client with no retry policy that dials the moment
        ``--port-file`` appears is answered: the supervisor writes the
        file when its first worker is ready, not when it reserves the
        address (a socket that is bound but does not listen refuses
        connections)."""
        x = _complex_vec(16, seed=3)
        with FleetProcess(workers=2, warm=("fft:16",)) as fleet:
            with SplClient(fleet.host, fleet.port, timeout=10.0,
                           request_timeout=10.0) as client:
                np.testing.assert_allclose(
                    client.transform("fft", x), np.fft.fft(x), atol=1e-9)

    def test_killed_worker_is_replaced_and_serving_resumes(self):
        with FleetProcess(workers=2, warm=("fft:16",)) as fleet:
            before = fleet.worker_pids()
            assert len(before) == 2
            victim = sorted(before)[0]
            import os

            os.kill(victim, signal.SIGKILL)
            # The survivor keeps answering through the gap.
            _oracle_roundtrips(fleet.host, fleet.port)
            # The supervisor restarts the slot: a new pid appears.
            deadline = time.monotonic() + 30
            replaced = set()
            while time.monotonic() < deadline:
                replaced = fleet.worker_pids()
                if len(replaced) == 2 and victim not in replaced:
                    break
                time.sleep(0.1)
            assert len(replaced) == 2
            assert victim not in replaced
            _oracle_roundtrips(fleet.host, fleet.port)

    def test_sigterm_drains_and_exits_zero(self):
        with FleetProcess(workers=2, warm=("fft:16",)) as fleet:
            assert len(fleet.worker_pids()) == 2
            _oracle_roundtrips(fleet.host, fleet.port, count=2)
            fleet.signal(signal.SIGTERM)
            code = fleet.proc.wait(timeout=60)
            assert code == 0, fleet.stderr_text()
            text = fleet.stderr_text()
            assert "fleet stopped" in text

    def test_pipelined_connections_are_served_then_drained(self):
        """Four connections, spread by the kernel over the workers'
        SO_REUSEPORT listeners, each pipeline 64 transforms at once and
        get every answer right; SIGTERM then drains the fleet to exit
        0."""
        per_connection = 64
        xs = [_complex_vec(16, seed=s) for s in range(8)]

        async def drive(host, port):
            clients = [await AsyncSplClient.connect(host, port)
                       for _ in range(4)]
            try:
                futures = [asyncio.ensure_future(
                    client.transform("fft", xs[i % len(xs)]))
                    for client in clients for i in range(per_connection)]
                return await asyncio.gather(*futures)
            finally:
                for client in clients:
                    await client.close()

        with FleetProcess(workers=2, warm=("fft:16",)) as fleet:
            assert len(fleet.worker_pids()) == 2
            results = asyncio.run(asyncio.wait_for(
                drive(fleet.host, fleet.port), 60))
            assert len(results) == 4 * per_connection
            for i, y in enumerate(results):
                np.testing.assert_allclose(
                    y, np.fft.fft(xs[i % per_connection % len(xs)]),
                    atol=1e-9)
            fleet.signal(signal.SIGTERM)
            code = fleet.proc.wait(timeout=60)
            assert code == 0, fleet.stderr_text()
            assert "fleet stopped" in fleet.stderr_text()

    def test_sighup_rolls_every_worker_without_losing_service(self):
        with FleetProcess(workers=2, warm=("fft:16",)) as fleet:
            before = fleet.worker_pids()
            assert len(before) == 2
            fleet.signal(signal.SIGHUP)
            # Throughout the roll the fleet answers correctly.
            deadline = time.monotonic() + 60
            after = set()
            while time.monotonic() < deadline:
                _oracle_roundtrips(fleet.host, fleet.port, count=1)
                after = fleet.worker_pids()
                if len(after) == 2 and not (after & before):
                    break
                time.sleep(0.1)
            assert len(after) == 2
            assert not (after & before), (before, after)
            _oracle_roundtrips(fleet.host, fleet.port)


@needs_fleet
class TestSingleProcessSignals:
    def test_single_worker_mode_drains_on_sigterm(self):
        """--workers 1 runs no supervisor, but SIGTERM still triggers
        the same graceful drain-and-exit-0 path (satellite: signal
        handlers in single-process mode)."""
        with FleetProcess(workers=1, warm=("fft:16",)) as fleet:
            _oracle_roundtrips(fleet.host, fleet.port, count=2)
            fleet.signal(signal.SIGTERM)
            code = fleet.proc.wait(timeout=60)
            assert code == 0, fleet.stderr_text()
            assert "drained and stopped" in fleet.stderr_text()
