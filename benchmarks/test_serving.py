"""Serving latency and sustained throughput: the asyncio front-end.

Drives a live :class:`repro.serve.SplServer` (real sockets, real
framing, real dispatch) with the open-loop load generator and records,
per transform size:

* a **capacity probe** — offered load far beyond capacity with a deep
  queue; the completion rate is the sustainable vectors/sec through
  the whole socket -> admission -> batcher -> backend path;
* a **steady run** at ~50% of probed capacity — the p50/p90/p99
  latency a provisioned service delivers;
* one **mixed burst run** — both sizes interleaved, Poisson arrivals
  with 4x bursts, exercising the coalescing window under uneven load;
* an **overload run** — offered load ~4x capacity against a tiny
  admission queue; the point is that the bounded queue sheds with
  typed ``overload`` rejections while completed requests keep flowing
  (latency stays bounded instead of the queue growing without limit).

Latency numbers are end-to-end from the client's submit to its
response, including wire time on loopback.  The artifact lands in
``BENCH_serving.json`` (benchmarks/results/ plus a repo-root mirror),
written *before* any acceptance gate so minimal runners always leave
a record.

A **resilience run** (``test_serving_resilience``) boots a real
supervised fleet (``spl serve --workers 2`` in a subprocess),
SIGKILLs a worker mid-load, and records availability — overall and
after the restart-backoff recovery window — plus p99 across the
kill-restart event, under the ``resilience`` key of the same
artifact.  It skips (never fails) on hosts without fork or
``SO_REUSEPORT``.

Scale knobs: ``SPL_SERVING_SIZES=64,1024`` (FFT sizes),
``SPL_SERVING_DURATION=0.8`` (seconds per steady run),
``SPL_SERVING_CONNECTIONS=4``, ``SPL_RESILIENCE_RATE=200`` /
``SPL_RESILIENCE_DURATION=5`` (chaos offered rate and length).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from pathlib import Path

import pytest

from repro.perfeval.ccompile import have_c_compiler
from repro.serve import PlanKey, PlanRegistry, Router, SplServer
from repro.serve.chaos import ChaosConfig, run_chaos
from repro.serve.loadgen import WorkloadSpec, run_load
from repro.serve.supervisor import fork_supported

from conftest import RESULTS_DIR, write_results

PROBE_RATE = 50_000.0  # offered rate for the capacity probe
PROBE_DURATION = 0.4
OVERLOAD_QUEUE_LIMIT = 8
OVERLOAD_FACTOR = 4.0


def _sizes() -> tuple[int, ...]:
    value = os.environ.get("SPL_SERVING_SIZES")
    if value:
        return tuple(int(p) for p in value.split(",") if p.strip())
    return (64, 1024)


def _duration() -> float:
    return float(os.environ.get("SPL_SERVING_DURATION", "0.8"))


def _connections() -> int:
    return int(os.environ.get("SPL_SERVING_CONNECTIONS", "4"))


class _ServerThread:
    """A live server on an ephemeral port in a background thread."""

    def __init__(self, router: Router, warm: list[PlanKey]):
        self._router = router
        self._warm = warm
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)
        self.host = ""
        self.port = 0

    def _main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = SplServer(self._router, warm=self._warm)
        self.host, self.port = await server.start()
        self._ready.set()
        await self._stop.wait()
        await server.close()

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        assert self._ready.wait(120), "server did not boot"
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=120)


def _run(server: _ServerThread, **kwargs) -> dict:
    async def drive():
        return await run_load(server.host, server.port, **kwargs)

    return asyncio.run(drive()).summary()


def _artifact_paths() -> tuple[Path, Path]:
    return (RESULTS_DIR / "BENCH_serving.json",
            Path(__file__).resolve().parent.parent
            / "BENCH_serving.json")


def _write_artifact(payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    text = json.dumps(payload, indent=2) + "\n"
    for path in _artifact_paths():
        path.write_text(text)


def _update_artifact(updates: dict) -> None:
    """Merge top-level keys into the artifact, preserving whatever
    other sections an earlier benchmark already recorded."""
    primary, _ = _artifact_paths()
    payload: dict = {}
    if primary.exists():
        try:
            payload = json.loads(primary.read_text())
        except (OSError, ValueError):
            payload = {}
    payload.update(updates)
    _write_artifact(payload)


def test_serving_latency_and_throughput():
    sizes = _sizes()
    duration = _duration()
    connections = _connections()
    registry = PlanRegistry()  # c backend when a compiler is on PATH
    keys = [PlanKey("fft", n, "complex128") for n in sizes]

    per_size = []
    with _ServerThread(Router(registry, queue_limit=256),
                       warm=keys) as server:
        for n in sizes:
            mix = {WorkloadSpec("fft", n): 1.0}
            probe = _run(server, mix=mix, rate=PROBE_RATE,
                         duration=PROBE_DURATION, pattern="uniform",
                         connections=connections, seed=1)
            capacity = probe["achieved_rate"]
            steady_rate = max(200.0, 0.5 * capacity)
            steady = _run(server, mix=mix, rate=steady_rate,
                          duration=duration, pattern="poisson",
                          connections=connections, seed=2)
            per_size.append({
                "n": n,
                "capacity_vps": capacity,
                "probe": probe,
                "steady": steady,
            })

        mixed = _run(
            server,
            mix={WorkloadSpec("fft", n): 1.0 for n in sizes},
            rate=max(400.0, 0.5 * min(r["capacity_vps"]
                                      for r in per_size)),
            duration=duration, pattern="burst",
            connections=connections, seed=3)

    # Overload against a fresh router with a tiny admission queue (a
    # fresh one so steady-state counters don't blur the picture).
    smallest = min(sizes)
    overload_rate = max(2000.0, OVERLOAD_FACTOR * max(
        r["capacity_vps"] for r in per_size if r["n"] == smallest))
    with _ServerThread(
            Router(PlanRegistry(),
                   queue_limit=OVERLOAD_QUEUE_LIMIT),
            warm=[PlanKey("fft", smallest, "complex128")]) as server:
        overload = _run(
            server, mix={WorkloadSpec("fft", smallest): 1.0},
            rate=overload_rate, duration=min(duration, 0.5),
            pattern="uniform", connections=connections, seed=4)

    lines = [
        "Serving latency and sustained throughput "
        "(end-to-end over loopback)",
        f"{'N':>6} {'capacity v/s':>13} {'steady v/s':>11} "
        f"{'p50 ms':>8} {'p90 ms':>8} {'p99 ms':>8}",
    ]
    for rec in per_size:
        steady = rec["steady"]
        lines.append(
            f"{rec['n']:>6} {rec['capacity_vps']:>13.0f} "
            f"{steady['achieved_rate']:>11.0f} "
            f"{steady['p50_ms']:>8.2f} {steady['p90_ms']:>8.2f} "
            f"{steady['p99_ms']:>8.2f}"
        )
    lines.append(
        f"mixed burst: {mixed['achieved_rate']:.0f} v/s, "
        f"p99 {mixed['p99_ms']:.2f} ms, errors {mixed['errors']}"
    )
    lines.append(
        f"overload (queue_limit={OVERLOAD_QUEUE_LIMIT}, offered "
        f"{overload['offered_rate']:.0f} v/s): completed "
        f"{overload['completed']}, rejected "
        f"{overload['errors'].get('overload', 0)} (typed), p99 "
        f"{overload['p99_ms']:.2f} ms"
    )
    write_results("serving", lines)

    # The artifact is written before any gate below can fail.
    _update_artifact({
        "sizes": list(sizes),
        "duration_s": duration,
        "connections": connections,
        "backend": registry.prefer,
        "c_compiler": have_c_compiler(),
        "per_size": per_size,
        "mixed_burst": mixed,
        "overload": {
            "queue_limit": OVERLOAD_QUEUE_LIMIT,
            "summary": overload,
        },
    })

    # Acceptance: every steady run completes work cleanly with a
    # measured latency distribution...
    for rec in per_size:
        steady = rec["steady"]
        assert steady["completed"] > 0
        assert steady["errors"] == {}, (
            f"n={rec['n']}: steady run at half capacity saw "
            f"{steady['errors']}"
        )
        assert steady["p99_ms"] > 0
        assert steady["p50_ms"] <= steady["p99_ms"]
    assert mixed["completed"] > 0

    # ...and overload degrades into *typed, bounded-queue* rejections,
    # not transport failures, while the server keeps serving.
    assert overload["completed"] > 0
    assert overload["errors"].get("overload", 0) > 0, (
        "overload run produced no bounded-queue rejections"
    )
    assert set(overload["errors"]) <= {"overload", "deadline"}


def test_serving_resilience():
    """Availability and p99 across a worker kill-restart event.

    A real supervised fleet (2 workers, subprocess CLI) under
    open-loop load with retrying clients; one worker is SIGKILLed
    mid-run plus light server-side stall/truncate injection.  Gates:
    zero wrong answers, and post-recovery availability >= 99%."""
    if not fork_supported():
        pytest.skip("supervised fleets need fork and SO_REUSEPORT")

    rate = float(os.environ.get("SPL_RESILIENCE_RATE", "200"))
    duration = float(os.environ.get("SPL_RESILIENCE_DURATION", "5"))
    kill_at = max(0.5, duration * 0.3)
    recovery_window = max(1.0, duration * 0.4)
    report = run_chaos(
        workers=2, n=64, rate=rate, duration=duration,
        kill_at=(kill_at,), recovery_window_s=recovery_window,
        server_chaos=ChaosConfig(stall_rate=0.005, stall_s=0.8,
                                 truncate_rate=0.005, seed=13),
        connections=_connections(), seed=17)
    summary = report.summary()

    write_results("serving_resilience", [
        "Fleet resilience across a worker kill-restart "
        "(2 workers, SIGKILL mid-load, retrying clients)",
        f"offered {summary['offered']} ok {summary['ok']} "
        f"wrong {summary['wrong']} errors {summary['errors']}",
        f"availability {summary['availability']:.4f} "
        f"(post-recovery {summary['post_recovery_availability']:.4f}"
        f" over {summary['post_recovery_offered']} arrivals)",
        f"p50 {summary['p50_ms']:.2f} ms, p99 {summary['p99_ms']:.2f}"
        f" ms across the kill-restart event; "
        f"reconnects {summary['reconnects']}, "
        f"retries spent {summary['retries_spent']}",
    ])

    # Recorded before the gates so failed runs still leave evidence.
    _update_artifact({"resilience": {
        "workers": 2,
        "rate": rate,
        "duration_s": duration,
        "kill_at_s": kill_at,
        "summary": summary,
    }})

    assert report.offered > 0
    assert report.wrong == 0, (
        f"{report.wrong} transforms returned INCORRECT results"
    )
    assert report.killed_pids, "the chaos kill never landed"
    assert report.post_recovery_offered > 0
    assert report.post_recovery_availability >= 0.99, summary
    assert report.availability >= 0.9, summary
