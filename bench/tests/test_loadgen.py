"""The load generator against fake servers on its own event loop."""

import asyncio
import os
import time

import numpy as np

from repro.serve.client import AsyncSplClient
from repro.serve.protocol import encode_frame, read_frame

from bench.serving import (
    MAX_LATE_S,
    Phase,
    Session,
    Traffic,
    closed_loop,
    open_loop,
    run_generator,
    window_values,
)


async def _fake_server(stall_at: int | None, stall_s: float,
                       corrupt: bool = False, blocking: bool = False):
    """An echo server that stalls for ``stall_s`` when it reads request
    ``stall_at``: its connection only, or (``blocking``) the whole
    event loop, so that the generator stalls with it."""
    async def handle(reader, writer):
        while True:
            frame = await read_frame(reader)
            if frame is None:
                break
            header, payload = frame
            if header["id"] == stall_at:
                if blocking:
                    time.sleep(stall_s)
                else:
                    await asyncio.sleep(stall_s)
            if corrupt:
                payload = bytes(len(payload))
            writer.write(encode_frame(
                {"status": "ok", "id": header["id"], "n": header["n"],
                 "dtype": header["dtype"], "server_ms": 0.0}, payload))
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _open_phase(arrivals: list[float], **server_kwargs) -> Phase:
    async def main() -> Phase:
        server, port = await _fake_server(**server_kwargs)
        client = await AsyncSplClient.connect("127.0.0.1", port)
        phase = Phase(Traffic(16, 0, echo=True))
        try:
            await open_loop(phase, [client], arrivals)
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
        return phase

    return run_generator(main())


def test_a_stalled_server_inflates_the_latency_of_later_requests():
    # 200 requests/s for one second; the server stalls at 0.1 s for
    # 0.3 s.  The generator keeps sending on time, and the 60 requests
    # that queue behind the stall carry the part of it they sat through.
    phase = _open_phase([i * 0.005 for i in range(200)],
                        stall_at=20, stall_s=0.3)
    assert phase.attempted == phase.ok == 200
    assert phase.failed == 0 and phase.skipped == 0
    latency = np.asarray(phase.reply_at) - np.asarray(phase.due_at)
    assert np.sum(latency > 0.1) >= 30
    assert latency.max() > 0.25
    assert np.median(latency) < 0.05
    assert max(phase.lateness_s) < MAX_LATE_S


def test_open_loop_times_each_request_from_when_it_was_due():
    # 1000 requests/s; at 0.05 s the whole loop, generator included,
    # stops for 0.04 s.  The 40 requests that fell due meanwhile are
    # sent late in one burst: timed from when they were sent they would
    # all look fast, timed from when they were due they carry the stall.
    phase = _open_phase([i * 0.001 for i in range(300)],
                        stall_at=50, stall_s=0.04, blocking=True)
    assert phase.attempted == phase.ok == 300 and phase.skipped == 0
    latency = np.asarray(phase.reply_at) - np.asarray(phase.due_at)
    assert max(phase.lateness_s) > 0.03
    assert np.sum(latency > 0.02) >= 15
    assert np.median(latency) < 0.01


def test_arrivals_the_generator_is_too_late_for_are_skipped_and_counted():
    # The loop stops for 0.3 s: of the 60 arrivals that fell due
    # meanwhile, those more than MAX_LATE_S overdue are not sent as one
    # burst; they are counted and were never attempted.
    phase = _open_phase([i * 0.005 for i in range(200)],
                        stall_at=20, stall_s=0.3, blocking=True)
    assert 40 <= phase.skipped <= 60
    assert phase.attempted == phase.ok == 200 - phase.skipped
    assert phase.failed == 0
    assert max(phase.lateness_s) <= MAX_LATE_S


def test_wrong_replies_are_counted_and_not_timed():
    async def main() -> Phase:
        server, port = await _fake_server(None, 0.0, corrupt=True)
        client = await AsyncSplClient.connect("127.0.0.1", port)
        phase = Phase(Traffic(16, 0, echo=True))
        try:
            await closed_loop(phase, [client], 0.3)
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
        return phase

    phase = run_generator(main())
    assert phase.checked > 0
    assert phase.wrong == phase.checked == phase.failed
    assert phase.ok == phase.attempted - phase.wrong
    assert len(phase.reply_at) == phase.ok


async def _shedding_server(refuse):
    """An echo server that answers ``overload`` to every request id
    ``refuse`` holds of, and ``internal`` to request 7."""
    async def handle(reader, writer):
        while True:
            frame = await read_frame(reader)
            if frame is None:
                break
            header, payload = frame
            reply = {"status": "ok", "id": header["id"], "n": header["n"],
                     "dtype": header["dtype"], "server_ms": 0.0}
            if refuse(header["id"]):
                reply, payload = {"status": "error", "id": header["id"],
                                  "code": "overload", "message": ""}, b""
            elif header["id"] == 7:
                reply, payload = {"status": "error", "id": header["id"],
                                  "code": "internal", "message": ""}, b""
            writer.write(encode_frame(reply, payload))
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _shed_phases(refuse, phases: list[dict]) -> dict:
    async def main() -> dict:
        server, port = await _shedding_server(refuse)
        session = Session(("127.0.0.1", port), os.getpid(),
                          Traffic(16, 0, echo=True), has_stats=False)
        session.clients = [await AsyncSplClient.connect("127.0.0.1", port)]
        try:
            for index, kwargs in enumerate(phases):
                await session.phase(kwargs.pop("name", str(index)), **kwargs)
        finally:
            await session.__aexit__()
            server.close()
            await server.wait_closed()
        return session.rows

    return run_generator(main())


def test_an_overdriven_phase_may_be_refused_but_not_failed():
    """Phase ``high`` is driven past the admission queue on purpose:
    there a typed ``overload`` is the right answer, is not retried and
    must not fail the pass; any other error still does."""
    high = _shed_phases(lambda i: i % 3 == 0, [
        dict(rate=300.0, seconds=0.2, overdriven=True)])["0"]
    assert high["refused"] == high["errors"]["overload"] > 0
    assert high["retries"] == 0
    assert high["failed"] == high["errors"]["internal"] == 1
    assert high["ok"] + high["refused"] + high["failed"] == high["attempted"]


def test_a_refused_request_is_sent_again_and_timed_from_when_it_was_due():
    """Elsewhere a refusal is the server saying "later": the request
    goes out again (under a new id) after a pause, the operation ends
    ok, and its latency carries the pause."""
    rows = _shed_phases(lambda i: i % 10 == 0, [
        dict(rate=300.0, seconds=0.2), dict(seconds=0.2)])
    for row in rows.values():
        assert row["retries"] > 0 and row["refused"] == 0
        assert row["failed"] == row["errors"].get("internal", 0) <= 1
        assert row["ok"] + row["failed"] == row["attempted"]
    assert max(rows["0"]["windows"]["latency_p99_ms"]) > 10.0


def test_a_request_refused_every_time_fails_in_the_end(monkeypatch):
    monkeypatch.setattr("bench.serving.MAX_RETRIES", 2)
    row = _shed_phases(lambda i: True, [dict(rate=100.0, seconds=0.1)])["0"]
    assert row["attempted"] > 0 and row["ok"] == 0
    assert row["failed"] == row["errors"]["overload"] == row["attempted"]
    assert row["retries"] == 2 * row["attempted"]


def test_segments_of_one_phase_are_pooled_into_one_row():
    # Two stretches of "open" around one of "closed", as the end-to-end
    # pass alternates them: one row per name, counts added, each
    # segment cut into its own windows.
    rows = _shed_phases(lambda i: False, [
        dict(name="open", rate=200.0, seconds=0.2, seed=1),
        dict(name="closed", seconds=0.1),
        dict(name="open", rate=200.0, seconds=0.2, seed=2)])
    assert sorted(rows) == ["closed", "open"]
    row = rows["open"]
    assert row["segments"] == 2 and abs(row["seconds"] - 0.4) < 1e-9
    # (request 7 of the connection is the fake server's one hard error)
    assert row["failed"] == 1
    assert row["attempted"] - 1 == row["ok"] == row["samples"] > 40
    assert len(row["windows"]["latency_p50_ms"]) == 2
    assert row["latency_p50_ms"] == np.median(row["windows"]["latency_p50_ms"])
    assert rows["closed"]["segments"] == 1 and rows["closed"]["vps"] > 0


def test_windows_cut_a_phase_by_time():
    # 8 windows of 100 samples, one per 10 ms; window 3 is 10x slower.
    times = np.arange(800) * 0.01
    values = np.ones(800)
    values[300:400] = 10.0
    out = window_values(times, 0.0, 8.0, 8, {
        "p99": (values, lambda w: np.percentile(w, 99)),
        "rate": (times, lambda w: len(w) / 1.0),
    })
    assert out["p99"] == [1.0, 1.0, 1.0, 10.0, 1.0, 1.0, 1.0, 1.0]
    assert out["rate"] == [100.0] * 8
