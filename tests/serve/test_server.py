"""End-to-end tests for the transform service.

Each test boots a real :class:`SplServer` on an ephemeral port (in a
background thread running its own event loop) and talks to it over
actual sockets, so the full path — framing, routing, admission,
dispatch, breaker-guarded execution — is exercised, not mocked.
"""

from __future__ import annotations

import asyncio
import gc
import io
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import SplError
from repro.serve import (
    AsyncSplClient,
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    PlanKey,
    PlanRegistry,
    ServeError,
    SplClient,
    SplServer,
)
from repro.serve.protocol import (
    MAX_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    PREFIX_BYTES,
    dtype_name,
    encode_frame,
    frame_head,
    read_frame_sync,
)
from repro.wisdom.store import WisdomStore

from tests.serve.fleet import _SRC_ROOT, FleetProcess

FFT16 = PlanKey("fft", 16, "complex128")
WHT8 = PlanKey("wht", 8, "float64")


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def _complex_vec(n: int, seed: int = 0) -> np.ndarray:
    rng = _rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _wht_matrix(n: int) -> np.ndarray:
    matrix = np.array([[1.0]])
    while matrix.shape[0] < n:
        matrix = np.block([[matrix, matrix], [matrix, -matrix]])
    return matrix


class ServerHarness:
    """A live server on an ephemeral port, run in its own thread.  The
    registry defaults to the NumPy backend (fast to build, CI-safe);
    keyword arguments go to :class:`SplServer`."""

    def __init__(self, registry: PlanRegistry | None = None,
                 **server_kwargs):
        self._registry = registry or PlanRegistry(prefer="numpy")
        self._server_kwargs = server_kwargs
        self._ready = threading.Event()
        self._boot_error: BaseException | None = None
        self._thread = threading.Thread(target=self._thread_main,
                                        daemon=True)
        self.server: SplServer | None = None
        self.host = ""
        self.port = 0

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            self._boot_error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = SplServer(self._registry, **self._server_kwargs)
        self.host, self.port = await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.close()

    def __enter__(self) -> "ServerHarness":
        self._thread.start()
        assert self._ready.wait(60), "server did not boot"
        if self._boot_error is not None:
            raise self._boot_error
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "server did not shut down"

    def client(self) -> SplClient:
        return SplClient(self.host, self.port)


async def _pipelined_burst(harness: ServerHarness,
                           xs: list[np.ndarray]) -> list:
    """Submit an fft of every vector on one connection without awaiting
    any reply; the outcomes (vector or exception) in submission order."""
    client = await AsyncSplClient.connect(harness.host, harness.port)
    try:
        futures = [client.submit(
            {"op": "transform", "transform": "fft",
             "n": int(x.shape[0]), "dtype": dtype_name(x.dtype)},
            x.tobytes(), timeout=30.0) for x in xs]
        await client.drain()
        replies = await asyncio.gather(*futures, return_exceptions=True)
        return [r if isinstance(r, BaseException) else r[1]
                for r in replies]
    finally:
        await client.close()


class TestRoundtrips:
    def test_fft_matches_numpy(self):
        with ServerHarness(warm=[FFT16]) as harness, \
                harness.client() as client:
            x = _complex_vec(16, seed=3)
            y = client.transform("fft", x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)

    def test_wht_matches_dense_semantics(self):
        with ServerHarness(warm=[WHT8]) as harness, \
                harness.client() as client:
            x = _rng(4).standard_normal(8)
            y = client.transform("wht", x)
            np.testing.assert_allclose(y, _wht_matrix(8) @ x,
                                       atol=1e-9)

    def test_cold_route_builds_on_first_request(self):
        with ServerHarness() as harness, \
                harness.client() as client:
            x = _complex_vec(32, seed=5)
            y = client.transform("fft", x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)
            assert client.stats()["registry"]["plans"] == 1

    def test_ping_and_stats(self):
        with ServerHarness(warm=[FFT16]) as harness, \
                harness.client() as client:
            client.ping()
            stats = client.stats()
            assert stats["registry"]["plans"] == 1
            (plan,) = stats["plans"]
            assert plan["plan"] == "fft:16:complex128"
            assert plan["admission"]["admitted"] == 0

    def test_pipelined_responses_match_their_requests(self):
        # Many concurrent requests on one connection; each response is
        # matched back by id, so every caller must get *its own* row.
        with ServerHarness(warm=[FFT16]) as harness:
            async def drive():
                client = await AsyncSplClient.connect(harness.host,
                                                      harness.port)
                try:
                    vecs = [_complex_vec(16, seed=s)
                            for s in range(24)]
                    results = await asyncio.gather(*[
                        client.transform("fft", x) for x in vecs])
                    for x, y in zip(vecs, results):
                        np.testing.assert_allclose(
                            y, np.fft.fft(x), atol=1e-9)
                finally:
                    await client.close()

            asyncio.run(drive())


class TestTypedErrors:
    def test_unknown_transform(self):
        with ServerHarness() as harness, \
                harness.client() as client:
            with pytest.raises(BadRequest, match="unknown transform"):
                client.transform("dct", _complex_vec(16))

    def test_wht_rejects_complex_dtype_route(self):
        with ServerHarness() as harness, \
                harness.client() as client:
            with pytest.raises(BadRequest, match="float64"):
                client.transform("wht", _complex_vec(8))

    def test_unplannable_size(self):
        with ServerHarness() as harness, \
                harness.client() as client:
            # 3 * 257: not smooth, larger than the direct-DFT cap.
            with pytest.raises(BadRequest, match="not plannable"):
                client.transform("fft", _complex_vec(771))

    def test_payload_length_mismatch(self):
        with ServerHarness() as harness, \
                harness.client() as client:
            x = _complex_vec(16)
            header = {"op": "transform", "transform": "fft", "n": 16,
                      "dtype": dtype_name(x.dtype)}
            with pytest.raises(BadRequest, match="expected"):
                client._roundtrip(header, x.tobytes()[:-8])

    def test_unknown_op(self):
        with ServerHarness() as harness, \
                harness.client() as client:
            with pytest.raises(BadRequest, match="unknown op"):
                client._roundtrip({"op": "frobnicate"})

    def test_expired_deadline_is_shed(self):
        with ServerHarness(warm=[FFT16]) as harness, \
                harness.client() as client:
            # A 1ns budget has always expired by admission time; the
            # request must be shed, not executed.
            with pytest.raises(DeadlineExceeded):
                client.transform("fft", _complex_vec(16),
                                 deadline_ms=1e-6)
            stats = client.stats()
            (plan,) = stats["plans"]
            assert plan["admission"]["shed_deadline"] == 1
            assert plan["admission"]["admitted"] == 0

    @pytest.mark.parametrize("field, value", [
        ("dtype", [1]), ("dtype", {}), ("deadline_ms", True)])
    def test_a_malformed_header_field_is_a_bad_request(
            self, fft16_server, field, value):
        """An unhashable dtype used to escape as ``internal``, and a
        JSON ``true`` passed as a 1 ms deadline; the request beside it
        is served."""
        x = _complex_vec(16, seed=12)
        header = {"op": "transform", "transform": "fft", "n": 16,
                  "dtype": "complex128", "id": 1, field: value}
        with _raw_connect(fft16_server) as sock, \
                sock.makefile("rb") as reader:
            sock.sendall(encode_frame(header, x.tobytes())
                         + _route_frame(FFT16, x, 2))
            replies = dict((h["id"], h) for h, _ in
                           (read_frame_sync(reader) for _ in range(2)))
        assert replies[1]["code"] == "bad_request"
        assert replies[2]["status"] == "ok"

    def test_a_boolean_payload_length_is_a_bad_request(self, fft16_server):
        """``"payload_bytes": true`` used to frame a 1-byte payload; it
        breaks the framing like any other bad length."""
        head = frame_head({"op": "ping", "id": 1, "payload_bytes": True})
        with _raw_connect(fft16_server) as sock, \
                sock.makefile("rb") as reader:
            sock.sendall(head + b"\0")
            header, _ = read_frame_sync(reader)
            assert header["code"] == "bad_request"
            assert read_frame_sync(reader) is None  # and hung up


class _Held:
    """Keep ``service``'s admitted requests pending until released.

    The batch runs on the event loop, so holding the kernel would hold
    the loop; instead the route's per-turn ``run`` does nothing, and
    the loop keeps reading, admitting and answering everything else.
    ``release()`` (from any thread) restores ``run`` and runs what is
    pending on the loop."""

    def __init__(self, harness: "ServerHarness", service):
        self.harness, self.service = harness, service
        self.run = service.dispatcher.run
        service.dispatcher.run = lambda: None

    def release(self) -> None:
        server = self.harness.server

        def resume() -> None:
            self.service.dispatcher.run = self.run
            server._busy[self.service] = None
            server._run()

        self.harness._loop.call_soon_threadsafe(resume)


def _hold(harness: "ServerHarness", key: PlanKey) -> _Held:
    return _Held(harness, harness.server.routes[key])


class _Transport:
    """A stand-in for a connection's transport: keeps what the server
    writes and counts the ``writelines`` calls that wrote it."""

    def __init__(self):
        self.written = bytearray()
        self.writes = 0
        self.closing = False

    def writelines(self, chunks) -> None:
        self.writes += 1
        for chunk in chunks:
            self.written += chunk

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True


async def _fed(server: SplServer, *streams: bytes) -> list[_Transport]:
    """Hand each of ``streams`` to its own new connection in one
    ``data_received`` call each, all in one loop turn, then let the
    loop answer every request; the connections' transports."""
    from repro.serve.server import _Connection

    conns = []
    for stream in streams:
        conn = _Connection(server)
        conn.connection_made(_Transport())
        conn.data_received(stream)
        conns.append(conn)
    while any(conn.pending for conn in conns):
        await asyncio.sleep(0)
    for conn in conns:
        conn.connection_lost(None)
    return [conn.transport for conn in conns]


def _frames(data: bytes) -> list[tuple[dict, bytes]]:
    """The frames in ``data``, in order."""
    reader, frames = io.BytesIO(data), []
    while (frame := read_frame_sync(reader)) is not None:
        frames.append(frame)
    return frames


async def _started(**server_kwargs) -> SplServer:
    server = SplServer(PlanRegistry(prefer="numpy"), **server_kwargs)
    await server.start()
    return server


class _PoisonDetector:
    """Wrap a plan executable; refuse any batch containing NaN."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.dtype = inner.dtype

    def apply_many(self, X, **kwargs):
        if np.isnan(np.asarray(X).real).any():
            raise ValueError("poisoned batch")
        return self.inner.apply_many(X, **kwargs)


class TestOverloadAndIsolation:
    def test_bounded_queue_rejects_with_typed_overload(self):
        """One read holding ``queue_limit + extra`` frames: admission
        sees the whole burst before any batch runs, so the first
        ``queue_limit`` are served and exactly the rest refused, on
        every run."""
        queue_limit, extra = 4, 3
        x = _complex_vec(16)
        stream = b"".join(_route_frame(FFT16, x, i)
                          for i in range(queue_limit + extra))

        async def drive():
            server = await _started(warm=[FFT16],
                                    queue_limit=queue_limit)
            try:
                (transport,) = await _fed(server, stream)
                return server.routes[FFT16], _frames(transport.written)
            finally:
                await server.close()

        service, replies = asyncio.run(drive())
        codes = {header["id"]: header.get("code", header["status"])
                 for header, _ in replies}
        assert codes == {i: "ok" if i < queue_limit else "overload"
                         for i in range(queue_limit + extra)}
        for header, payload in replies:
            if header["status"] == "ok":
                np.testing.assert_allclose(
                    np.frombuffer(payload, dtype=complex), np.fft.fft(x),
                    atol=1e-9)
            else:
                assert header["queue_limit"] == queue_limit
        stats = service.admission.stats()
        assert stats.rejected_overload == extra
        assert stats.admitted == stats.completed == queue_limit
        assert service.dispatcher.stats.batches == 1

    def test_poisoned_request_fails_alone(self):
        batch = 5
        with ServerHarness(warm=[WHT8], max_batch=batch) as harness:
            service = harness.server.routes[WHT8]
            service.dispatcher.target = _PoisonDetector(
                service.dispatcher.target)

            async def drive():
                client = await AsyncSplClient.connect(harness.host,
                                                      harness.port)
                try:
                    clean = [_rng(s).standard_normal(8)
                             for s in range(batch - 1)]
                    poison = np.full(8, np.nan)
                    futures = [client.transform("wht", x)
                               for x in clean]
                    futures.append(client.transform("wht", poison))
                    results = await asyncio.gather(
                        *futures, return_exceptions=True)
                    return clean, results
                finally:
                    await client.close()

            clean, results = asyncio.run(drive())
            *served, poisoned = results
            assert isinstance(poisoned, ServeError)
            assert poisoned.code == "internal"
            assert "poisoned" in str(poisoned)
            for x, y in zip(clean, served):
                assert not isinstance(y, BaseException)
                np.testing.assert_allclose(y, _wht_matrix(8) @ x,
                                           atol=1e-9)

    def test_an_id_too_large_to_echo_is_answered_without_it(self):
        """A request header at the cap carries an ``id`` its reply
        header cannot echo (the reply's fixed fields are longer): the
        failed and the served request each get a ``bad_request``
        without an id, the requests beside them are answered, and
        nothing stays in flight."""
        with ServerHarness(warm=[WHT8]) as harness:
            service = harness.server.routes[WHT8]
            service.dispatcher.target = _PoisonDetector(
                service.dispatcher.target)
            x = _rng(1).standard_normal(8)

            def frame(values, request_id):
                return encode_frame(
                    {"op": "transform", "transform": "wht", "n": 8,
                     "dtype": "float64", "id": request_id},
                    values.tobytes())

            base = len(frame(x, "")) - PREFIX_BYTES - x.nbytes
            huge = "x" * (MAX_HEADER_BYTES - base)
            stream = b"".join([frame(np.full(8, np.nan), huge),
                               frame(x, huge), frame(x, 1)])
            with _raw_connect(harness) as sock, \
                    sock.makefile("rb") as reader:
                sock.sendall(stream)
                replies = [read_frame_sync(reader) for _ in range(3)]
            codes = sorted((header.get("code", "ok"), header.get("id"))
                           for header, _ in replies)
            assert codes == [("bad_request", None), ("bad_request", None),
                             ("ok", 1)]
            (payload,) = [p for header, p in replies if header.get("id")]
            np.testing.assert_allclose(np.frombuffer(payload),
                                       _wht_matrix(8) @ x, atol=1e-9)
            _wait_for(lambda: harness.server._inflight == 0, timeout=5)

    def test_open_loop_overload_run_reports_typed_outcomes(self):
        with ServerHarness(warm=[FFT16], queue_limit=2,
                           max_batch=4) as harness:
            outcomes = asyncio.run(_pipelined_burst(
                harness, [_complex_vec(16, seed=s) for s in range(400)]))
            # A pipelined burst far beyond queue_limit=2 never waits
            # on a reply, so the bounded queue must shed — and only
            # with the typed overload code, never a timeout, a
            # transport error or a lost request.
            ok = [y for y in outcomes if isinstance(y, np.ndarray)]
            refused = [y for y in outcomes if isinstance(y, Overloaded)]
            assert ok and refused
            assert len(ok) + len(refused) == len(outcomes) == 400

    def test_two_routes_interleaved_on_one_connection(self):
        fft64 = PlanKey("fft", 64, "complex128")
        with ServerHarness(warm=[FFT16, fft64], max_batch=8) as harness:
            xs = [_complex_vec(16 if s % 2 else 64, seed=s)
                  for s in range(60)]
            outcomes = asyncio.run(_pipelined_burst(harness, xs))
            for x, y in zip(xs, outcomes):
                assert isinstance(y, np.ndarray), y
                np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)


class TestDrain:
    """Graceful drain: stop accepting, answer everything admitted."""

    def test_admitted_requests_complete_and_new_ones_are_refused(self):
        with ServerHarness(warm=[FFT16], max_batch=64) as harness:
            held = _hold(harness, FFT16)

            async def drive():
                client = await AsyncSplClient.connect(harness.host,
                                                      harness.port)
                xs = [_complex_vec(16, seed=s) for s in range(4)]
                try:
                    futures = [asyncio.ensure_future(
                        client.transform("fft", x)) for x in xs]
                    await client.drain()
                    # Admit everything before the drain begins.
                    while harness.server._inflight < len(xs):
                        await asyncio.sleep(0.005)
                    drain_task = asyncio.ensure_future(
                        harness.server.drain(grace=30.0))
                    await asyncio.sleep(0.05)
                    # Connections already established get the typed
                    # rejection for *new* work...
                    with pytest.raises(ServeError) as excinfo:
                        await client.transform("fft", xs[0])
                    assert excinfo.value.code == "unavailable"
                    # ...while fresh connections are refused outright
                    # (the listener is closed).
                    with pytest.raises((ConnectionError, OSError)):
                        await asyncio.wait_for(
                            AsyncSplClient.connect(harness.host,
                                                   harness.port), 5)
                    assert not drain_task.done()
                    held.release()
                    drained = await drain_task
                    results = await asyncio.gather(*futures)
                    return drained, xs, results
                finally:
                    await client.close()

            drained, xs, results = asyncio.run(
                asyncio.wait_for(_run_on(harness, drive), 60))
            assert drained is True
            # Zero admitted requests lost: every one answered, right.
            for x, y in zip(xs, results):
                np.testing.assert_allclose(y, np.fft.fft(x),
                                           atol=1e-9)

    def test_drain_times_out_when_requests_never_finish(self):
        with ServerHarness(warm=[FFT16], max_batch=64) as harness:
            held = _hold(harness, FFT16)

            async def drive():
                client = await AsyncSplClient.connect(harness.host,
                                                      harness.port)
                try:
                    future = asyncio.ensure_future(
                        client.transform("fft", _complex_vec(16)))
                    await client.drain()
                    while harness.server._inflight < 1:
                        await asyncio.sleep(0.005)
                    drained = await harness.server.drain(grace=0.2)
                    held.release()
                    await future
                    return drained
                finally:
                    await client.close()

            drained = asyncio.run(
                asyncio.wait_for(_run_on(harness, drive), 60))
            assert drained is False

    def test_close_flushes_replies_a_slow_reader_has_not_read(
            self, monkeypatch):
        """Every admitted reply is already written when the drain
        quiesces, but most still sit in the transport's buffer behind a
        reader that has not read: drain + close (a worker's SIGTERM
        path) must deliver them all before hanging up."""
        from repro.serve import server as server_module

        requests, key = 512, PlanKey("fft", 1024, "complex128")
        conn_type = server_module._Connection
        real_made = conn_type.connection_made

        def made(conn, transport):
            # Never pause reading: every request is admitted before
            # the drain, and its reply queues in the transport.
            real_made(conn, transport)
            transport.set_write_buffer_limits(high=1 << 30)

        monkeypatch.setattr(conn_type, "connection_made", made)
        xs = [_complex_vec(1024, seed=s) for s in range(4)]
        stream = b"".join(
            encode_frame({"op": "transform", "transform": "fft",
                          "n": 1024, "dtype": "complex128", "id": i},
                         xs[i % 4].tobytes()) for i in range(requests))
        harness = ServerHarness(warm=[key],
                                queue_limit=requests).__enter__()
        # Exiting the harness closes the server and ends its loop, as
        # a worker returns from asyncio.run after close().
        closer = threading.Thread(target=harness.__exit__,
                                  args=(None, None, None))
        try:
            with socket.socket() as sock:
                # A small receive window keeps the kernel from
                # absorbing the 8 MiB of replies on the server's behalf.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                                32768)
                sock.settimeout(30)
                sock.connect((harness.host, harness.port))
                sock.sendall(stream)
                admission = harness.server.routes[key].admission
                _wait_for(lambda: admission.stats().completed == requests
                          and harness.server._inflight == 0)
                (conn,) = harness.server._connections
                assert conn.transport.get_write_buffer_size() > 0
                assert asyncio.run_coroutine_threadsafe(
                    harness.server.drain(grace=30.0),
                    harness._loop).result(30) is True
                closer.start()
                expected = [np.fft.fft(x) for x in xs]
                answered = set()
                with sock.makefile("rb") as reader:
                    for _ in range(requests):
                        header, payload = read_frame_sync(reader)
                        assert header["status"] == "ok"
                        answered.add(header["id"])
                        np.testing.assert_allclose(
                            np.frombuffer(payload, dtype=complex),
                            expected[header["id"] % 4], atol=1e-6)
                    assert read_frame_sync(reader) is None  # hung up
                assert answered == set(range(requests))
        finally:
            if closer.ident is None:
                closer.start()
            closer.join(60)

    def test_stats_expose_pid_and_drain_state(self):
        with ServerHarness(warm=[FFT16]) as harness, \
                harness.client() as client:
            stats = client.stats()
            assert stats["pid"] > 0
            assert stats["draining"] is False
            assert stats["inflight"] == 0

    def test_close_cancels_what_a_route_still_holds(self):
        """Requests still pending when the server closes are resolved
        with ``DispatcherClosed``, not run: their slots are released
        and the hung-up client is sent nothing."""
        x = _complex_vec(16)
        harness = ServerHarness(warm=[FFT16]).__enter__()
        service = harness.server.routes[FFT16]
        _hold(harness, FFT16)
        with _raw_connect(harness) as sock:
            sock.sendall(b"".join(_route_frame(FFT16, x, i)
                                  for i in range(3)))
            _wait_for(lambda: service.admission.inflight == 3)
            harness.__exit__(None, None, None)
            assert sock.recv(1) == b""
        stats = service.dispatcher.stats
        assert (stats.cancelled_requests, stats.batches) == (3, 0)
        assert service.admission.inflight == 0
        assert service.admission.stats().failed == 3


class TestOneRunPerTurn:
    """What one loop turn brings runs on the loop as one batch per
    route: one ``_run`` callback per turn, one write per connection,
    and an admission slot released when its request resolves — whether
    or not anyone still waits."""

    def test_one_run_callback_per_turn_and_one_write_per_connection(
            self):
        xs = [_complex_vec(16, seed=s) for s in range(6)]
        ws = [_rng(s).standard_normal(8) for s in range(6)]
        stream = b"".join(
            [_route_frame(FFT16, x, i) for i, x in enumerate(xs)]
            + [_route_frame(WHT8, w, 10 + i) for i, w in enumerate(ws)])
        runs = []

        async def drive():
            server = await _started(warm=[FFT16, WHT8])
            real_run = server._run

            def counted_run() -> None:
                runs.append(len(server._busy))
                real_run()

            server._run = counted_run
            try:
                return server, await _fed(server, stream, stream)
            finally:
                await server.close()

        server, transports = asyncio.run(drive())
        assert runs == [2]  # one callback, both routes busy in it
        for transport in transports:
            assert transport.writes == 1
            replies = {header["id"]: payload
                       for header, payload in _frames(transport.written)}
            assert sorted(replies) == [*range(6), *range(10, 16)]
            for i, x in enumerate(xs):
                np.testing.assert_allclose(
                    np.frombuffer(replies[i], dtype=complex),
                    np.fft.fft(x), atol=1e-9)
            for i, w in enumerate(ws):
                np.testing.assert_allclose(
                    np.frombuffer(replies[10 + i]), _wht_matrix(8) @ w,
                    atol=1e-9)
        for key in (FFT16, WHT8):
            stats = server.routes[key].dispatcher.stats
            assert (stats.requests, stats.batches) == (12, 1)

    def test_a_disconnecting_client_does_not_leak_its_slots(self):
        """Three connections each pipeline four transforms and vanish
        while the work is queued.  Every admitted slot must come back
        once the work has run; before the fix each cancelled request
        kept its slot forever and the plan refused all later traffic
        with ``overload``."""
        queue_limit = 8
        with ServerHarness(warm=[FFT16], queue_limit=queue_limit,
                           max_batch=64) as harness:
            admission = harness.server.routes[FFT16].admission
            held = _hold(harness, FFT16)

            async def drive():
                x = _complex_vec(16)
                header = {"op": "transform", "transform": "fft",
                          "n": 16, "dtype": dtype_name(x.dtype)}
                clients = [await AsyncSplClient.connect(
                    harness.host, harness.port) for _ in range(3)]
                futures = [client.submit(header, x.tobytes())
                           for client in clients for _ in range(4)]
                for client in clients:
                    await client.drain()
                # 12 sent, 8 admitted (and held pending), 4 refused;
                # then every connection drops.
                while admission.stats().admitted < queue_limit:
                    await asyncio.sleep(0.005)
                for client in clients:
                    await client.close()
                await asyncio.gather(*futures, return_exceptions=True)

            asyncio.run(asyncio.wait_for(drive(), 60))
            # The server has noticed: nothing is left in flight ...
            _wait_for(lambda: harness.server._inflight == 0)
            # ... but the queued work still counts against the limit
            # until it has run.
            assert admission.inflight == queue_limit
            held.release()
            _wait_for(lambda: admission.inflight == 0)
            stats = admission.stats()
            assert stats.admitted == queue_limit
            assert stats.admitted == stats.completed + stats.failed
            # Nobody was waiting: no service-time sample was taken.
            assert stats.failed == queue_limit
            with harness.client() as client:
                x = _complex_vec(16, seed=31)
                np.testing.assert_allclose(client.transform("fft", x),
                                           np.fft.fft(x), atol=1e-9)
            assert admission.stats().completed == 1

    def test_a_served_request_leaves_nothing_for_the_collector(self):
        """Request -> resolve hook -> future -> (result) request used
        to be a cycle: eleven objects and both vectors per request that
        only the cyclic collector could free, a young collection every
        ~70 requests and a full one (15 ms on the loop, every reply
        waiting) every few thousand.  Served requests must die by
        reference count."""
        served = 100
        with ServerHarness(warm=[FFT16]) as harness, \
                harness.client() as client:
            x = _complex_vec(16, seed=41)
            for _ in range(5):
                client.transform("fft", x)
            gc.collect()
            gc.disable()
            try:
                for _ in range(served):
                    client.transform("fft", x)
                unreachable = gc.collect()
            finally:
                gc.enable()
        assert unreachable < served, unreachable  # was 11 per request


def _wait_for(condition, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


async def _run_on(harness: ServerHarness, coro_fn):
    """Run ``coro_fn()`` on the harness server's own event loop."""
    loop = asyncio.get_running_loop()
    future = asyncio.run_coroutine_threadsafe(coro_fn(),
                                              harness._loop)
    return await loop.run_in_executor(None, future.result, 55)


class TestWisdomHotBoot:
    def test_warmed_plan_replays_the_search_winner(self, tmp_path):
        from repro.search.dp import search_small_sizes

        store = WisdomStore(tmp_path / "wisdom.json")
        results = search_small_sizes(
            (4, 8), max_candidates=2, min_time=0.0005, wisdom=store)
        assert set(results) == {4, 8}

        registry = PlanRegistry(prefer="numpy", wisdom=store)
        keys = [PlanKey("fft", 4, "complex128"),
                PlanKey("fft", 8, "complex128")]
        with ServerHarness(registry, warm=keys) as harness, \
                harness.client() as client:
            stats = client.stats()
            assert stats["registry"]["wisdom_boots"] == 2
            assert all(plan["from_wisdom"]
                       for plan in stats["plans"])
            for n, seed in ((4, 1), (8, 2)):
                x = _complex_vec(n, seed=seed)
                np.testing.assert_allclose(
                    client.transform("fft", x), np.fft.fft(x),
                    atol=1e-9)

    def test_tampered_wisdom_degrades_to_cold_build(self, tmp_path):
        from repro.search.dp import search_small_sizes

        store = WisdomStore(tmp_path / "wisdom.json")
        search_small_sizes((4,), max_candidates=2, min_time=0.0005,
                           wisdom=store)
        # Corrupt the stored formula: it must be re-validated at boot
        # and evicted, never served.
        for entry in store.entries.values():
            entry.formula = "(I 4)"

        registry = PlanRegistry(prefer="numpy", wisdom=store)
        with ServerHarness(registry,
                           warm=[PlanKey("fft", 4, "complex128")]) \
                as harness, harness.client() as client:
            stats = client.stats()
            assert stats["registry"]["wisdom_boots"] == 0
            x = _complex_vec(4, seed=9)
            np.testing.assert_allclose(
                client.transform("fft", x), np.fft.fft(x), atol=1e-9)


class _GatedBuilds:
    """Stand in for ``registry.get``: record every call, hold the build
    of ``key`` until ``release`` is set, and fail its first
    ``failures`` builds.  Leaving the ``with`` block releases it."""

    def __init__(self, registry: PlanRegistry, key: PlanKey,
                 failures: int = 0):
        self.inner, self.key, self.failures = registry.get, key, failures
        self.calls: list[PlanKey] = []
        self.entered, self.release = threading.Event(), threading.Event()
        registry.get = self

    def __call__(self, key: PlanKey):
        self.calls.append(key)
        if key == self.key:
            self.entered.set()
            assert self.release.wait(60), "build gate never released"
            if self.failures:
                self.failures -= 1
                raise SplError("injected build failure")
        return self.inner(key)

    def __enter__(self) -> "_GatedBuilds":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release.set()


def _route_frame(key: PlanKey, x: np.ndarray, request_id: int) -> bytes:
    return encode_frame({"op": "transform", "transform": key.transform,
                         "n": key.n, "dtype": key.dtype, "id": request_id},
                        x.tobytes())


class TestColdRoutes:
    """A cold route is built once, off the loop; the requests that
    arrive meanwhile wait on the loop, not in executor threads."""

    def test_parked_requests_do_not_delay_another_cold_route(self):
        fft64 = PlanKey("fft", 64, "complex128")
        registry = PlanRegistry(prefer="numpy")
        x64, x16 = _complex_vec(64, seed=1), _complex_vec(16, seed=2)
        stream = b"".join([_route_frame(fft64, x64, i) for i in range(8)]
                          + [_route_frame(FFT16, x16, 8)])
        with ServerHarness(registry) as harness, \
                _GatedBuilds(registry, fft64) as builds:
            # Six threads: the default executor's size on a 2-core
            # host, whatever this one has.
            harness._loop.set_default_executor(ThreadPoolExecutor(6))
            with _raw_connect(harness) as sock, \
                    sock.makefile("rb") as reader:
                sock.settimeout(10)
                sock.sendall(stream)
                header, payload = read_frame_sync(reader)
                # fft:16 is answered while fft:64's build is held.
                assert header["id"] == 8 and not builds.release.is_set()
                np.testing.assert_allclose(
                    np.frombuffer(payload, dtype=complex), np.fft.fft(x16),
                    atol=1e-9)
                builds.release.set()
                replies = [read_frame_sync(reader) for _ in range(8)]
        assert sorted(header["id"] for header, _ in replies) == \
            list(range(8))
        for _, payload in replies:
            np.testing.assert_allclose(
                np.frombuffer(payload, dtype=complex), np.fft.fft(x64),
                atol=1e-9)
        assert builds.calls.count(fft64) == 1

    def test_a_burst_on_a_cold_route_builds_it_once(self):
        requests = 100
        registry = PlanRegistry(prefer="numpy")
        x = _complex_vec(16, seed=3)
        with ServerHarness(registry) as harness, \
                _GatedBuilds(registry, FFT16) as builds, \
                _raw_connect(harness) as sock, \
                sock.makefile("rb") as reader:
            sock.sendall(b"".join(_route_frame(FFT16, x, i)
                                  for i in range(requests)))
            assert builds.entered.wait(30)
            _wait_for(lambda: harness.server._inflight == requests)
            builds.release.set()
            replies = [read_frame_sync(reader) for _ in range(requests)]
        assert {header["id"] for header, _ in replies} == \
            set(range(requests))
        for header, payload in replies:
            assert header["status"] == "ok"
            np.testing.assert_allclose(
                np.frombuffer(payload, dtype=complex), np.fft.fft(x),
                atol=1e-9)
        assert builds.calls == [FFT16]

    def test_a_failed_build_answers_every_parked_request_and_retries(self):
        parked = 5
        registry = PlanRegistry(prefer="numpy")
        x = _complex_vec(16, seed=4)
        with ServerHarness(registry) as harness, \
                _GatedBuilds(registry, FFT16, failures=1) as builds, \
                _raw_connect(harness) as sock, \
                sock.makefile("rb") as reader:
            sock.sendall(b"".join(_route_frame(FFT16, x, i)
                                  for i in range(parked)))
            assert builds.entered.wait(30)
            _wait_for(lambda: harness.server._inflight == parked)
            builds.release.set()
            failed = [read_frame_sync(reader)[0] for _ in range(parked)]
            assert not harness.server.routes
            sock.sendall(_route_frame(FFT16, x, parked))
            header, payload = read_frame_sync(reader)
        assert sorted(header["id"] for header in failed) == \
            list(range(parked))
        for reply in failed:
            assert reply["code"] == "bad_request"
            assert "unplannable route fft:16:complex128" in reply["message"]
        assert header["status"] == "ok" and header["id"] == parked
        np.testing.assert_allclose(np.frombuffer(payload, dtype=complex),
                                   np.fft.fft(x), atol=1e-9)
        assert builds.calls == [FFT16, FFT16]

    def test_a_build_that_ends_after_close_routes_nothing(self):
        registry = PlanRegistry(prefer="numpy")
        builds = _GatedBuilds(registry, FFT16)
        harness = ServerHarness(registry).__enter__()
        closer = threading.Thread(target=harness.__exit__,
                                  args=(None, None, None))
        try:
            with _raw_connect(harness) as sock:
                sock.sendall(_route_frame(FFT16, _complex_vec(16), 0))
                assert builds.entered.wait(30)
                closer.start()
                # close() has begun: it hung up on the connection.
                assert sock.recv(1) == b""
                builds.release.set()
                closer.join(60)
        finally:
            builds.release.set()
            if closer.ident is None:
                closer.start()
            closer.join(60)
        assert not closer.is_alive()
        assert builds.calls == [FFT16]
        assert not harness.server.routes

    def test_a_route_starts_no_thread(self):
        """A warmed route is built on the loop and its batches run
        there: serving it adds no thread to the server's own."""
        before = set(threading.enumerate())
        x = _complex_vec(16, seed=8)
        with ServerHarness(warm=[FFT16]) as harness:
            outcomes = asyncio.run(_pipelined_burst(harness, [x] * 64))
            added = set(threading.enumerate()) - before
            assert added == {harness._thread}
        for y in outcomes:
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)

    def test_racing_registry_gets_share_one_plan(self):
        """The registry has no lock: threads racing on one cold key may
        each compile, but every one must get the plan stored first."""
        threads, registry = 8, PlanRegistry(prefer="numpy")
        start, plans = threading.Barrier(threads), []

        def race() -> None:
            start.wait(30)
            plans.append(registry.get(WHT8))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            racers = [threading.Thread(target=race) for _ in range(threads)]
            for racer in racers:
                racer.start()
            for racer in racers:
                racer.join(60)
                assert not racer.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(plans) == threads
        assert all(plan is plans[0] for plan in plans)
        assert registry.get(WHT8) is plans[0]
        assert registry.stats()["plans"] == registry.stats()["builds"] == 1

    def test_a_wht_frame_without_a_dtype_is_float64(self):
        x = _rng(6).standard_normal(8)
        frame = encode_frame({"op": "transform", "transform": "wht",
                              "n": 8, "id": 0}, x.tobytes())
        with ServerHarness() as harness, _raw_connect(harness) as sock, \
                sock.makefile("rb") as reader:
            sock.sendall(frame)
            header, payload = read_frame_sync(reader)
        assert header["status"] == "ok" and header["dtype"] == "float64"
        np.testing.assert_allclose(np.frombuffer(payload),
                                   _wht_matrix(8) @ x, atol=1e-9)

    def test_a_route_spec_follows_the_header_rules(self):
        from repro.serve.__main__ import main

        assert PlanKey.parse("wht:8") == WHT8 == PlanKey.from_header(
            {"transform": "wht", "n": 8})
        assert PlanKey.parse("fft:16") == FFT16
        assert PlanKey.parse("fft:16:complex128") == FFT16
        for spec in ("fft", "fft:x", "fft:-4", "fft:8:int8", "a:1:b:c"):
            with pytest.raises(BadRequest):
                PlanKey.parse(spec)
        with pytest.raises(SystemExit) as excinfo:
            main(["--warm", "fft:x"])
        assert excinfo.value.code == 2

    def test_workers_is_the_one_way_to_use_more_cores(self, capsys):
        from repro.serve.__main__ import main

        # Threads inside a worker competed with its event loop for the
        # cores: the option is gone, and a script still passing it
        # fails loudly instead of silently serving on one thread.
        with pytest.raises(SystemExit) as excinfo:
            main(["--threads", "2"])
        assert excinfo.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert main(["--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err


class TestCliBounds:
    """A value the server cannot run with is a usage error (exit 2)
    before anything starts, never a traceback or a fork loop."""

    BENCH_ARGV = ["--port", "0", "--workers", "1", "--prefer", "c",
                  "--warm", "fft:64"]

    @pytest.mark.parametrize("argv", [
        ["--max-batch", "0"],
        ["--queue-limit", "0"],
        ["--workers", "2", "--restart-budget", "0"],
        ["--workers", "2", "--heartbeat-timeout-s", "0"],
        # At the worker's own beat interval every ready worker reads as
        # wedged and is SIGKILLed.
        ["--workers", "2", "--heartbeat-timeout-s", "0.5"],
        ["--workers", "2", "--heartbeat-timeout-s", "nan"],
        # A zero window forgets each restart at once: no budget trips.
        ["--workers", "2", "--restart-window-s", "0"],
        ["--drain-grace-s", "-1"],
        # bind() takes 0-65535 and raised OverflowError past either end.
        ["--port", "70000"],
        ["--port", "-5"],
    ])
    def test_an_unrunnable_value_is_a_usage_error(self, argv, capsys):
        from repro.serve.__main__ import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(self.BENCH_ARGV + argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: spl serve")
        assert f"argument {argv[-2]}: must be" in err

    def test_the_benchmark_flags_and_the_bounds_themselves_parse(self):
        from repro.serve.__main__ import build_parser

        args = build_parser().parse_args(self.BENCH_ARGV + [
            "--max-batch", "1", "--queue-limit", "1",
            "--restart-budget", "1", "--heartbeat-timeout-s", "0.51",
            "--restart-window-s", "0.01", "--drain-grace-s", "0"])
        assert (args.port, args.workers, args.prefer, args.warm) == (
            0, 1, "c", ["fft:64"])
        assert (args.max_batch, args.queue_limit, args.restart_budget,
                args.heartbeat_timeout_s, args.restart_window_s,
                args.drain_grace_s) == (1, 1, 1, 0.51, 0.01, 0.0)

    def test_a_fleet_refuses_before_it_forks(self):
        # Past argparse, every worker of this fleet dies at boot and
        # the supervisor forks replacements until it is killed.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC_ROOT, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--workers", "2",
             "--port", "0", "--max-batch", "0"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "usage: spl serve" in done.stderr
        assert "Traceback" not in done.stderr


# -- the connection protocol, byte by byte -------------------------------

_REPLY_FIELDS = ["status", "n", "dtype", "server_ms", "id",
                 "payload_bytes"]
#: The largest header an n=1024 reply carries, for sizing replies.
_REPLY_HEAD = {"status": "ok", "n": 1024, "dtype": "complex128",
               "server_ms": 0.123456789, "id": 99999,
               "payload_bytes": 16384}


def _raw_connect(harness: ServerHarness) -> socket.socket:
    sock = socket.create_connection((harness.host, harness.port),
                                    timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _request_frame(kind: str, request_id: int, seed: int = 0) -> bytes:
    """One request frame of a drawn ``kind``."""
    x = _complex_vec(16, seed=seed)
    fft16 = {"op": "transform", "transform": "fft", "n": 16,
             "dtype": "complex128", "id": request_id}
    if kind == "fft":
        return encode_frame(fft16, x.tobytes())
    if kind == "short":  # a payload one element short: typed, in sync
        return encode_frame(fft16, x[:-1].tobytes())
    if kind == "ping":
        return encode_frame({"op": "ping", "id": request_id})
    # An unknown op with a payload: the payload must be skipped.
    return encode_frame({"op": "frobnicate", "id": request_id},
                        x.tobytes()[:seed * 8 + 1])


def _exchange(harness: ServerHarness, chunks: list[bytes],
              replies: int) -> dict:
    """Send ``chunks`` one ``send`` each; the ``replies`` read back,
    keyed by id, as (header items without ``server_ms``, payload)."""
    with _raw_connect(harness) as sock, sock.makefile("rb") as stream:
        for chunk in chunks:
            sock.sendall(chunk)
            if len(chunks) > 1:
                time.sleep(0.0005)  # let each land as its own read
        answered = {}
        for _ in range(replies):
            header, payload = read_frame_sync(stream)
            if header.get("status") == "ok" and "n" in header:
                assert list(header) == _REPLY_FIELDS
            items = [(k, v) for k, v in header.items() if k != "server_ms"]
            answered[header["id"]] = (items, payload)
        return answered


def _split(data: bytes, cuts: list[int]) -> list[bytes]:
    bounds = [0, *sorted(set(cut % len(data) for cut in cuts) - {0}),
              len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


_KINDS = st.sampled_from(["fft", "fft", "ping", "unknown", "short"])


@pytest.fixture(scope="module")
def fft16_server():
    with ServerHarness(warm=[FFT16]) as harness:
        yield harness


class TestFraming:
    """``data_received`` parses whatever bytes a read delivers: a frame
    split anywhere, or many frames in one read, answer exactly as one
    frame per send does."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kinds=st.lists(st.tuples(_KINDS, st.integers(0, 3)),
                          min_size=1, max_size=8),
           cuts=st.lists(st.integers(1, 1 << 20), max_size=12))
    def test_any_split_answers_like_one_frame_per_send(
            self, fft16_server, kinds, cuts):
        frames = [_request_frame(kind, i, seed)
                  for i, (kind, seed) in enumerate(kinds)]
        stream = b"".join(frames)
        baseline = _exchange(fft16_server, frames, len(frames))
        assert sorted(baseline) == list(range(len(frames)))
        assert _exchange(fft16_server, _split(stream, cuts),
                         len(frames)) == baseline
        assert _exchange(fft16_server, [stream],
                         len(frames)) == baseline

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(broken=st.sampled_from(["zero", "oversize", "payload_cap"]),
           pings=st.integers(0, 3),
           cuts=st.lists(st.integers(1, 1 << 20), max_size=6))
    def test_a_broken_length_gets_one_typed_error_then_a_hangup(
            self, fft16_server, broken, pings, cuts):
        if broken == "zero":
            tail = struct.pack(">I", 0)
        elif broken == "oversize":
            tail = struct.pack(">I", MAX_HEADER_BYTES + 1)
        else:
            tail = encode_frame({"op": "transform", "id": "big",
                                 "payload_bytes": MAX_PAYLOAD_BYTES + 1})
        stream = b"".join(
            [_request_frame("ping", i) for i in range(pings)] + [tail])
        with _raw_connect(fft16_server) as sock, \
                sock.makefile("rb") as reader:
            for chunk in _split(stream, cuts):
                sock.sendall(chunk)
            for i in range(pings):
                assert read_frame_sync(reader)[0]["id"] == i
            header, payload = read_frame_sync(reader)
            assert header["status"] == "error"
            assert header["code"] == "bad_request"
            assert "id" not in header and payload == b""
            assert read_frame_sync(reader) is None  # and hung up

    def test_an_unknown_op_with_a_payload_keeps_the_stream_in_sync(
            self, fft16_server):
        x = _complex_vec(16, seed=5)
        frames = [_request_frame("unknown", 0, seed=3),
                  encode_frame({"op": "transform", "transform": "fft",
                                "n": 16, "dtype": "complex128",
                                "id": 1}, x.tobytes())]
        answered = _exchange(fft16_server, [b"".join(frames)], 2)
        items, payload = answered[0]
        assert dict(items)["code"] == "bad_request"
        assert "frobnicate" in dict(items)["message"]
        assert dict(answered[1][0])["status"] == "ok"
        np.testing.assert_allclose(
            np.frombuffer(answered[1][1], dtype=complex), np.fft.fft(x),
            atol=1e-9)


class TestNoPerRequestMachinery:
    def test_pipelined_requests_make_no_task_or_future_each(
            self, monkeypatch):
        """1 000 pipelined warm-route transforms: a constant number of
        tasks and futures (the accept path's and the connection's
        ``closed``, none per request), and at most one socket write per
        connection per loop turn's run."""
        requests = 1000
        with ServerHarness(queue_limit=requests,
                           warm=[FFT16]) as harness:
            self._count(harness, requests, monkeypatch)

    @staticmethod
    def _count(harness, requests, monkeypatch):
        loop, server = harness._loop, harness.server
        created = []
        for name in ("create_task", "create_future"):
            real = getattr(loop, name)
            monkeypatch.setattr(loop, name, lambda *a, _real=real,
                                _name=name, **k: (created.append(_name),
                                                  _real(*a, **k))[1])
        sends: dict[int, int] = {}
        for name in ("send", "sendmsg"):
            real = getattr(socket.socket, name)

            def counted(sock, *args, _real=real, **kwargs):
                sends[sock.fileno()] = sends.get(sock.fileno(), 0) + 1
                return _real(sock, *args, **kwargs)

            monkeypatch.setattr(socket.socket, name, counted)
        most_per_run = []
        real_run = server._run

        def run():
            served = {conn.transport.get_extra_info("socket").fileno()
                      for conn in server._connections}
            before = {fd: sends.get(fd, 0) for fd in served}
            real_run()
            most_per_run.append(max(
                (sends.get(fd, 0) - count for fd, count in before.items()),
                default=0))

        monkeypatch.setattr(server, "_run", run)
        x = _complex_vec(16, seed=7)
        stream = b"".join(
            encode_frame({"op": "transform", "transform": "fft",
                          "n": 16, "dtype": "complex128", "id": i},
                         x.tobytes()) for i in range(requests))
        with _raw_connect(harness) as sock, \
                sock.makefile("rb") as reader:
            sock.sendall(stream)
            ids = set()
            for _ in range(requests):
                header, payload = read_frame_sync(reader)
                assert header["status"] == "ok"
                ids.add(header["id"])
                np.testing.assert_allclose(
                    np.frombuffer(payload, dtype=complex), np.fft.fft(x),
                    atol=1e-9)
        assert ids == set(range(requests))
        monkeypatch.undo()
        assert len(created) <= 3, created
        assert most_per_run and max(most_per_run) <= 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc")
class TestOneThreadPerWorker:
    def test_a_warmed_loaded_worker_is_one_os_thread(self, monkeypatch):
        """``python -m repro.serve --workers 1 --warm fft:64``, after
        1 000 pipelined requests, each checked against numpy: the
        worker process is one OS thread.  OpenBLAS starts a thread pool
        of its own when numpy is imported; it is held to one thread
        here so that the count is the server's."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        xs = [_complex_vec(64, seed=s) for s in range(8)]
        sent = [xs[i % len(xs)] for i in range(1000)]
        with FleetProcess(workers=1, prefer="c", warm=("fft:64",),
                          extra_args=("--queue-limit", "1000")) as worker:
            outcomes = asyncio.run(_pipelined_burst(worker, sent))
            with SplClient(worker.host, worker.port) as client:
                pid = client.stats()["pid"]
            tasks = os.listdir(f"/proc/{pid}/task")
        for x, y in zip(sent, outcomes):
            assert isinstance(y, np.ndarray), y
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)
        assert len(tasks) == 1, tasks


class _Flood:
    """A thread that pipelines ``count`` n=1024 transforms on one raw
    socket without reading a reply, until done or told to stop."""

    n = 1024

    def __init__(self, sock: socket.socket, count: int):
        self.sock, self.count = sock, count
        self.xs = [_complex_vec(self.n, seed=s) for s in range(4)]
        self.sent = 0
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        self.sock.settimeout(0.1)
        try:
            for i in range(self.count):
                view = memoryview(encode_frame(
                    {"op": "transform", "transform": "fft", "n": self.n,
                     "dtype": "complex128", "id": i},
                    self.xs[i % 4].tobytes()))
                while view:
                    try:
                        view = view[self.sock.send(view):]
                    except socket.timeout:
                        if self.stop.is_set():
                            return
                self.sent += 1
        except OSError:
            pass  # the socket was closed under us: the hang-up case

    def settled(self, quiet_s: float = 0.3) -> bool:
        """True once everything is sent or nothing went out for
        ``quiet_s`` (the kernel's buffers are full)."""
        before = self.sent
        time.sleep(quiet_s)
        return self.sent in (before, self.count)


class TestBackpressure:
    """A client that does not read its replies stops being read, and
    what the server buffers for it is bounded: the transport's
    high-water mark plus the replies of work already admitted (at most
    ``queue_limit`` of them, however much the client pushed)."""

    requests = 2048  # 32 MiB of n=1024 complex128 requests
    key = PlanKey("fft", 1024, "complex128")

    @staticmethod
    def _watch(monkeypatch):
        """Record every flush's write-buffer size and every pause."""
        from repro.serve import server as server_module

        seen = {"peak": 0, "pauses": 0, "high": 0}
        conn_type = server_module._Connection
        real_flush, real_pause = conn_type.flush, conn_type.pause_writing

        def flush(conn):
            real_flush(conn)
            seen["peak"] = max(seen["peak"],
                               conn.transport.get_write_buffer_size())
            seen["high"] = conn.transport.get_write_buffer_limits()[1]

        def pause(conn):
            seen["pauses"] += 1
            real_pause(conn)

        monkeypatch.setattr(conn_type, "flush", flush)
        monkeypatch.setattr(conn_type, "pause_writing", pause)
        return seen

    def test_an_unread_connection_pauses_and_then_gets_every_reply(
            self, monkeypatch):
        seen = self._watch(monkeypatch)
        with ServerHarness(warm=[self.key]) as harness, \
                _raw_connect(harness) as sock:
            flood = _Flood(sock, self.requests)
            _wait_for(lambda: seen["pauses"] and flood.settled())
            (conn,) = harness.server._connections
            assert not conn.transport.is_reading()
            reply_bytes = len(frame_head(_REPLY_HEAD)) + 16 * 1024
            bound = (seen["high"]
                     + harness.server.queue_limit * reply_bytes)
            assert seen["peak"] <= bound < self.requests * 16 * 1024 // 4
            sock.settimeout(30)
            expected = [np.fft.fft(x) for x in flood.xs]
            answered, codes = set(), []
            with sock.makefile("rb") as reader:
                while len(answered) < self.requests:
                    header, payload = read_frame_sync(reader)
                    answered.add(header["id"])
                    codes.append(header.get("code", header["status"]))
                    if header["status"] == "ok":
                        np.testing.assert_allclose(
                            np.frombuffer(payload, dtype=complex),
                            expected[header["id"] % 4], atol=1e-6)
            flood.thread.join(30)
            assert flood.sent == self.requests
            assert answered == set(range(self.requests))
            # Admission sheds what a full queue cannot take, typed.
            assert set(codes) <= {"ok", "overload"} and "ok" in codes
            assert seen["peak"] <= bound
            _wait_for(lambda: harness.server._inflight == 0)

    def test_a_client_hanging_up_mid_flight_leaks_no_slot(
            self, monkeypatch):
        seen = self._watch(monkeypatch)
        with ServerHarness(warm=[self.key]) as harness:
            admission = harness.server.routes[self.key].admission
            with _raw_connect(harness) as sock:
                flood = _Flood(sock, self.requests)
                _wait_for(lambda: seen["pauses"] and flood.settled(0.05))
                flood.stop.set()
                flood.thread.join(30)
            _wait_for(lambda: harness.server._inflight == 0)
            _wait_for(lambda: admission.inflight == 0)
            stats = admission.stats()
            assert stats.admitted > 0
            assert stats.admitted == stats.completed + stats.failed
            with harness.client() as client:
                x = _complex_vec(1024, seed=3)
                np.testing.assert_allclose(client.transform("fft", x),
                                           np.fft.fft(x), atol=1e-6)
