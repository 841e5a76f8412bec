"""End-to-end tests for the transform service.

Each test boots a real :class:`SplServer` on an ephemeral port (in a
background thread running its own event loop) and talks to it over
actual sockets, so the full path — framing, routing, admission,
dispatch, breaker-guarded execution — is exercised, not mocked.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    AsyncSplClient,
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    PlanKey,
    PlanRegistry,
    Router,
    ServeError,
    SplClient,
    SplServer,
)
from repro.serve.protocol import dtype_name
from repro.wisdom.store import WisdomStore

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
    """A live server on an ephemeral port, run in its own thread."""

    def __init__(self, router: Router | None = None,
                 warm: list[PlanKey] | None = None):
        self._router = router
        self._warm = warm or []
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
        self.server = SplServer(self._router, warm=self._warm)
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


def numpy_router(**kwargs) -> Router:
    """A router on the NumPy backend: fast to build, CI-safe."""
    return Router(PlanRegistry(prefer="numpy"), **kwargs)


class TestRoundtrips:
    def test_fft_matches_numpy(self):
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness, \
                harness.client() as client:
            x = _complex_vec(16, seed=3)
            y = client.transform("fft", x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)

    def test_wht_matches_dense_semantics(self):
        with ServerHarness(numpy_router(), warm=[WHT8]) as harness, \
                harness.client() as client:
            x = _rng(4).standard_normal(8)
            y = client.transform("wht", x)
            np.testing.assert_allclose(y, _wht_matrix(8) @ x,
                                       atol=1e-9)

    def test_cold_route_builds_on_first_request(self):
        with ServerHarness(numpy_router()) as harness, \
                harness.client() as client:
            x = _complex_vec(32, seed=5)
            y = client.transform("fft", x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)
            assert client.stats()["registry"]["plans"] == 1

    def test_ping_and_stats(self):
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness, \
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
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness:
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
        with ServerHarness(numpy_router()) as harness, \
                harness.client() as client:
            with pytest.raises(BadRequest, match="unknown transform"):
                client.transform("dct", _complex_vec(16))

    def test_wht_rejects_complex_dtype_route(self):
        with ServerHarness(numpy_router()) as harness, \
                harness.client() as client:
            with pytest.raises(BadRequest, match="float64"):
                client.transform("wht", _complex_vec(8))

    def test_unplannable_size(self):
        with ServerHarness(numpy_router()) as harness, \
                harness.client() as client:
            # 3 * 257: not smooth, larger than the direct-DFT cap.
            with pytest.raises(BadRequest, match="not plannable"):
                client.transform("fft", _complex_vec(771))

    def test_payload_length_mismatch(self):
        with ServerHarness(numpy_router()) as harness, \
                harness.client() as client:
            x = _complex_vec(16)
            header = {"op": "transform", "transform": "fft", "n": 16,
                      "dtype": dtype_name(x.dtype)}
            with pytest.raises(BadRequest, match="expected"):
                client._roundtrip(header, x.tobytes()[:-8])

    def test_unknown_op(self):
        with ServerHarness(numpy_router()) as harness, \
                harness.client() as client:
            with pytest.raises(BadRequest, match="unknown op"):
                client._roundtrip({"op": "frobnicate"})

    def test_expired_deadline_is_shed(self):
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness, \
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


class _GatedTarget:
    """Wrap a plan executable; hold every batch until released."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.dtype = inner.dtype
        self.release = threading.Event()

    def apply_many(self, X, **kwargs):
        assert self.release.wait(60), "gate never released"
        return self.inner.apply_many(X, **kwargs)


def _gate(service) -> _GatedTarget:
    """Put a gate in front of ``service``'s executable."""
    gate = _GatedTarget(service.dispatcher.target)
    service.dispatcher.target = gate
    return gate


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
        queue_limit = 4
        extra = 3
        router = numpy_router(queue_limit=queue_limit, max_batch=64)
        with ServerHarness(router, warm=[FFT16]) as harness:
            service = router.try_service(FFT16)
            gate = _gate(service)

            async def drive():
                client = await AsyncSplClient.connect(harness.host,
                                                      harness.port)
                try:
                    x = _complex_vec(16)
                    header = {"op": "transform", "transform": "fft",
                              "n": 16, "dtype": dtype_name(x.dtype)}
                    futures = [client.submit(header, x.tobytes())
                               for _ in range(queue_limit + extra)]
                    await client.drain()
                    # Nothing completes while the gate is held, so
                    # admission fills to exactly queue_limit and every
                    # request past it is rejected.  Release once the
                    # rejections have come back.
                    done = 0
                    while done < extra:
                        done = sum(f.done() for f in futures)
                        await asyncio.sleep(0.01)
                    gate.release.set()
                    return await asyncio.gather(
                        *futures, return_exceptions=True)
                finally:
                    await client.close()

            outcomes = asyncio.run(drive())
            overloads = [o for o in outcomes
                         if isinstance(o, Overloaded)]
            served = [o for o in outcomes if not isinstance(
                o, BaseException)]
            assert len(overloads) == extra
            assert len(served) == queue_limit
            assert overloads[0].queue_limit == queue_limit
            stats = service.admission.stats()
            assert stats.rejected_overload == extra
            assert stats.admitted == queue_limit

    def test_poisoned_request_fails_alone(self):
        batch = 5
        router = numpy_router(max_batch=batch)
        with ServerHarness(router, warm=[WHT8]) as harness:
            service = router.try_service(WHT8)
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

    def test_open_loop_overload_run_reports_typed_outcomes(self):
        router = numpy_router(queue_limit=2, max_batch=4)
        with ServerHarness(router, warm=[FFT16]) as harness:
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
        router = numpy_router(max_batch=8)
        fft64 = PlanKey("fft", 64, "complex128")
        with ServerHarness(router, warm=[FFT16, fft64]) as harness:
            xs = [_complex_vec(16 if s % 2 else 64, seed=s)
                  for s in range(60)]
            outcomes = asyncio.run(_pipelined_burst(harness, xs))
            for x, y in zip(xs, outcomes):
                assert isinstance(y, np.ndarray), y
                np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)


class TestDrain:
    """Graceful drain: stop accepting, answer everything admitted."""

    def test_admitted_requests_complete_and_new_ones_are_refused(self):
        router = numpy_router(max_batch=64)
        with ServerHarness(router, warm=[FFT16]) as harness:
            service = router.try_service(FFT16)
            gate = _gate(service)

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
                    gate.release.set()
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
        router = numpy_router(max_batch=64)
        with ServerHarness(router, warm=[FFT16]) as harness:
            service = router.try_service(FFT16)
            gate = _gate(service)

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
                    gate.release.set()  # let the harness shut down
                    await future
                    return drained
                finally:
                    await client.close()

            drained = asyncio.run(
                asyncio.wait_for(_run_on(harness, drive), 60))
            assert drained is False

    def test_stats_expose_pid_and_drain_state(self):
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness, \
                harness.client() as client:
            stats = client.stats()
            assert stats["pid"] > 0
            assert stats["draining"] is False
            assert stats["inflight"] == 0


class TestReplyHandoff:
    """Replies cross from the dispatcher's worker to the event loop
    with one wake-up per burst, and an admission slot is released when
    its request resolves — whether or not anyone still waits."""

    @staticmethod
    @contextlib.contextmanager
    def _counted_wakeups(harness, calls, fail=None):
        """Inside the block the server loop's ``call_soon_threadsafe``
        counts the drain wake-ups into ``calls``, and raises instead
        of scheduling them while ``fail`` is set."""
        loop, drain = harness._loop, harness.server._drain_resolved
        real = loop.call_soon_threadsafe

        def counting(callback, *args):
            if callback == drain:
                calls.append(callback)
                if fail is not None and fail.is_set():
                    raise RuntimeError("Event loop is closed")
            return real(callback, *args)

        loop.call_soon_threadsafe = counting
        try:
            yield
        finally:
            loop.call_soon_threadsafe = real

    def test_a_resolved_burst_wakes_the_loop_once(self):
        burst = 5
        router = numpy_router(max_batch=64)
        with ServerHarness(router, warm=[FFT16]) as harness:
            service = router.try_service(FFT16)
            gate = _gate(service)
            calls = []

            async def drive():
                client = await AsyncSplClient.connect(harness.host,
                                                      harness.port)
                xs = [_complex_vec(16, seed=s) for s in range(burst)]
                try:
                    futures = [asyncio.ensure_future(
                        client.transform("fft", xs[0]))]
                    # One request holds the worker at the gate ...
                    while service.dispatcher.stats.batches < 1:
                        await asyncio.sleep(0.005)
                    # ... and the rest queue behind it as one batch.
                    futures += [asyncio.ensure_future(
                        client.transform("fft", x)) for x in xs[1:]]
                    while service.admission.inflight < burst:
                        await asyncio.sleep(0.005)
                    with self._counted_wakeups(harness, calls):
                        gate.release.set()
                        # Hold the loop (on purpose) until the worker
                        # has resolved everything: the batch of 1 it
                        # was holding, then the batch queued behind
                        # it, which finds a drain already scheduled
                        # and rides in it.
                        assert service.dispatcher.wait_idle(30.0)
                    assert len(harness.server._resolved) == burst
                    return xs, await asyncio.gather(*futures)
                finally:
                    await client.close()

            xs, results = asyncio.run(
                asyncio.wait_for(_run_on(harness, drive), 60))
            assert len(calls) == 1
            for x, y in zip(xs, results):
                np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)
            stats = service.admission.stats()
            assert service.admission.inflight == 0
            assert stats.completed == burst
            assert service.dispatcher.stats.batches == 2

    def test_a_closed_loop_neither_kills_the_worker_nor_wedges(self):
        router = numpy_router(max_batch=64)
        with ServerHarness(router, warm=[FFT16]) as harness:
            service = router.try_service(FFT16)
            server = harness.server
            calls, fail = [], threading.Event()
            fail.set()

            async def drive():
                client = await AsyncSplClient.connect(harness.host,
                                                      harness.port)
                xs = [_complex_vec(16, seed=s) for s in (21, 22)]
                try:
                    with self._counted_wakeups(harness, calls, fail):
                        first = asyncio.ensure_future(
                            client.transform("fft", xs[0]))
                        # The wake-up raised (as on a loop closed at
                        # shutdown): the reply is parked, nothing else.
                        while not server._resolved:
                            await asyncio.sleep(0.005)
                        assert service.dispatcher.wait_idle(30.0)
                        assert server._drain_scheduled is False
                        assert service.dispatcher._worker.is_alive()
                        assert not first.done()
                        fail.clear()
                        # The next reply schedules a drain as usual,
                        # and the parked one rides in it.
                        second = await client.transform("fft", xs[1])
                    return xs, [await first, second]
                finally:
                    await client.close()

            xs, results = asyncio.run(
                asyncio.wait_for(_run_on(harness, drive), 60))
            assert len(calls) == 2
            for x, y in zip(xs, results):
                np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)
            assert service.admission.inflight == 0

    def test_a_disconnecting_client_does_not_leak_its_slots(self):
        """Three connections each pipeline four transforms and vanish
        while the work is queued.  Every admitted slot must come back
        once the work has run; before the fix each cancelled request
        kept its slot forever and the plan refused all later traffic
        with ``overload``."""
        queue_limit = 8
        router = numpy_router(queue_limit=queue_limit, max_batch=64)
        with ServerHarness(router, warm=[FFT16]) as harness:
            service = router.try_service(FFT16)
            admission = service.admission
            gate = _gate(service)

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
                # 12 sent, 8 admitted (and parked at the gate), 4
                # refused; then every connection drops.
                while admission.stats().admitted < queue_limit:
                    await asyncio.sleep(0.005)
                for client in clients:
                    await client.close()
                await asyncio.gather(*futures, return_exceptions=True)

            asyncio.run(asyncio.wait_for(drive(), 60))
            # The server has noticed: no request task is left ...
            _wait_for(lambda: harness.server._inflight == 0)
            # ... but the queued work still counts against the limit
            # until it has run.
            assert admission.inflight == queue_limit
            gate.release.set()
            assert service.dispatcher.wait_idle(30.0)
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
        """Request -> hand-off hook -> future -> (result) request used
        to be a cycle: eleven objects and both vectors per request that
        only the cyclic collector could free, a young collection every
        ~70 requests and a full one (15 ms on the loop, every reply
        waiting) every few thousand.  Served requests must die by
        reference count."""
        served = 100
        with ServerHarness(numpy_router(), warm=[FFT16]) as harness, \
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
        router = Router(registry)
        keys = [PlanKey("fft", 4, "complex128"),
                PlanKey("fft", 8, "complex128")]
        with ServerHarness(router, warm=keys) as harness, \
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
        with ServerHarness(Router(registry),
                           warm=[PlanKey("fft", 4, "complex128")]) \
                as harness, harness.client() as client:
            stats = client.stats()
            assert stats["registry"]["wisdom_boots"] == 0
            x = _complex_vec(4, seed=9)
            np.testing.assert_allclose(
                client.transform("fft", x), np.fft.fft(x), atol=1e-9)
