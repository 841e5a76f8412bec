"""The asyncio transform service: router, per-plan services, server.

This is the first component that speaks to the outside world: an
asyncio front-end over the length-prefixed protocol
(:mod:`repro.serve.protocol`) that routes each request by
``(transform, n, dtype)`` to a per-plan pipeline::

    socket -> admission control -> BatchDispatcher -> ExecutableRoutine
              (bounded queue,       (coalesces          (c > numpy >
               deadline sheds)       concurrent          python circuit
                                     requests)           breakers)

Each stage already existed; the server is their first joint consumer:

* the **dispatcher** turns concurrent single-vector requests into
  ``apply_many`` batches, work-conserving: an idle worker takes what
  is pending at once, so a request waits for batching only behind the
  batch already executing;
* the **circuit breakers** degrade a faulting backend in place, so a
  poisoned native driver costs the fleet a speed tier, not an error
  storm of ``internal`` responses;
* the **admission controller** bounds each plan's in-flight queue and
  sheds doomed-deadline work with typed rejections instead of letting
  latency collapse.

Requests on one connection may be pipelined; responses carry the
request ``id`` and complete out of order.  The event loop never
blocks: plan builds (compiles) run in the default executor, and
request completion crosses back from the dispatcher's worker thread
through one hand-off queue that wakes the loop once per resolved
batch (``loop.call_soon_threadsafe``) — no thread is parked per
in-flight request, and no self-pipe write is paid per reply.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import deque
from dataclasses import asdict
from functools import partial

from repro.core.errors import SplError
from repro.runtime.dispatcher import BatchDispatcher, DispatcherClosed
from repro.serve.admission import AdmissionController
from repro.serve.errors import (
    BadRequest,
    ServeError,
    Unavailable,
)
from repro.serve.plans import Plan, PlanKey, PlanRegistry
from repro.serve.protocol import (
    bytes_to_vector,
    dtype_name,
    encode_frame,
    read_frame,
    resolve_dtype,
    vector_to_bytes,
)


class PlanService:
    """One routed plan: dispatcher + admission around an executable."""

    def __init__(self, plan: Plan, *, max_batch: int = 64,
                 queue_limit: int = 256, threads: int | None = None):
        self.plan = plan
        self.dispatcher = BatchDispatcher(
            plan.executable, max_batch=max_batch, threads=threads,
        )
        self.admission = AdmissionController(
            queue_limit=queue_limit, batch_hint=max_batch,
        )

    def close(self, drain: bool = True) -> None:
        self.dispatcher.close(drain=drain)

    def stats(self) -> dict:
        return {
            "plan": self.plan.key.describe(),
            "from_wisdom": self.plan.from_wisdom,
            "backend": self.plan.executable.stats(),
            "admission": asdict(self.admission.stats()),
            "dispatch": asdict(self.dispatcher.stats),
        }


class Router:
    """Lazily builds one :class:`PlanService` per requested route."""

    def __init__(self, registry: PlanRegistry | None = None, *,
                 max_batch: int = 64, queue_limit: int = 256,
                 threads: int | None = None):
        self.registry = registry or PlanRegistry()
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.threads = threads
        self._services: dict[PlanKey, PlanService] = {}
        self._lock = threading.Lock()
        self._closed = False

    def try_service(self, key: PlanKey) -> PlanService | None:
        """The already-built service for ``key`` (non-blocking)."""
        return self._services.get(key)

    def service(self, key: PlanKey) -> PlanService:
        """The service for ``key``, building its plan on first use.

        May compile (blocking); the server calls this off the event
        loop.  Raises ``BadRequest`` for unroutable keys and
        ``Unavailable`` once the router is closed.
        """
        existing = self._services.get(key)
        if existing is not None:
            return existing
        plan = self.registry.get(key)  # outside _lock: builds overlap
        with self._lock:
            if self._closed:
                raise Unavailable("router is shut down")
            existing = self._services.get(key)
            if existing is None:
                existing = self._services[key] = PlanService(
                    plan, max_batch=self.max_batch,
                    queue_limit=self.queue_limit, threads=self.threads,
                )
            return existing

    def warm(self, keys: list[PlanKey]) -> list[PlanService]:
        return [self.service(key) for key in keys]

    def services(self) -> list[PlanService]:
        with self._lock:
            return list(self._services.values())

    def close(self, drain: bool = True) -> None:
        with self._lock:
            self._closed = True
            services = list(self._services.values())
        for service in services:
            service.close(drain=drain)

    def stats(self) -> dict:
        return {
            "registry": self.registry.stats(),
            "plans": [service.stats() for service in self.services()],
        }


class SplServer:
    """The asyncio front-end.

    ``await start()`` binds (``port=0`` picks an ephemeral port,
    exposed as ``.port``); ``warm`` prebuilds routes at boot — paired
    with a wisdom-backed registry this is the hot-boot path: the first
    request hits a compiled, search-tuned plan.
    """

    def __init__(self, router: Router | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 warm: list[PlanKey] | None = None,
                 reuse_port: bool = False,
                 chaos=None):
        self.router = router or Router()
        self.host = host
        self.port = port
        self.warm_keys = list(warm or [])
        self.reuse_port = reuse_port
        self.chaos = chaos  # a repro.serve.chaos.ChaosInjector, or None
        self._server: asyncio.base_events.Server | None = None
        self._started_at: float | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._inflight = 0
        self._quiescent: asyncio.Event | None = None
        self.connections_accepted = 0
        # The reply hand-off: dispatcher workers append resolved
        # requests, and whichever finds no drain scheduled wakes the
        # loop — once per burst, however many requests the burst holds.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._resolved: deque = deque()
        self._handoff_lock = threading.Lock()
        self._drain_scheduled = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        loop = self._loop = asyncio.get_running_loop()
        self._quiescent = asyncio.Event()
        self._quiescent.set()
        if self.warm_keys:
            await loop.run_in_executor(
                None, self.router.warm, self.warm_keys)
        # reuse_port is how a supervised fleet shares one address:
        # every worker binds its own SO_REUSEPORT listener on the same
        # (host, port) and the kernel load-balances connections.
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            reuse_port=self.reuse_port or None)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started_at = time.monotonic()
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def drain(self, grace: float = 30.0) -> bool:
        """Graceful drain: stop taking work, finish what was admitted.

        1. the listener closes — no new connections;
        2. new requests on live (pipelined) connections are rejected
           with a typed ``unavailable`` so well-behaved clients move
           to another worker;
        3. every transform already in flight runs to completion and
           its response is written (bounded by ``grace`` seconds).

        Returns True when in-flight work fully quiesced within the
        grace period.  Call :meth:`close` afterwards to tear down.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._quiescent is None:
            return True
        if self._inflight == 0:
            self._quiescent.set()
        try:
            await asyncio.wait_for(self._quiescent.wait(), grace)
            return True
        except asyncio.TimeoutError:
            return False

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)
        loop = asyncio.get_running_loop()
        # Dispatcher close joins worker threads: keep it off the loop.
        await loop.run_in_executor(None, self.router.close)

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        uptime = (time.monotonic() - self._started_at
                  if self._started_at is not None else 0.0)
        return {
            "uptime_s": uptime,
            "pid": os.getpid(),
            "draining": self._draining,
            "inflight": self._inflight,
            "connections_accepted": self.connections_accepted,
            **self.router.stats(),
        }

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.connections_accepted += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        request_tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except BadRequest as exc:
                    # Framing is broken: report once, then hang up —
                    # there is no way to resynchronize the stream.
                    await self._send(writer, write_lock,
                                     exc.to_header())
                    break
                if frame is None:
                    break
                header, payload = frame
                op = header.get("op")
                if op == "transform":
                    # Pipelined: each request completes independently
                    # and responds tagged with its id.
                    req_task = asyncio.ensure_future(
                        self._serve_transform(header, payload, writer,
                                              write_lock))
                    request_tasks.add(req_task)
                    req_task.add_done_callback(request_tasks.discard)
                elif op == "ping":
                    await self._send(writer, write_lock, {
                        "status": "ok", "op": "ping",
                        "id": header.get("id"),
                    })
                elif op == "stats":
                    await self._send(writer, write_lock, {
                        "status": "ok", "op": "stats",
                        "id": header.get("id"), "stats": self.stats(),
                    })
                else:
                    await self._send(writer, write_lock, {
                        "status": "error", "code": "bad_request",
                        "id": header.get("id"),
                        "message": f"unknown op {op!r}",
                    })
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            for req_task in list(request_tasks):
                req_task.cancel()
            if request_tasks:
                try:
                    await asyncio.gather(*request_tasks,
                                         return_exceptions=True)
                except asyncio.CancelledError:
                    pass
            writer.close()
            try:
                # Swallow cancellation too: server close() cancels
                # connection tasks that may already be in here, and a
                # task ending "cancelled" makes asyncio's stream
                # machinery log a spurious error.
                await writer.wait_closed()
            except (ConnectionError, OSError,
                    asyncio.CancelledError):
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    async def _send(self, writer: asyncio.StreamWriter,
                    write_lock: asyncio.Lock, header: dict,
                    payload: bytes = b"") -> None:
        async with write_lock:
            writer.write(encode_frame(header, payload))
            await writer.drain()

    async def _send_truncated(self, writer: asyncio.StreamWriter,
                              write_lock: asyncio.Lock, header: dict,
                              payload: bytes = b"") -> None:
        """Chaos only: half a frame, then a dead connection."""
        frame = encode_frame(header, payload)
        async with write_lock:
            writer.write(frame[:max(4, len(frame) // 2)])
            await writer.drain()
            writer.close()

    async def _serve_transform(self, header: dict, payload: bytes,
                               writer: asyncio.StreamWriter,
                               write_lock: asyncio.Lock) -> None:
        request_id = header.get("id")
        self._inflight += 1
        if self._quiescent is not None:
            self._quiescent.clear()
        try:
            try:
                response, result_payload = await self._execute(header,
                                                               payload)
            except ServeError as exc:
                response, result_payload = exc.to_header(), b""
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - typed for wire
                response = {"status": "error", "code": "internal",
                            "message": f"{type(exc).__name__}: {exc}"}
                result_payload = b""
            response["id"] = request_id
            chaos = self.chaos
            if chaos is not None and chaos.take_stall():
                # Chaos: hold the finished response so clients must
                # prove their per-request timeout fires.
                await asyncio.sleep(chaos.stall_s)
            try:
                if chaos is not None and chaos.take_truncate():
                    # Chaos: write a frame whose length prefix
                    # promises more bytes than follow, then hang up
                    # mid-frame.
                    await self._send_truncated(writer, write_lock,
                                               response,
                                               result_payload)
                else:
                    await self._send(writer, write_lock, response,
                                     result_payload)
            except (ConnectionError, OSError):
                pass  # client went away; work is already accounted
        finally:
            self._inflight -= 1
            if (self._inflight == 0 and self._draining
                    and self._quiescent is not None):
                self._quiescent.set()

    async def _execute(self, header: dict,
                       payload: bytes) -> tuple[dict, bytes]:
        arrival = time.monotonic()
        if self._draining:
            # Admitted work keeps running; *new* work is turned away
            # so pipelining clients re-dial onto a live worker.
            raise Unavailable("server is draining")
        key = PlanKey.from_header(header)
        deadline_ms = header.get("deadline_ms")
        deadline = None
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) \
                    or deadline_ms <= 0:
                raise BadRequest(f"bad deadline_ms {deadline_ms!r}")
            deadline = arrival + float(deadline_ms) / 1e3
        x = bytes_to_vector(payload, key.n, resolve_dtype(key.dtype))

        loop = self._loop
        service = self.router.try_service(key)
        if service is None:
            # First request for this route: build off the event loop.
            try:
                service = await loop.run_in_executor(
                    None, self.router.service, key)
            except SplError as exc:
                raise BadRequest(f"unplannable route "
                                 f"{key.describe()}: {exc}") from exc

        chaos = self.chaos
        if chaos is not None and chaos.take_trip():
            # Chaos: force the plan's circuit breaker to walk one tier
            # down, mid-load.  The request itself still executes (on
            # the degraded backend) and must stay bit-correct.
            chaos.force_trip(service.plan.executable)

        service.admission.try_admit(time.monotonic(), deadline)
        future: asyncio.Future = loop.create_future()
        # From here the admission slot belongs to the dispatcher's
        # request, not to this task: it is released when the request
        # resolves (in _drain_resolved), so a client that vanishes
        # mid-flight cannot leak it, and its queued work keeps counting
        # against queue_limit until it has actually run.
        try:
            service.dispatcher.submit(x, partial(
                self._hand_off, service.admission, arrival, future))
        except DispatcherClosed as exc:
            service.admission.complete(arrival, time.monotonic(),
                                       ok=False)
            raise Unavailable(str(exc)) from exc
        except ValueError as exc:
            service.admission.complete(arrival, time.monotonic(),
                                       ok=False)
            raise BadRequest(str(exc)) from exc

        request = await future
        done_at = time.monotonic()
        error = request.error
        if error is not None:
            if isinstance(error, DispatcherClosed):
                raise Unavailable(str(error))
            # The breakers already degraded through every tier; this
            # is the chain-exhausted (or poisoned-request) case.
            raise ServeError(f"{type(error).__name__}: {error}")
        result = request.result
        return (
            {
                "status": "ok",
                "n": int(result.shape[0]),
                "dtype": dtype_name(result.dtype),
                "server_ms": (done_at - arrival) * 1e3,
            },
            vector_to_bytes(result),
        )

    # -- the reply hand-off --------------------------------------------------

    def _hand_off(self, admission: AdmissionController, arrival: float,
                  future: asyncio.Future, request) -> None:
        """Dispatcher-worker side: queue one resolved request for the
        loop, waking it only if no drain is already on its way."""
        self._resolved.append((admission, arrival, future, request))
        with self._handoff_lock:
            if self._drain_scheduled:
                return  # that drain has not started popping: it sees us
            self._drain_scheduled = True
        try:
            self._loop.call_soon_threadsafe(self._drain_resolved)
        except RuntimeError:
            # The loop is closed (shutdown): nobody is left to answer.
            # Clear the flag so the hand-off is not wedged shut.
            with self._handoff_lock:
                self._drain_scheduled = False

    def _drain_resolved(self) -> None:
        """Loop side: resolve every waiting future, release every
        slot.  The flag drops *before* the first pop, so a request
        appended after the last pop always schedules its own drain."""
        with self._handoff_lock:
            self._drain_scheduled = False
        resolved = self._resolved
        now = time.monotonic()
        while resolved:
            admission, arrival, future, request = resolved.popleft()
            # A done future here is a cancelled one: its connection
            # dropped.  The work ran, the slot is freed, but a reply
            # nobody waited for is no service-time sample.
            waiting = not future.done()
            admission.complete(arrival, now,
                               ok=waiting and request.error is None)
            if waiting:
                future.set_result(request)
