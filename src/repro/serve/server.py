"""The asyncio transform service: the route table and the server.

This is the first component that speaks to the outside world: an
asyncio front-end over the length-prefixed protocol
(:mod:`repro.serve.protocol`) that routes each request by
``(transform, n, dtype)`` through the server's one route table to a
per-plan pipeline::

    socket -> routes[key] -> admission -> BatchDispatcher -> ExecutableRoutine
              (a cold key    (bounded     (coalesces         (c > numpy >
               builds once)   queue,       concurrent         python circuit
                              deadline     requests)          breakers)
                              sheds)

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

The connection model: each connection is one :class:`asyncio.Protocol`
(:class:`_Connection`), not a coroutine per request.
``data_received`` appends to the connection's buffer and parses every
complete frame in it in one pass; a ``transform`` goes from there,
synchronously, through validation, admission and
``dispatcher.submit``, its payload copied once, straight out of the
receive buffer into the request's vector.  No task and no future is
made per request.

A cold route is built once.  Its first request starts the one
default-executor job that builds its plan; every request for the
route that arrives meanwhile parks in a per-key list on the loop.
When the build succeeds, the route enters the table and the parked
requests are submitted; when it fails, each gets the typed error and
nothing is cached, so the next request builds again.  The table and
the parked lists are touched only on the loop thread, so neither
needs a lock, and a burst of requests on a cold route holds one
executor thread, not one per request.

Requests on one connection may be pipelined; responses carry the
request ``id`` and complete out of order.  Completions cross back from
the dispatcher's worker thread through one hand-off queue that wakes
the loop once per burst (``loop.call_soon_threadsafe``), and that
drain writes each connection's replies with one ``writelines`` — the
JSON header, then a view of the result row.  Backpressure is the
transport's: while a connection's unsent replies are above the
transport's high-water mark, the server stops reading that
connection's requests.  On shutdown, :meth:`SplServer.close` lets each
connection's unsent replies reach the socket before it hangs up.
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
    PREFIX_BYTES,
    bytes_to_vector,
    decode_header,
    dtype_name,
    encode_frame,
    frame_head,
    header_length,
    payload_length,
    resolve_dtype,
)


class PlanService:
    """One routed plan: dispatcher + admission around an executable."""

    def __init__(self, plan: Plan, *, max_batch: int = 64,
                 queue_limit: int = 256):
        self.plan = plan
        self.dispatcher = BatchDispatcher(plan.executable,
                                          max_batch=max_batch)
        self.admission = AdmissionController(
            queue_limit=queue_limit, batch_hint=max_batch,
        )

    def stats(self) -> dict:
        return {
            "plan": self.plan.key.describe(),
            "from_wisdom": self.plan.from_wisdom,
            "backend": self.plan.executable.stats(),
            "admission": asdict(self.admission.stats()),
            "dispatch": asdict(self.dispatcher.stats),
        }


class SplServer:
    """The asyncio front-end.

    ``await start()`` binds (``port=0`` picks an ephemeral port,
    exposed as ``.port``); ``warm`` prebuilds routes at boot — paired
    with a wisdom-backed registry this is the hot-boot path: the first
    request hits a compiled, search-tuned plan.  ``max_batch`` and
    ``queue_limit`` shape every route's :class:`PlanService`.
    """

    def __init__(self, registry: PlanRegistry | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 warm: list[PlanKey] | None = None,
                 max_batch: int = 64, queue_limit: int = 256,
                 reuse_port: bool = False,
                 chaos=None):
        self.registry = registry or PlanRegistry()
        self.host = host
        self.port = port
        self.warm_keys = list(warm or [])
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.reuse_port = reuse_port
        self.chaos = chaos  # a repro.serve.chaos.ChaosInjector, or None
        # The route table, and the requests parked behind each cold
        # route's build: loop thread only, so no lock.
        self.routes: dict[PlanKey, PlanService] = {}
        self._parked: dict[PlanKey, list[tuple]] = {}
        self._closing = False
        self._server: asyncio.base_events.Server | None = None
        self._started_at: float | None = None
        self._connections: set[_Connection] = set()
        self._draining = False
        # Transforms accepted on live connections whose reply is not
        # written yet (drain waits for this to reach zero).
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
        for key in self.warm_keys:
            try:
                await self._build(key)
            except SplError as exc:
                raise _unplannable(key, exc) from exc
        # reuse_port is how a supervised fleet shares one address:
        # every worker binds its own SO_REUSEPORT listener on the same
        # (host, port) and the kernel load-balances connections.
        self._server = await loop.create_server(
            partial(_Connection, self), self.host, self.port,
            reuse_port=self.reuse_port or None)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._started_at = time.monotonic()
        return self.host, self.port

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
        if self._inflight:
            self._quiescent = asyncio.Event()
            try:
                await asyncio.wait_for(self._quiescent.wait(), grace)
            except asyncio.TimeoutError:
                return False
        return True

    async def close(self, grace: float = 5.0) -> None:
        """Hang up every connection once its written replies have
        reached the socket (aborting any still unsent after ``grace``
        seconds), then stop the dispatchers.  A build still running
        routes nothing once this has begun."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections):
            conn.transport.close()
        if self._connections:
            await asyncio.wait([conn.closed for conn in self._connections],
                               timeout=grace)
        for conn in list(self._connections):
            conn.transport.abort()  # still unflushed: its grace is up
        loop = asyncio.get_running_loop()
        for service in list(self.routes.values()):
            # Dispatcher close joins its worker thread: keep it off
            # the loop.
            await loop.run_in_executor(None, service.dispatcher.close)

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
            "registry": self.registry.stats(),
            "plans": [service.stats() for service in self.routes.values()],
        }

    # -- requests ------------------------------------------------------------

    def _frame(self, conn: _Connection, header: dict, buffer: bytearray,
               start: int, stop: int) -> None:
        """Answer, or start answering, one complete request frame whose
        payload is ``buffer[start:stop]``."""
        op, request_id = header.get("op"), header.get("id")
        if op == "transform":
            try:
                self._transform(conn, request_id, header, buffer, start,
                                stop)
            except Exception as exc:  # noqa: BLE001 - typed for wire
                self._answer(conn, _error_header(exc, request_id))
            return
        if op == "ping":
            reply = {"status": "ok", "op": "ping", "id": request_id}
        elif op == "stats":
            reply = {"status": "ok", "op": "stats", "id": request_id,
                     "stats": self.stats()}
        else:
            reply = {"status": "error", "code": "bad_request",
                     "id": request_id, "message": f"unknown op {op!r}"}
        conn.replies.append(encode_frame(reply))

    def _transform(self, conn: _Connection, request_id, header: dict,
                   buffer: bytearray, start: int, stop: int) -> None:
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
        x = bytes_to_vector(buffer, key.n, resolve_dtype(key.dtype),
                            start, stop)
        request = (conn, request_id, x, arrival, deadline)
        service = self.routes.get(key)
        if service is not None:
            self._submit(service, request)
            return
        # A cold route: park behind its one build, counted in flight.
        if key not in self._parked:
            self._build(key)
        self._parked[key].append(request)
        self._owe(conn, 1)

    def _build(self, key: PlanKey) -> asyncio.Future:
        """Start the one off-loop build of cold route ``key``."""
        self._parked[key] = []
        build = self._loop.run_in_executor(None, self.registry.get, key)
        build.add_done_callback(partial(self._built, key))
        return build

    def _built(self, key: PlanKey, build: asyncio.Future) -> None:
        """``key``'s build finished: route it and submit every request
        parked behind it, or answer each with the build's error."""
        parked = self._parked.pop(key)
        error = build.exception()
        if isinstance(error, SplError):
            error = _unplannable(key, error)
        elif error is None and self._closing:
            error = Unavailable("server is shut down")
        elif error is None:
            service = self.routes[key] = PlanService(
                build.result(), max_batch=self.max_batch,
                queue_limit=self.queue_limit)
        for request in parked:
            conn, request_id = request[:2]
            if conn.transport.is_closing():
                continue  # its count left with the connection
            if error is not None:
                self._answer(conn, _error_header(error, request_id))
            else:
                try:
                    self._submit(service, request)
                except Exception as exc:  # noqa: BLE001 - typed for wire
                    self._answer(conn, _error_header(exc, request_id))
            self._owe(conn, -1)
        for conn in {request[0] for request in parked}:
            if not conn.transport.is_closing():
                conn.flush()

    def _submit(self, service: PlanService, request: tuple) -> None:
        """Admit and enqueue ``(conn, id, x, arrival, deadline)``."""
        conn, request_id, x, arrival, deadline = request
        chaos = self.chaos
        if chaos is not None and chaos.take_trip():
            # Chaos: force the plan's circuit breaker to walk one tier
            # down, mid-load.  The request itself still executes (on
            # the degraded backend) and must stay bit-correct.
            chaos.force_trip(service.plan.executable)
        service.admission.try_admit(time.monotonic(), deadline)
        # From here the admission slot belongs to the dispatcher's
        # request, not to the connection: it is released when the
        # request resolves (in _drain_resolved), so a client that
        # vanishes mid-flight cannot leak it, and its queued work keeps
        # counting against queue_limit until it has actually run.
        try:
            service.dispatcher.submit(x, partial(
                self._hand_off, service.admission, arrival, conn,
                request_id))
        except (DispatcherClosed, ValueError) as exc:
            service.admission.complete(arrival, time.monotonic(),
                                       ok=False)
            if isinstance(exc, ValueError):
                raise BadRequest(str(exc)) from exc
            raise
        self._owe(conn, 1)

    def _owe(self, conn: _Connection, count: int) -> None:
        """``conn`` is owed ``count`` more (or fewer) replies; a drain
        waits for the server-wide total to reach zero."""
        conn.pending += count
        self._inflight += count
        if self._inflight == 0 and self._quiescent is not None:
            self._quiescent.set()

    # -- replies -------------------------------------------------------------

    def _answer(self, conn: _Connection, header: dict,
                payload=b"") -> None:
        """Queue one transform reply owed to ``conn`` for its next
        flush.  An ``id`` too large to echo within the header cap gets
        a ``bad_request`` that carries none."""
        try:
            head = frame_head(header)
        except BadRequest as exc:
            head, payload = frame_head(_error_header(exc, None)), b""
        chaos = self.chaos
        if chaos is not None:
            stall, truncate = chaos.take_stall(), chaos.take_truncate()
            if stall or truncate:
                # Chaos: hold the reply for stall_s (the client's
                # per-request timeout must fire), and/or write half of
                # it and hang up (a connection lost mid-frame).
                frame = b"".join((head, payload))
                if truncate:
                    frame = frame[:max(PREFIX_BYTES, len(frame) // 2)]
                self._owe(conn, 1)
                self._loop.call_later(chaos.stall_s if stall else 0.0,
                                      self._late, conn, frame, truncate)
                return
        conn.replies += (head, payload)

    def _late(self, conn: _Connection, frame: bytes,
              hangup: bool) -> None:
        if not conn.transport.is_closing():
            self._owe(conn, -1)
            conn.replies.append(frame)
            conn.flush()
            if hangup:
                conn.transport.close()

    # -- the reply hand-off --------------------------------------------------

    def _hand_off(self, admission: AdmissionController, arrival: float,
                  conn: _Connection, request_id, request) -> None:
        """Dispatcher-worker side: queue one resolved request for the
        loop, waking it only if no drain is already on its way."""
        self._resolved.append((admission, arrival, conn, request_id,
                               request))
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
        """Loop side: release every slot, queue every reply, then write
        each connection's replies at once.  The flag drops *before* the
        first pop, so a request appended after the last pop always
        schedules its own drain."""
        with self._handoff_lock:
            self._drain_scheduled = False
        resolved = self._resolved
        now = time.monotonic()
        answered: dict[_Connection, int] = {}
        while resolved:
            admission, arrival, conn, request_id, request = \
                resolved.popleft()
            # A closed connection's requests are settled when it
            # drops.  The work ran, the slot is freed, but a reply
            # nobody waits for is no service-time sample.
            live = not conn.transport.is_closing()
            error = request.error
            admission.complete(arrival, now, ok=live and error is None)
            if not live:
                continue
            answered[conn] = answered.get(conn, 0) + 1
            if error is not None:
                self._answer(conn, _error_header(error, request_id))
                continue
            result = request.result
            self._answer(conn, {
                "status": "ok",
                "n": result.shape[0],
                "dtype": dtype_name(result.dtype),
                "server_ms": (now - arrival) * 1e3,
                "id": request_id,
                "payload_bytes": result.nbytes,
            }, result.data.cast("B"))
        for conn, count in answered.items():
            self._owe(conn, -count)
            conn.flush()


def _unplannable(key: PlanKey, exc: SplError) -> BadRequest:
    return BadRequest(f"unplannable route {key.describe()}: {exc}")


def _error_header(exc: Exception, request_id) -> dict:
    """The typed error reply header for ``exc``: ``unavailable`` for a
    closed dispatcher, ``internal`` for anything else that is not a
    :class:`ServeError` (for a failed transform, the breakers already
    degraded through every tier — the chain-exhausted or
    poisoned-request case)."""
    if isinstance(exc, DispatcherClosed):
        exc = Unavailable(str(exc))
    elif not isinstance(exc, ServeError):
        exc = ServeError(f"{type(exc).__name__}: {exc}")
    return dict(exc.to_header(), id=request_id, payload_bytes=0)


class _Connection(asyncio.Protocol):
    """One client connection: frames parsed as their bytes arrive,
    replies queued and written with one ``writelines`` per flush."""

    def __init__(self, server: SplServer):
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.replies: list = []  # frame heads and payloads to write
        self.pending = 0  # replies owed (transforms accepted)
        self.closed = server._loop.create_future()  # done once lost

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server._connections.add(self)
        self.server.connections_accepted += 1

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed.set_result(None)
        self.server._connections.discard(self)
        # Its requests still run and release their admission slots;
        # the server just stops waiting to answer them.
        self.server._owe(self, -self.pending)

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        buffer += data
        end = len(buffer)
        pos = 0
        try:
            while end - pos >= PREFIX_BYTES:
                start = pos + PREFIX_BYTES + header_length(buffer, pos)
                if start > end:
                    break
                header = decode_header(buffer[pos + PREFIX_BYTES:start])
                stop = start + payload_length(header)
                if stop > end:
                    break
                self.server._frame(self, header, buffer, start, stop)
                pos = stop
        except BadRequest as exc:
            # Framing is broken: report once, then hang up — there is
            # no way to resynchronize the stream.
            self.replies.append(encode_frame(exc.to_header()))
            self.flush()
            self.transport.close()
            return
        del buffer[:pos]
        self.flush()

    def flush(self) -> None:
        """Write every queued reply in one call.  Callers never flush a
        closing transport: a truncated frame or a framing error was its
        last word."""
        if self.replies:
            self.transport.writelines(self.replies)
            self.replies.clear()

    def pause_writing(self) -> None:
        # The peer is not reading its replies: stop reading its
        # requests until it does.
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()
