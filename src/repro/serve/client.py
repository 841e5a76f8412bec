"""Clients for the transform service.

:class:`SplClient` is the simple blocking client: one request in
flight at a time, typed errors raised from the wire ``code``.  The
chaos harness and the benchmark use :class:`AsyncSplClient`, which
pipelines — requests are tagged with a client-side ``id``, responses
are matched back to their futures as they arrive, in any order.

Both clients carry the resilience layer from :mod:`repro.serve.retry`:

* a **per-request timeout** — a stalled or wedged server raises a
  typed :class:`~repro.serve.errors.SplTimeout` instead of hanging
  the caller forever.  For the blocking client a timeout poisons the
  connection (a late response would desynchronize the stream), so the
  socket is discarded and rebuilt on next use; the pipelining client
  just abandons the tagged future — its stream stays valid.
* a **retry policy** (optional) — jittered exponential backoff on
  ``overload``, reconnect-and-retry on connection loss / timeout /
  ``unavailable``, all under a retry budget.  Safe because every
  served transform is idempotent.

:class:`ResilientAsyncClient` packages the same policy around the
pipelining client for drivers (the chaos harness) that must survive
worker kills mid-stream.
"""

from __future__ import annotations

import asyncio
import random
import socket

import numpy as np

from repro.serve.errors import ServeError, SplTimeout, Unavailable, from_code
from repro.serve.protocol import (
    bytes_to_vector,
    dtype_name,
    encode_frame,
    read_frame,
    read_frame_sync,
    resolve_dtype,
)
from repro.serve.retry import RetryPolicy, call_with_retry

_UNSET = object()


def _raise_for_status(header: dict) -> None:
    if header.get("status") == "ok":
        return
    raise from_code(header.get("code", "internal"),
                    header.get("message", "request failed"),
                    queue_depth=header.get("queue_depth"),
                    queue_limit=header.get("queue_limit"))


class _SockReader:
    """``read(n)`` adapter over a raw socket, timeout-transparent.

    ``socket.makefile`` documents undefined behavior when the socket
    has a timeout; this reads via ``recv`` directly so a timeout
    surfaces as the standard ``TimeoutError`` mid-read instead of
    corrupting a buffered file object."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def read(self, n: int) -> bytes:
        chunks = b""
        while len(chunks) < n:
            chunk = self._sock.recv(n - len(chunks))
            if not chunk:
                break
            chunks += chunk
        return chunks


class SplClient:
    """Blocking client; one outstanding request at a time.

    ``timeout`` bounds connection establishment; ``request_timeout``
    (seconds, ``None`` = wait forever) bounds every round trip and
    raises :class:`SplTimeout` when it expires — after which the
    connection is discarded (the response stream can no longer be
    trusted) and transparently rebuilt on the next call.  ``retry``
    (a :class:`~repro.serve.retry.RetryPolicy`) arms automatic
    backoff-and-retry in :meth:`transform`.
    """

    def __init__(self, host: str, port: int,
                 timeout: float | None = 30.0,
                 request_timeout: float | None = None,
                 retry: RetryPolicy | None = None,
                 rng: random.Random | None = None):
        self.host = host
        self.port = port
        self._connect_timeout = timeout
        self.request_timeout = request_timeout
        self.retry = retry
        self._rng = rng or random.Random()
        self._sock: socket.socket | None = None
        self._reader: _SockReader | None = None
        self._closed = False
        self._connect()

    # -- connection lifecycle ------------------------------------------

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self._connect_timeout)
        self._sock.settimeout(self.request_timeout)
        self._reader = _SockReader(self._sock)

    def _discard_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._reader = None

    def reconnect(self) -> None:
        """Drop the current connection and dial a fresh one."""
        self._discard_connection()
        self._connect()

    def close(self) -> None:
        self._closed = True
        self._discard_connection()

    def __enter__(self) -> "SplClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the wire ------------------------------------------------------

    def _roundtrip(self, header: dict, payload: bytes = b"",
                   timeout: float | None = _UNSET) -> tuple[dict, bytes]:
        if self._closed:
            raise ConnectionError("client is closed")
        if self._sock is None:
            self._connect()
        if timeout is not _UNSET and timeout != self.request_timeout:
            self._sock.settimeout(timeout)
        try:
            self._sock.sendall(encode_frame(header, payload))
            frame = read_frame_sync(self._reader)
        except (socket.timeout, TimeoutError) as exc:
            # The response may still arrive later; this stream can no
            # longer be matched to requests.  Poison the connection.
            self._discard_connection()
            raise SplTimeout(
                "no response within the request timeout") from exc
        except (ConnectionError, OSError):
            self._discard_connection()
            raise
        finally:
            if self._sock is not None and timeout is not _UNSET \
                    and timeout != self.request_timeout:
                self._sock.settimeout(self.request_timeout)
        if frame is None:
            self._discard_connection()
            raise ConnectionError("server closed the connection")
        response, response_payload = frame
        _raise_for_status(response)
        return response, response_payload

    def ping(self) -> None:
        self._roundtrip({"op": "ping"})

    def stats(self) -> dict:
        response, _ = self._roundtrip({"op": "stats"})
        return response["stats"]

    def transform(self, transform: str, x: np.ndarray, *,
                  deadline_ms: float | None = None,
                  timeout: float | None = _UNSET,
                  retry: RetryPolicy | None = _UNSET) -> np.ndarray:
        """One transform round trip, under the client's resilience
        policy.  ``timeout``/``retry`` override the instance defaults
        for this call (``None`` disables)."""
        x = np.ascontiguousarray(x)
        header = {
            "op": "transform",
            "transform": transform,
            "n": int(x.shape[0]),
            "dtype": dtype_name(x.dtype),
        }
        if deadline_ms is not None:
            header["deadline_ms"] = deadline_ms
        payload = x.tobytes()
        policy = self.retry if retry is _UNSET else retry

        def attempt() -> np.ndarray:
            response, result = self._roundtrip(header, payload,
                                               timeout=timeout)
            return bytes_to_vector(result, response["n"],
                                   resolve_dtype(response["dtype"]))

        if policy is None:
            return attempt()

        def on_retry(exc: BaseException, retry_index: int) -> None:
            # Connection-level failures (and Unavailable: the worker
            # is draining) dial fresh — under SO_REUSEPORT the kernel
            # may well land the new connection on a healthy worker.
            # _roundtrip already discarded poisoned sockets; the next
            # attempt reconnects lazily, so connect refusals during a
            # restart gap are themselves retried with backoff.
            if isinstance(exc, (ConnectionError, OSError, SplTimeout,
                                Unavailable)):
                self._discard_connection()

        return call_with_retry(attempt, policy, rng=self._rng,
                               on_retry=on_retry)


class AsyncSplClient:
    """Pipelining asyncio client.

    ``submit`` returns immediately with a future; a background reader
    task resolves futures as tagged responses arrive.  Used by
    open-loop drivers, where issuing must never wait on
    completion.  ``submit(..., timeout=...)`` arms a per-request timer
    that fails the future with :class:`SplTimeout` — the connection
    stays usable (responses are tagged, so a late answer is simply
    dropped)."""

    def __init__(self) -> None:
        self.host = ""
        self.port = 0
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._reader_task: asyncio.Task | None = None
        self._closed = False

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncSplClient":
        client = cls()
        client.host, client.port = host, port
        client._reader, client._writer = await asyncio.open_connection(
            host, port)
        client._reader_task = asyncio.ensure_future(client._read_loop())
        return client

    @property
    def connected(self) -> bool:
        """Liveness: the reader loop still runs and close() was not
        called.  A dead connection fails new submits immediately."""
        return (not self._closed and self._reader_task is not None
                and not self._reader_task.done())

    async def close(self) -> None:
        self._closed = True
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._fail_pending(ConnectionError("client closed"))

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                header, payload = frame
                future = self._pending.pop(header.get("id"), None)
                if future is None or future.done():
                    continue
                try:
                    _raise_for_status(header)
                except ServeError as exc:
                    future.set_exception(exc)
                    continue
                if payload:
                    result = bytes_to_vector(
                        payload, header["n"],
                        resolve_dtype(header["dtype"]))
                    future.set_result((header, result))
                else:
                    future.set_result((header, None))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - fail all waiters
            self._fail_pending(exc)
            return
        if not self._closed:
            self._fail_pending(
                ConnectionError("server closed the connection"))

    def submit(self, header: dict, payload: bytes = b"",
               timeout: float | None = None) -> asyncio.Future:
        """Send one frame; the returned future resolves to
        ``(response_header, vector_or_None)`` or a typed error.

        Submitting on a dead connection raises ``ConnectionError``
        immediately (a future parked behind a finished reader loop
        would never resolve).  ``timeout`` arms a timer that fails
        the future with :class:`SplTimeout`.
        """
        assert self._writer is not None
        if not self.connected:
            raise ConnectionError("connection is closed")
        request_id = self._next_id
        self._next_id += 1
        header = dict(header, id=request_id)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[request_id] = future
        self._writer.write(encode_frame(header, payload))
        if timeout is not None:
            handle = loop.call_later(timeout, self._expire,
                                     request_id)
            future.add_done_callback(lambda _: handle.cancel())
        return future

    def _expire(self, request_id: int) -> None:
        future = self._pending.pop(request_id, None)
        if future is not None and not future.done():
            future.set_exception(SplTimeout(
                "no response within the request timeout"))

    async def drain(self) -> None:
        assert self._writer is not None
        await self._writer.drain()

    async def transform(self, transform: str, x: np.ndarray, *,
                        deadline_ms: float | None = None,
                        timeout: float | None = None
                        ) -> np.ndarray:
        x = np.ascontiguousarray(x)
        header = {
            "op": "transform",
            "transform": transform,
            "n": int(x.shape[0]),
            "dtype": dtype_name(x.dtype),
        }
        if deadline_ms is not None:
            header["deadline_ms"] = deadline_ms
        future = self.submit(header, x.tobytes(), timeout=timeout)
        await self.drain()
        _, result = await future
        return result

    async def ping(self) -> None:
        future = self.submit({"op": "ping"})
        await self.drain()
        await future

    async def stats(self) -> dict:
        future = self.submit({"op": "stats"})
        await self.drain()
        header, _ = await future
        return header["stats"]


class ResilientAsyncClient:
    """A reconnecting, retrying wrapper around the pipelining client.

    One logical connection that survives worker death: a transform
    whose attempt fails on a retryable cause (connection loss,
    timeout, ``overload``, ``unavailable``) backs off with jitter,
    re-dials if the underlying connection died, and tries again under
    the policy's attempt and budget bounds.  Reconnection is lazy and
    per-attempt, so a restart gap (connection refused while the
    supervisor restarts a worker) is retried like any other failure.
    """

    def __init__(self, host: str, port: int, *,
                 policy: RetryPolicy | None = None,
                 request_timeout: float | None = None,
                 rng: random.Random | None = None):
        self.host = host
        self.port = port
        self.policy = policy or RetryPolicy()
        self.request_timeout = request_timeout
        self._rng = rng or random.Random()
        self._client: AsyncSplClient | None = None
        self._dial_lock = asyncio.Lock()
        self._closed = False
        self.reconnects = 0

    async def _ensure(self) -> AsyncSplClient:
        if self._closed:
            raise ConnectionError("client is closed")
        # Serialized: concurrent in-flight requests that all lose the
        # connection must share one re-dial, not each open (and leak)
        # their own.
        async with self._dial_lock:
            client = self._client
            if client is not None and not client.connected:
                await client.close()
                self._client = client = None
            if client is None:
                self._client = client = await AsyncSplClient.connect(
                    self.host, self.port)
                self.reconnects += 1
            return client

    async def close(self) -> None:
        self._closed = True
        if self._client is not None:
            await self._client.close()
            self._client = None

    async def transform(self, transform: str, x: np.ndarray, *,
                        deadline_ms: float | None = None
                        ) -> np.ndarray:
        policy = self.policy
        if policy.budget is not None:
            policy.budget.record_attempt()
        for retry_index in range(policy.attempts):
            try:
                client = await self._ensure()
                return await client.transform(
                    transform, x, deadline_ms=deadline_ms,
                    timeout=self.request_timeout)
            except BaseException as exc:  # noqa: BLE001 - classified
                delay = None if self._closed else policy.next_delay(
                    exc, retry_index, self._rng)
                if delay is None:
                    raise
                if delay > 0:
                    await asyncio.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    async def ping(self) -> None:
        client = await self._ensure()
        await client.ping()

    async def stats(self) -> dict:
        client = await self._ensure()
        return await client.stats()
