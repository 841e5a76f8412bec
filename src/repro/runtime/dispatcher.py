"""Dynamic request batching: coalesce single-vector requests.

An inference-server-style batcher for transform execution.  Callers
submit one vector each; the batcher runs what is pending as
``apply_many`` batches of at most ``max_batch`` rows — the amortized
fast path every backend provides (one ctypes crossing, one NumPy
call).  Each caller gets back exactly the row it would have gotten
from a serial ``apply``: batch rows are computed independently with
identical per-row arithmetic, so results are bit-identical.

There is one batch rule, in :class:`Batcher`, the threadless core: it
keeps the pending list, and :meth:`Batcher.run` takes at most
``max_batch`` pending requests per ``apply_many`` call until none is
left.  Its owner decides when to call ``run``.  The asyncio server
calls it once per event-loop turn, on the loop, so whatever arrived in
that turn is one batch and a served worker is one thread.
A request resolves as a view of its batch's result row: ``apply_many``
returns fresh memory per call, so nothing is copied out.

:class:`BatchDispatcher` is that core with a worker thread of its own,
for callers on other threads (:meth:`BatchDispatcher.apply` blocks).
Its flush policy is work-conserving: an idle worker takes whatever is
pending at once, and the requests that arrive while a batch executes
queue behind it and are the next batch.  ``max_delay`` (default
``0.0``) is an optional linger: a positive value lets an idle worker
hold a not-yet-full batch until ``max_delay`` seconds after the
*oldest pending* request arrived.  ``close()`` flushes whatever is
pending (``close(drain=False)`` cancels it with
:class:`DispatcherClosed`), and however the worker exits, every
pending request is resolved.

Fault isolation: a batch whose ``apply_many`` raises is split and
retried request-by-request, so one poisoned vector fails *its own*
caller while every other request in the coalesced batch resolves
normally.  Poisoning is also prevented at the door: when the target
exposes a ``dtype``, every submitted vector is checked against it —
safe upcasts (float into a complex transform) are coerced per request,
unsafe ones (complex into a real transform, which ``np.stack`` would
otherwise silently propagate to every coalesced row) are rejected at
``submit`` with a :class:`ValueError` before they can touch a batch.

Counters (:class:`DispatchStats`) record how much coalescing actually
happened; ``stats.batches < stats.requests`` is the observable proof
that requests shared ``apply_many`` calls.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


class DispatcherClosed(RuntimeError):
    """The batcher closed (or its worker died): request not run."""


@dataclass
class DispatchStats:
    """Counters accumulated over a batcher's lifetime.

    Semantics (pinned by tests/runtime/test_dispatcher_regressions.py):

    * ``batches`` counts *flushes* — coalesced batches taken off the
      queue and attempted, whatever their outcome.  It always equals
      ``size_flushes + deadline_flushes + close_flushes``: a full
      batch is a size flush, one below ``max_batch`` a deadline flush,
      and one a closing :class:`BatchDispatcher` drains a close flush.
    * ``coalesced_requests`` counts requests actually *served* by a
      shared ``apply_many`` call of two or more — a batch that failed
      and was split request-by-request contributes nothing here.
    * ``isolation_splits`` counts failed multi-request batches that
      were split; ``retried_requests`` counts the singleton retry
      calls those splits issued, so the total number of ``apply_many``
      calls reaching the target is ``batches + retried_requests``.
    """

    requests: int = 0  # vectors submitted
    batches: int = 0  # coalesced flushes attempted (= sum of *_flushes)
    coalesced_requests: int = 0  # requests served in a shared batch >= 2
    max_batch: int = 0  # largest batch taken off the queue
    size_flushes: int = 0  # batches of max_batch rows
    deadline_flushes: int = 0  # batches taken before they were full
    close_flushes: int = 0  # batches flushed during close()
    isolation_splits: int = 0  # failed batches retried request-by-request
    retried_requests: int = 0  # singleton retries issued by those splits
    failed_requests: int = 0  # requests resolved with an error
    cancelled_requests: int = 0  # requests resolved with DispatcherClosed


class _Request:
    """One submitted vector and its (eventual) resolution.

    ``arrival`` is the ``time.monotonic()`` submission stamp that a
    :class:`BatchDispatcher` linger is computed from.  ``on_done``
    (optional) is invoked exactly once, after ``resolved`` is set, by
    whoever resolved the request, and the request lets go of it there
    (``on_done`` reads ``None`` afterwards).  Nothing here blocks: a
    caller that wants to wait passes a hook that wakes it.
    """

    __slots__ = ("x", "result", "error", "resolved", "arrival",
                 "on_done")

    def __init__(self, x: np.ndarray,
                 on_done: Callable[["_Request"], None] | None = None):
        self.x = x
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None
        self.resolved = False
        self.arrival = 0.0
        self.on_done = on_done

    def resolve(self, result: np.ndarray) -> None:
        self.result = result
        self._finish()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self._finish()

    def _finish(self) -> None:
        self.resolved = True
        # Called once, then dropped: a hook that holds the caller's
        # future (whose result is this request) would otherwise close
        # a reference cycle per request, which only the cyclic
        # collector frees — in pauses, mid-traffic.
        callback, self.on_done = self.on_done, None
        if callback is not None:
            try:
                callback(self)
            except Exception:  # noqa: BLE001 - a bad hook must not
                pass  # take the batch (or close()) down with it


class Batcher:
    """The threadless core: pending requests, run as batches on demand.

    ``target`` is anything with an ``apply_many(X)`` method over a
    ``(B, n)`` batch and an ``n`` attribute — an
    :class:`~repro.perfeval.runner.ExecutableRoutine` or an
    :class:`~repro.fftw.executor.FftwTransform`.  ``dtype`` (default:
    the target's ``dtype`` attribute, when it has one) arms
    per-request dtype validation: safe upcasts are coerced, unsafe
    ones rejected at submission so they cannot poison a coalesced
    batch.  Not thread-safe: one thread submits and runs.
    """

    def __init__(self, target, *, max_batch: int = 64,
                 dtype: np.dtype | str | None = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.target = target
        self.max_batch = int(max_batch)
        if dtype is None:
            dtype = getattr(target, "dtype", None)
        self.dtype = np.dtype(dtype) if dtype is not None else None
        self._pending: list[_Request] = []
        self._stats = DispatchStats()

    def submit(self, x: np.ndarray,
               on_done: Callable[[_Request], None] | None = None
               ) -> _Request:
        """Enqueue one vector without running it; returns its handle.

        The handle exposes ``resolved``, ``result`` and ``error``;
        exactly one of the latter two is set by the time ``resolved``
        is.  ``on_done`` is called once, after resolution, with the
        handle — it must be cheap and must not raise.

        Shape and dtype are validated *here*, before the request can
        join a batch: a wrong-shape or unsafely-typed vector raises
        :class:`ValueError` to its own caller and never poisons the
        coalesced batch it would have ridden in.
        """
        request = _Request(self._validate(x), on_done)
        self._enqueue(request)
        return request

    def _enqueue(self, request: _Request) -> None:
        self._pending.append(request)
        self._stats.requests += 1

    def _validate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        n = getattr(self.target, "n", None)
        if n is not None and x.shape != (n,):
            raise ValueError(f"expected a ({n},) vector, got shape {x.shape}")
        if self.dtype is not None and x.dtype != self.dtype:
            # np.stack would silently upcast the whole coalesced batch
            # to the widest submitted dtype (complex into a float64
            # transform corrupts *every* row via discarded imaginary
            # parts) — so coerce or reject per request, at the door.
            if not np.can_cast(x.dtype, self.dtype, casting="safe"):
                raise ValueError(
                    f"cannot safely cast a {x.dtype} vector to the "
                    f"target dtype {self.dtype}"
                )
            x = x.astype(self.dtype)
        return x

    @property
    def stats(self) -> DispatchStats:
        """A point-in-time copy of the coalescing counters."""
        return replace(self._stats)

    def run(self) -> None:
        """Run every pending request, at most ``max_batch`` rows per
        ``apply_many`` call, resolving each before returning."""
        while self._pending:
            self._execute(self._take())

    def cancel(self) -> int:
        """Resolve every pending request with :class:`DispatcherClosed`
        instead of running it; returns how many there were."""
        pending, self._pending = self._pending, []
        self._stats.cancelled_requests += len(pending)
        for request in pending:
            request.fail(DispatcherClosed("closed before this request ran"))
        return len(pending)

    def _take(self) -> list[_Request]:
        batch = self._pending[: self.max_batch]
        del self._pending[: len(batch)]
        return batch

    def _apply_one(self, request: _Request) -> None:
        """Run one request alone; resolve it with its own outcome."""
        self._stats.retried_requests += 1
        try:
            Y = self.target.apply_many(request.x[np.newaxis, :])
        except BaseException as exc:  # noqa: BLE001 - forwarded
            self._stats.failed_requests += 1
            request.fail(exc)
            return
        request.resolve(Y[0])

    def _execute(self, batch: list[_Request],
                 reason: str | None = None) -> None:
        """Run one coalesced batch, isolating per-request failures."""
        stats = self._stats
        # Flush accounting happens per *attempt* so the flush-reason
        # counters always sum to ``batches``; whether the requests
        # were actually served coalesced is recorded separately below,
        # on the success path only.
        stats.batches += 1
        stats.max_batch = max(stats.max_batch, len(batch))
        if reason is None:
            reason = "size" if len(batch) == self.max_batch else "deadline"
        field = f"{reason}_flushes"
        setattr(stats, field, getattr(stats, field) + 1)
        try:
            Y = self.target.apply_many(np.stack([r.x for r in batch]))
        except BaseException as exc:  # noqa: BLE001 - isolated below
            if len(batch) == 1:
                stats.failed_requests += 1
                batch[0].fail(exc)
            else:
                # One poisoned vector must not fail the whole batch:
                # split and retry request-by-request so only the
                # culprit's handle carries an error.
                stats.isolation_splits += 1
                for request in batch:
                    self._apply_one(request)
            return
        if len(batch) >= 2:
            stats.coalesced_requests += len(batch)
        for request, row in zip(batch, Y):
            request.resolve(row)


class BatchDispatcher(Batcher):
    """:class:`Batcher` with a worker thread, for threaded callers.

    ``apply`` blocks its caller until the worker has run its request;
    ``submit`` returns at once and calls ``on_done`` from the worker.
    Usable as a context manager; ``close()`` drains pending requests
    before the worker exits, and no request can outlive the worker
    unresolved — shutdown and worker death both resolve stragglers
    with :class:`DispatcherClosed` rather than leaving them blocked.
    Counters are written by the worker; a ``stats`` copy taken while a
    batch runs may show that batch in some of them and not yet in
    others.
    """

    def __init__(self, target, *, max_batch: int = 64,
                 max_delay: float = 0.0,
                 dtype: np.dtype | str | None = None):
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        super().__init__(target, max_batch=max_batch, dtype=dtype)
        self.max_delay = float(max_delay)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._unresolved = 0  # submitted, not yet resolved
        self._closed = False
        self._worker = threading.Thread(
            target=self._work, name="spl-dispatch", daemon=True
        )
        self._worker.start()

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Submit one vector and block until its transform is ready.

        Bit-identical to ``target.apply(x)``; raises whatever the
        underlying execution raised for *this* vector (other requests
        coalesced into the same batch are unaffected), or
        :class:`DispatcherClosed` if the dispatcher shut down before
        the request ran.
        """
        done = threading.Event()
        request = self.submit(x, lambda _request: done.set())
        done.wait()
        if request.error is not None:
            raise request.error
        return request.result

    def _enqueue(self, request: _Request) -> None:
        request.arrival = time.monotonic()
        with self._lock:
            if self._closed:
                raise DispatcherClosed("BatchDispatcher is closed")
            super()._enqueue(request)
            self._unresolved += 1
            self._wakeup.notify_all()

    @property
    def stats(self) -> DispatchStats:
        with self._lock:
            return replace(self._stats)

    @property
    def unresolved_count(self) -> int:
        """Requests submitted that have not resolved yet — queued *or*
        mid-execution.  Zero means the dispatcher is quiescent."""
        with self._lock:
            return self._unresolved

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until every submitted request has resolved (and its
        hook has run); False if ``timeout`` seconds elapsed first.
        Unlike ``close()`` this leaves the dispatcher open."""
        with self._lock:
            return self._idle.wait_for(lambda: self._unresolved <= 0,
                                       timeout)

    def _settle(self, count: int) -> None:
        """Count ``count`` requests as answered (lock held).  Always
        *after* their ``resolve`` / ``fail``: a caller woken from
        :meth:`wait_idle` must find every result published and every
        hook run."""
        self._unresolved -= count
        if self._unresolved <= 0:
            self._idle.notify_all()

    def close(self, drain: bool = True) -> None:
        """Stop the worker (idempotent); never leaves a caller hanging.

        ``drain=True`` (default) executes pending requests as final
        batches before the worker exits; ``drain=False`` cancels them
        — each blocked caller gets :class:`DispatcherClosed`
        immediately.  Either way, after ``close()`` returns every
        submitted request has been resolved.

        Safe to call from *any* thread, including the worker itself
        (e.g. a fault-handling callback inside the target's
        ``apply_many``): a re-entrant close skips the self-join —
        which would deadlock — and lets the worker loop observe
        ``_closed`` and wind itself down.
        """
        with self._lock:
            self._closed = True
            if not drain:
                self._settle(self.cancel())
            self._wakeup.notify_all()
        if threading.current_thread() is not self._worker:
            self._worker.join()

    def __enter__(self) -> "BatchDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _take_batch(self) -> tuple[list[_Request], str | None] | None:
        """Block until a batch is due; None when closed and drained.

        The worker calls this only when it is idle, so with the
        default ``max_delay == 0`` whatever is pending is due now.  A
        positive linger is per-request: the flush deadline is always
        ``oldest_pending_arrival + max_delay`` (pending is FIFO, so the
        oldest request is ``_pending[0]``), and a flush that leaves
        requests pending does *not* restart their clock.
        """
        with self._lock:
            while True:
                if self._pending:
                    if self._closed:
                        return self._take(), "close"
                    remaining = (self._pending[0].arrival + self.max_delay
                                 - time.monotonic())
                    if len(self._pending) >= self.max_batch \
                            or remaining <= 0:
                        return self._take(), None
                    self._wakeup.wait(remaining)
                elif self._closed:
                    return None
                else:
                    self._wakeup.wait()

    def _execute(self, batch: list[_Request],
                 reason: str | None = None) -> None:
        super()._execute(batch, reason)
        with self._lock:
            self._settle(len(batch))

    def _work(self) -> None:
        try:
            while (taken := self._take_batch()) is not None:
                self._execute(*taken)
        finally:
            # However this thread exits — clean shutdown or an
            # unexpected error in the loop itself — no submitted
            # request may be left unresolved, and no new request may
            # queue behind a dead worker.
            with self._lock:
                self._closed = True
                self._settle(self.cancel())
