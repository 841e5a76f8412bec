"""Admission control: bounded queues and deadline-aware shedding.

Every plan route has its own :class:`AdmissionController`.  The policy
is the standard serving ladder, applied *before* a request touches the
batcher:

1. **Expired deadline** — a request whose deadline has already passed
   is shed with a ``deadline`` rejection: executing it would burn
   backend time on an answer nobody is waiting for.
2. **Predicted miss** — with an observed service-time EWMA, a request
   whose remaining budget is smaller than the predicted wait
   (``ewma x (1 + inflight / batch_hint)`` — every ``batch_hint``
   queued requests add roughly one more batch in front of it) is shed
   the same way.  Prediction only ever *sheds*; it never admits a
   request the queue bound would reject.
3. **Bounded queue** — at most ``queue_limit`` requests may be
   in flight (admitted and unresolved) per plan; the next one is
   rejected with a typed ``overload`` error carrying the depth.  This
   is the 429 analog that keeps latency bounded under overload
   instead of letting the queue (and every caller's wait) grow
   without limit.

Everything is O(1) per request.  The controller has no lock: only its
route's event loop calls it.  Counters are exposed for the ``stats`` op
and the serving benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.serve.errors import DeadlineExceeded, Overloaded


@dataclass
class AdmissionStats:
    """Counters for one plan's admission controller."""

    admitted: int = 0
    completed: int = 0
    failed: int = 0  # admitted but resolved with an error
    rejected_overload: int = 0  # bounded-queue rejections
    shed_deadline: int = 0  # expired or predicted-miss sheds
    peak_inflight: int = 0
    ewma_service_s: float = 0.0  # smoothed per-request service time


class AdmissionController:
    """Per-plan bounded admission with deadline-aware shedding."""

    def __init__(self, *, queue_limit: int = 256,
                 batch_hint: int = 64, ewma_alpha: float = 0.1):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.queue_limit = int(queue_limit)
        self.batch_hint = max(1, int(batch_hint))
        self.ewma_alpha = float(ewma_alpha)
        self._inflight = 0
        self._ewma: float | None = None
        self._stats = AdmissionStats()

    @property
    def inflight(self) -> int:
        return self._inflight

    def try_admit(self, now: float,
                  deadline: float | None = None) -> None:
        """Admit one request or raise a typed rejection.

        ``now``/``deadline`` are ``time.monotonic()`` values.  On
        success the caller *must* later call :meth:`complete` exactly
        once, whatever the outcome.
        """
        if deadline is not None:
            if now >= deadline:
                self._stats.shed_deadline += 1
                raise DeadlineExceeded(
                    "deadline expired before admission")
            if self._ewma is not None:
                predicted = self._ewma * (
                    1.0 + self._inflight / self.batch_hint
                )
                if now + predicted >= deadline:
                    self._stats.shed_deadline += 1
                    raise DeadlineExceeded(
                        f"predicted wait {predicted * 1e3:.1f}ms "
                        f"exceeds the remaining deadline budget"
                    )
        if self._inflight >= self.queue_limit:
            self._stats.rejected_overload += 1
            raise Overloaded(
                f"plan queue full ({self._inflight} in flight)",
                queue_depth=self._inflight,
                queue_limit=self.queue_limit,
            )
        self._inflight += 1
        self._stats.admitted += 1
        self._stats.peak_inflight = max(self._stats.peak_inflight,
                                        self._inflight)

    def complete(self, started: float, now: float, *,
                 ok: bool = True) -> None:
        """Release one admitted slot and fold its service time into
        the EWMA (failures release the slot but do not pollute the
        service-time estimate)."""
        self._inflight = max(0, self._inflight - 1)
        if ok:
            self._stats.completed += 1
            sample = max(0.0, now - started)
            if self._ewma is None:
                self._ewma = sample
            else:
                alpha = self.ewma_alpha
                self._ewma = alpha * sample + (1 - alpha) * self._ewma
            self._stats.ewma_service_s = self._ewma
        else:
            self._stats.failed += 1

    def stats(self) -> AdmissionStats:
        return replace(self._stats)
