"""Client-side resilience policy: retries, backoff, and budgets.

The server's typed rejections (:mod:`repro.serve.errors`) tell a
client *what happened*; this module decides *what to do about it*.
The policy is the standard resilient-client ladder:

* ``overload`` — the bounded queue pushed back.  Retry after a
  **jittered exponential backoff** (full jitter: a uniform draw from
  ``[0, base * multiplier^attempt]``, capped) so a thundering herd of
  rejected clients does not re-arrive in lockstep and re-trip the
  queue it just drained.
* connection loss / ``unavailable`` / client-side ``timeout`` — the
  worker died, is draining, or wedged.  Reconnect and retry, which is
  safe *only because* every served transform is idempotent and
  read-only: replaying a request that may have executed cannot
  corrupt anything, it just recomputes.
* ``bad_request`` / ``deadline`` / ``internal`` — retrying identical
  bytes cannot help (or the budget the caller set is already blown);
  these always surface immediately.

On top of per-request attempts sits a **retry budget**
(:class:`RetryBudget`): a token bucket where every first attempt
deposits a fraction of a token and every retry withdraws one.  Under
a genuine brownout (every request failing), retries self-limit to
``ratio`` of offered load instead of multiplying it by the attempt
count — the client-side half of the admission controller's contract.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.runtime.backoff import backoff_delay
from repro.serve.errors import (
    Overloaded,
    ServeError,
    SplTimeout,
    Unavailable,
)


class RetryBudget:
    """A token bucket bounding retries to a fraction of offered load.

    Every *first* attempt deposits ``ratio`` tokens (capped at
    ``max_tokens``); every retry withdraws one.  :meth:`allow_retry`
    answers whether a retry may spend a token *and* spends it — the
    check and the spend are one atomic step, so concurrent callers
    sharing a budget cannot double-spend.  ``min_reserve`` seeds the
    bucket so the first few requests of a cold client can still retry.
    """

    def __init__(self, *, ratio: float = 0.2, max_tokens: float = 16.0,
                 min_reserve: float = 2.0):
        if ratio < 0:
            raise ValueError(f"ratio must be >= 0, got {ratio}")
        self.ratio = float(ratio)
        self.max_tokens = float(max_tokens)
        self._tokens = min(float(min_reserve), self.max_tokens)
        self._lock = threading.Lock()
        self.spent = 0  # retries granted
        self.denied = 0  # retries refused (budget empty)

    def record_attempt(self) -> None:
        """Deposit for one first attempt (call once per request)."""
        with self._lock:
            self._tokens = min(self.max_tokens,
                               self._tokens + self.ratio)

    def allow_retry(self) -> bool:
        """Spend one token if available; False means do not retry."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.spent += 1
                return True
            self.denied += 1
            return False

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens


@dataclass(frozen=True)
class RetryPolicy:
    """What to retry, how many times, and how long to wait between.

    ``attempts`` counts *total* tries including the first; backoff
    before try ``k`` (k >= 1, zero-based retry index) is a full-jitter
    draw ``uniform(0, min(max_backoff, base * multiplier^k))``.
    Connection-level failures (``ConnectionError``, ``OSError``,
    :class:`SplTimeout`, :class:`Unavailable`) are retryable only when
    ``retry_connection`` is set — the outcome of the in-flight request
    is unknown, so this must stay False for non-idempotent callers
    (the bundled transforms are all idempotent).
    """

    attempts: int = 4
    base_backoff_s: float = 0.01
    multiplier: float = 2.0
    max_backoff_s: float = 0.5
    retry_overload: bool = True
    retry_connection: bool = True
    budget: RetryBudget | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(
                f"attempts must be >= 1, got {self.attempts}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff bounds must be >= 0")

    def retryable(self, exc: BaseException) -> bool:
        """Is this failure worth another attempt at all?"""
        if isinstance(exc, Overloaded):
            return self.retry_overload
        if isinstance(exc, (SplTimeout, Unavailable)):
            return self.retry_connection
        if isinstance(exc, ServeError):
            return False  # bad_request / deadline / internal
        if isinstance(exc, (ConnectionError, EOFError, OSError)):
            return self.retry_connection
        return False

    def backoff_s(self, retry_index: int,
                  rng: random.Random | None = None) -> float:
        """Full-jitter backoff before retry ``retry_index`` (0-based)."""
        return backoff_delay(retry_index, base=self.base_backoff_s,
                             multiplier=self.multiplier,
                             cap=self.max_backoff_s, lo=0.0, rng=rng)

    def next_delay(self, exc: BaseException, retry_index: int,
                   rng: random.Random | None = None) -> float | None:
        """Seconds to back off before retrying after ``exc``, or None
        to give up: the last attempt is spent, the failure is not
        retryable, or the budget refuses a token (one is withdrawn when
        the answer is a delay).  The one retry decision, shared by the
        blocking and the asyncio loop."""
        if retry_index >= self.attempts - 1 or not self.retryable(exc):
            return None
        if self.budget is not None and not self.budget.allow_retry():
            return None
        return self.backoff_s(retry_index, rng)


def call_with_retry(attempt_fn, policy: RetryPolicy, *,
                    rng: random.Random | None = None,
                    on_retry=None, sleep=time.sleep):
    """Run ``attempt_fn()`` under ``policy`` (blocking flavor).

    ``attempt_fn`` is called up to ``policy.attempts`` times; a
    non-retryable failure (or an exhausted budget) re-raises
    immediately.  ``on_retry(exc, retry_index)`` is invoked before
    each backoff — the hook clients use to reconnect after a
    connection-level failure.
    """
    if policy.budget is not None:
        policy.budget.record_attempt()
    for retry_index in range(policy.attempts):
        try:
            return attempt_fn()
        except BaseException as exc:  # noqa: BLE001 - classified
            delay = policy.next_delay(exc, retry_index, rng)
            if delay is None:
                raise
            if on_retry is not None:
                on_retry(exc, retry_index)
            if delay > 0:
                sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
