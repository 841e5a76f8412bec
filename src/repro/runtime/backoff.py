"""The one exponential delay behind every retry in the program.

The fleet's worker restarts (``serve.supervisor.BackoffPolicy``), the
search's re-queued candidates (``perfeval.sandbox.SandboxPolicy``) and
the client's retries (``serve.retry.RetryPolicy``) each wait
``min(cap, base * multiplier^k)`` scaled by a jitter factor; they
differ only in the factor's range.
"""

from __future__ import annotations

import random


def backoff_delay(k: int, *, base: float, multiplier: float, cap: float,
                  lo: float = 1.0, hi: float = 1.0,
                  rng: random.Random | None = None) -> float:
    """``min(cap, base * multiplier^k)`` times a uniform draw in
    ``[lo, hi]``; nothing is drawn when ``lo == hi`` or the delay is 0."""
    delay = min(cap, base * multiplier ** k)
    if lo == hi or delay <= 0:
        return delay * lo
    return delay * (rng or random).uniform(lo, hi)
