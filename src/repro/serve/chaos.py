"""Chaos fault injection for the serving fleet.

Resilience claims that are never exercised are fiction, so this
module makes the failure modes a server can produce injectable:

* **stalled responses** — a worker holds a finished response for
  ``stall_s`` seconds; the client per-request timeout must fire
  instead of hanging the caller;
* **truncated frames** — a worker writes half a response frame and
  hangs up; the client must classify it as a connection loss and
  retry elsewhere;
* **forced breaker trips** — a plan's circuit breaker is tripped
  mid-load, degrading the backend a tier; answers must stay correct.

Server-side injection is armed by the ``SPL_CHAOS`` environment
variable (so it crosses the fork into supervised workers), e.g.::

    SPL_CHAOS="stall=0.01:2.0,truncate=0.005,trip=0.002,seed=7"

``rate`` values are per-response probabilities.  Everything is off by
default: an unset/empty ``SPL_CHAOS`` means zero injection and zero
overhead.

Only what runs *inside* a server lives here.  The fourth failure
mode — a worker SIGKILLed under open-loop load, the supervisor
restarting it, retrying clients masking the gap, every answer checked —
needs a real fleet and is a test helper (``tests/serve/fleet.py``,
asserted by ``tests/serve/test_chaos.py``).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from repro.search.queue import parse_spec, spec_rate

#: Environment variable carrying the server-side injection spec.
CHAOS_ENV = "SPL_CHAOS"


@dataclass(frozen=True)
class ChaosConfig:
    """Parsed server-side injection rates (all off by default)."""

    stall_rate: float = 0.0
    stall_s: float = 1.0
    truncate_rate: float = 0.0
    trip_rate: float = 0.0
    seed: int | None = None  # None: unseeded (OS entropy); 0 is a seed

    @property
    def enabled(self) -> bool:
        return (self.stall_rate > 0 or self.truncate_rate > 0
                or self.trip_rate > 0)

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosConfig":
        """Parse ``stall=RATE[:SECONDS],truncate=RATE,trip=RATE``.

        Unknown keys raise (see :func:`parse_spec`); a spec without
        ``seed=`` draws from OS entropy, ``seed=0`` is a seed like any
        other.
        """
        def stall(value: str) -> tuple[float, float]:
            rate, _, hold = value.partition(":")
            return spec_rate(rate), float(hold) if hold else 1.0

        values = parse_spec(spec, {"stall": stall, "truncate": spec_rate,
                                   "trip": spec_rate, "seed": int})
        stall_rate, stall_s = values.get("stall", (0.0, 1.0))
        return cls(stall_rate=stall_rate, stall_s=stall_s,
                   truncate_rate=values.get("truncate", 0.0),
                   trip_rate=values.get("trip", 0.0),
                   seed=values.get("seed"))

    @classmethod
    def from_env(cls, environ=os.environ) -> "ChaosConfig | None":
        spec = environ.get(CHAOS_ENV, "").strip()
        if not spec:
            return None
        return cls.from_spec(spec)

    def to_spec(self) -> str:
        """The inverse of :meth:`from_spec` (for subprocess env)."""
        parts = []
        if self.stall_rate:
            parts.append(f"stall={self.stall_rate}:{self.stall_s}")
        if self.truncate_rate:
            parts.append(f"truncate={self.truncate_rate}")
        if self.trip_rate:
            parts.append(f"trip={self.trip_rate}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return ",".join(parts)


class ChaosInjector:
    """Draws faults at the configured rates; counts what it injected.

    Lives on the server's event loop thread, so plain counters are
    race-free.  ``force_trip`` walks a plan's circuit breaker one tier
    down exactly the way a real backend fault would.
    """

    def __init__(self, config: ChaosConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        self.stalls = 0
        self.truncations = 0
        self.trips = 0

    @property
    def stall_s(self) -> float:
        return self.config.stall_s

    def _draw(self, rate: float) -> bool:
        return rate > 0 and self._rng.random() < rate

    def take_stall(self) -> bool:
        if self._draw(self.config.stall_rate):
            self.stalls += 1
            return True
        return False

    def take_truncate(self) -> bool:
        if self._draw(self.config.truncate_rate):
            self.truncations += 1
            return True
        return False

    def take_trip(self) -> bool:
        if self._draw(self.config.trip_rate):
            self.trips += 1
            return True
        return False

    def force_trip(self, executable) -> None:
        """Trip ``executable``'s breaker as if its backend faulted."""
        executable.trip(RuntimeError("chaos: forced breaker trip"))


def injector_from_env(environ=os.environ) -> ChaosInjector | None:
    config = ChaosConfig.from_env(environ)
    if config is None or not config.enabled:
        return None
    return ChaosInjector(config)
