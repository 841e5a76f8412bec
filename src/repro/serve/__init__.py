"""repro.serve — the asyncio transform service.

An inference-server-style front-end over the SPL runtime: requests
arrive on a length-prefixed socket protocol, are routed by
``(transform, n, dtype)`` to per-plan batch dispatchers, admitted
through bounded queues with deadline-aware shedding, and executed on
circuit-breaker-guarded compiled backends.  ``spl serve --workers N``
runs a supervised multi-process fleet (crash recovery, graceful
drain, rolling restart); clients retry retryable failures under a
jittered-backoff policy with a retry budget.  See
``docs/serving.md``.
"""

from repro.serve.admission import AdmissionController, AdmissionStats
from repro.serve.chaos import ChaosConfig, ChaosInjector
from repro.serve.client import (
    AsyncSplClient,
    ResilientAsyncClient,
    SplClient,
)
from repro.serve.errors import (
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    ServeError,
    SplTimeout,
    Unavailable,
)
from repro.serve.plans import Plan, PlanKey, PlanRegistry
from repro.serve.retry import RetryBudget, RetryPolicy, call_with_retry
from repro.serve.server import PlanService, SplServer
from repro.serve.supervisor import (
    BackoffPolicy,
    RestartBudget,
    ServeConfig,
    Supervisor,
    fork_supported,
    run_worker,
)

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "AsyncSplClient",
    "BackoffPolicy",
    "BadRequest",
    "ChaosConfig",
    "ChaosInjector",
    "DeadlineExceeded",
    "Overloaded",
    "Plan",
    "PlanKey",
    "PlanRegistry",
    "PlanService",
    "ResilientAsyncClient",
    "RestartBudget",
    "RetryBudget",
    "RetryPolicy",
    "ServeConfig",
    "ServeError",
    "SplClient",
    "SplServer",
    "SplTimeout",
    "Supervisor",
    "Unavailable",
    "call_with_retry",
    "fork_supported",
    "run_worker",
]
