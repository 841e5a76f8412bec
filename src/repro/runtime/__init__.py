"""Dynamic request batching for the serving runtime.

Beyond the paper (whose compiler targets a single core),
:mod:`repro.runtime.dispatcher` holds :class:`Batcher`, an
inference-server-style dynamic batcher that runs pending single-vector
requests as ``apply_many`` batches on its caller's thread (the event
loop, in ``spl serve``), and :class:`BatchDispatcher`, the same batcher
with a worker thread of its own for threaded callers.  More than one
core is the fleet's business (``spl serve --workers N``).
:mod:`repro.runtime.backoff` holds the one exponential delay that the
fleet's restarts, the search's retries and the client's retries wait;
:mod:`repro.runtime.workers` the one fork, under the fleet and the
search's workers alike (imported where it is used, so single-process
``spl serve`` never loads it).
"""

from repro.runtime.dispatcher import (
    Batcher,
    BatchDispatcher,
    DispatcherClosed,
    DispatchStats,
)

__all__ = [
    "Batcher",
    "BatchDispatcher",
    "DispatcherClosed",
    "DispatchStats",
]
