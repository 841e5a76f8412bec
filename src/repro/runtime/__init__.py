"""Dynamic request batching for the serving runtime.

Beyond the paper (whose compiler targets a single core),
:mod:`repro.runtime.dispatcher` holds :class:`Batcher`, an
inference-server-style dynamic batcher that runs pending single-vector
requests as ``apply_many`` batches on its caller's thread (the event
loop, in ``spl serve``), and :class:`BatchDispatcher`, the same batcher
with a worker thread of its own for threaded callers.  More than one
core is the fleet's business (``spl serve --workers N``).
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
