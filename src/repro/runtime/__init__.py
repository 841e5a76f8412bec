"""Dynamic request batching for the serving runtime.

Beyond the paper (whose compiler targets a single core),
:mod:`repro.runtime.dispatcher` holds :class:`BatchDispatcher`, an
inference-server-style dynamic batcher that coalesces concurrent
single-vector ``apply`` requests into one ``apply_many`` call.  More
than one core is the fleet's business (``spl serve --workers N``).
"""

from repro.runtime.dispatcher import (
    BatchDispatcher,
    DispatcherClosed,
    DispatchStats,
)

__all__ = [
    "BatchDispatcher",
    "DispatcherClosed",
    "DispatchStats",
]
