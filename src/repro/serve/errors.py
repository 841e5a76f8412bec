"""Typed serving errors and their wire codes.

Every way a request can fail without being executed has a distinct
type and a stable wire ``code``, so clients (and the chaos harness's
outcome accounting) can react per cause instead of pattern-matching
message strings:

* ``overload`` — the plan's bounded admission queue is full; the 429
  analog.  Back off and retry.
* ``deadline`` — the request's deadline already passed, or admission
  predicted it would pass before service; the work was shed *before*
  burning backend time on an answer nobody is waiting for.
* ``bad_request`` — malformed frame, unknown transform, wrong shape
  or an unsafely-cast dtype.  Retrying identical bytes cannot help.
* ``unavailable`` — the server (or this plan's dispatcher) is
  shutting down; the request was never run.
* ``internal`` — execution failed on every backend tier (the circuit
  breakers degrade c -> numpy -> python in place first, so this is
  the chain-exhausted case, not the first fault).

One code is *client-side only*: ``timeout`` (:class:`SplTimeout`) is
raised by a client whose per-request timer expired before a response
arrived.  The server never sends it — a timed-out request may still
be executing — which is exactly why retrying it is only safe for
idempotent transforms.
"""

from __future__ import annotations


class ServeError(Exception):
    """Base class for every typed serving failure."""

    code = "internal"

    def to_header(self) -> dict:
        return {"status": "error", "code": self.code,
                "message": str(self)}


class BadRequest(ServeError):
    """The request itself is invalid; retrying it cannot succeed."""

    code = "bad_request"


class Overloaded(ServeError):
    """The plan's bounded queue is full (admission-control rejection)."""

    code = "overload"

    def __init__(self, message: str, *, queue_depth: int | None = None,
                 queue_limit: int | None = None):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.queue_limit = queue_limit

    def to_header(self) -> dict:
        header = super().to_header()
        if self.queue_depth is not None:
            header["queue_depth"] = self.queue_depth
        if self.queue_limit is not None:
            header["queue_limit"] = self.queue_limit
        return header


class DeadlineExceeded(ServeError):
    """The deadline passed (or provably would) before service."""

    code = "deadline"


class Unavailable(ServeError):
    """The server or plan is shutting down; the request never ran."""

    code = "unavailable"


class SplTimeout(ServeError):
    """No response within the client's per-request timeout.

    Client-side only: the server may still be executing the request
    (or may be wedged), so the outcome is *unknown* — safe to retry
    only because every served transform is idempotent and read-only.
    """

    code = "timeout"


#: Wire code -> exception class, for clients raising typed errors.
ERROR_TYPES: dict[str, type[ServeError]] = {
    cls.code: cls
    for cls in (BadRequest, Overloaded, DeadlineExceeded, Unavailable,
                SplTimeout, ServeError)
}


def from_code(code: str, message: str, **extras) -> ServeError:
    """Rebuild the typed error a server response encodes."""
    cls = ERROR_TYPES.get(code, ServeError)
    if cls is Overloaded:
        return Overloaded(message,
                          queue_depth=extras.get("queue_depth"),
                          queue_limit=extras.get("queue_limit"))
    return cls(message)
