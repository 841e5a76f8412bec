"""The length-prefixed wire protocol of the transform service.

A deliberately minimal binary framing, chosen over HTTP so the hot
path is two ``recv`` calls and zero parsing beyond one small JSON
header:

.. code-block:: text

    +------------+----------------------+--------------------------+
    | 4 bytes BE | header_len bytes     | header["payload_bytes"]  |
    | header_len | JSON header (utf-8)  | raw little-endian vector |
    +------------+----------------------+--------------------------+

Request headers (``op`` selects the action):

* ``{"op": "transform", "transform": "fft", "n": 64,
  "dtype": "complex128", "id": 7, "deadline_ms": 50,
  "payload_bytes": 1024}`` followed by the vector bytes
  (``n * itemsize``, C-order, native little-endian);
* ``{"op": "ping"}`` — liveness probe;
* ``{"op": "stats"}`` — per-plan admission/dispatch/breaker counters.

Responses echo the request ``id`` (requests on one connection may be
pipelined and are answered as they complete, not in order):

* ``{"status": "ok", "id": 7, "payload_bytes": 1024, "dtype":
  "complex128"}`` followed by the result vector;
* ``{"status": "error", "id": 7, "code": "overload", "message": ...}``
  with no payload — ``code`` is one of the typed codes in
  :mod:`repro.serve.errors`.

Frames are hard-capped (header and payload separately) so a hostile
or corrupt length prefix cannot make the server allocate gigabytes.
"""

from __future__ import annotations

import asyncio
import json
import struct

import numpy as np

from repro.serve.errors import BadRequest

#: 4-byte big-endian header length prefix.
_PREFIX = struct.Struct(">I")
PREFIX_BYTES = _PREFIX.size

MAX_HEADER_BYTES = 64 * 1024
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

#: Wire dtype names -> numpy dtypes.  Only fixed-width IO dtypes the
#: backends actually produce are routable.
DTYPES: dict[str, np.dtype] = {
    "float64": np.dtype(np.float64),
    "complex128": np.dtype(np.complex128),
}


def dtype_name(dtype: np.dtype) -> str:
    for name, candidate in DTYPES.items():
        if candidate == dtype:
            return name
    raise BadRequest(f"unsupported dtype {dtype}")


def resolve_dtype(name: str) -> np.dtype:
    try:
        return DTYPES[name]
    except KeyError:
        raise BadRequest(
            f"unsupported dtype {name!r} (expected one of "
            f"{sorted(DTYPES)})"
        ) from None


def frame_head(header: dict) -> bytes:
    """Length prefix + JSON header of a frame whose payload follows it
    (``header`` already carries ``payload_bytes``)."""
    raw = json.dumps(header, separators=(",", ":")).encode()
    if len(raw) > MAX_HEADER_BYTES:
        raise BadRequest(f"header too large ({len(raw)} bytes)")
    return _PREFIX.pack(len(raw)) + raw


def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """One wire frame: length prefix + JSON header + payload."""
    if payload:
        header = dict(header, payload_bytes=len(payload))
    else:
        header.setdefault("payload_bytes", 0)
    return frame_head(header) + payload


def decode_header(raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequest(f"malformed frame header: {exc}") from None
    if not isinstance(header, dict):
        raise BadRequest("frame header must be a JSON object")
    return header


def header_length(buffer, offset: int = 0) -> int:
    """The header length the prefix at ``buffer[offset:]`` declares."""
    (header_len,) = _PREFIX.unpack_from(buffer, offset)
    if header_len == 0 or header_len > MAX_HEADER_BYTES:
        raise BadRequest(f"bad header length {header_len}")
    return header_len


def payload_length(header: dict) -> int:
    """The payload length ``header`` declares, within the cap."""
    payload_bytes = header.get("payload_bytes", 0)
    if not isinstance(payload_bytes, int) \
            or isinstance(payload_bytes, bool) or payload_bytes < 0 \
            or payload_bytes > MAX_PAYLOAD_BYTES:
        raise BadRequest(f"bad payload_bytes {payload_bytes!r}")
    return payload_bytes


async def read_frame(reader: asyncio.StreamReader
                     ) -> tuple[dict, bytes] | None:
    """Read one frame; ``None`` on clean EOF before a frame starts."""
    try:
        prefix = await reader.readexactly(PREFIX_BYTES)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    header_len = header_length(prefix)
    try:
        header = decode_header(await reader.readexactly(header_len))
        payload = await reader.readexactly(payload_length(header))
    except asyncio.IncompleteReadError:
        return None  # peer hung up mid-frame
    return header, payload


def read_frame_sync(recv_into) -> tuple[dict, bytes] | None:
    """Blocking twin of :func:`read_frame` over a ``makefile('rb')``
    style object with a ``read(n)`` method."""
    prefix = recv_into.read(PREFIX_BYTES)
    if len(prefix) < PREFIX_BYTES:
        return None
    header_len = header_length(prefix)
    raw = recv_into.read(header_len)
    if len(raw) < header_len:
        return None
    header = decode_header(raw)
    payload_bytes = payload_length(header)
    payload = recv_into.read(payload_bytes) if payload_bytes else b""
    if len(payload) < payload_bytes:
        return None
    return header, payload


def vector_to_bytes(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def bytes_to_vector(payload, n: int, dtype: np.dtype, start: int = 0,
                    stop: int | None = None) -> np.ndarray:
    """The vector in ``payload[start:stop]``, copied out once."""
    size = (len(payload) if stop is None else stop) - start
    expected = n * dtype.itemsize
    if size != expected:
        raise BadRequest(
            f"payload is {size} bytes, expected {expected} "
            f"({n} x {dtype})"
        )
    # frombuffer is read-only and zero-copy; copy so downstream code
    # owns a writable, independent vector (and a server's receive
    # buffer is free to move on).
    return np.frombuffer(payload, dtype=dtype, count=n,
                         offset=start).copy()
