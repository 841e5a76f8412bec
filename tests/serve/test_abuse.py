"""Protocol abuse under concurrent load.

The isolation contract of the server: a misbehaving connection —
disconnecting mid-request, sending truncated or oversized frames,
or plain garbage — may only hurt *itself*.  Every test here runs a
background stream of well-formed traffic on separate connections
while one connection abuses the protocol, and asserts the good
traffic keeps getting correct answers.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.serve import AsyncSplClient, SplClient
from repro.serve.protocol import MAX_HEADER_BYTES, encode_frame

from tests.serve.test_server import FFT16, ServerHarness, _complex_vec


class _GoodTraffic:
    """Continuous correct requests on their own connections, with
    every answer checked against the numpy oracle."""

    def __init__(self, host: str, port: int, connections: int = 2):
        self.host, self.port = host, port
        self.connections = connections
        self.completed = 0
        self.failures: list[BaseException] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._spin, args=(seed,),
                             daemon=True)
            for seed in range(connections)
        ]

    def _spin(self, seed: int) -> None:
        x = _complex_vec(16, seed=seed)
        expected = np.fft.fft(x)
        try:
            with SplClient(self.host, self.port,
                           request_timeout=10.0) as client:
                while not self._stop.is_set():
                    y = client.transform("fft", x)
                    np.testing.assert_allclose(y, expected,
                                               atol=1e-9)
                    self.completed += 1
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            self.failures.append(exc)

    def __enter__(self) -> "_GoodTraffic":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=30)

    def assert_healthy(self, at_least: int = 1,
                       within_s: float = 20.0) -> None:
        deadline = time.monotonic() + within_s
        while (self.completed < at_least and not self.failures
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert not self.failures, self.failures
        assert self.completed >= at_least


def _raw_connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=10)
    sock.settimeout(10)
    return sock


def _recv_frame_header(sock: socket.socket) -> dict:
    import json

    def read_exactly(n: int) -> bytes:
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise ConnectionError("EOF mid-frame")
            buf += chunk
        return buf

    (header_len,) = struct.unpack(">I", read_exactly(4))
    header = json.loads(read_exactly(header_len))
    read_exactly(int(header.get("payload_bytes", 0)))
    return header


class TestAbuseIsolation:
    def _harness(self):
        return ServerHarness(warm=[FFT16])

    def test_disconnect_mid_request_leaves_others_undisturbed(self):
        with self._harness() as harness, \
                _GoodTraffic(harness.host, harness.port) as traffic:
            for attempt in range(5):
                sock = _raw_connect(harness.host, harness.port)
                frame = encode_frame(
                    {"op": "transform", "transform": "fft", "n": 16,
                     "dtype": "complex128"},
                    _complex_vec(16).tobytes())
                # Send only part of the request, then vanish.
                sock.sendall(frame[:len(frame) // 2])
                sock.close()
                time.sleep(0.05)
            time.sleep(0.2)
            traffic.assert_healthy(at_least=5)

    def test_garbage_header_errors_only_that_connection(self):
        with self._harness() as harness, \
                _GoodTraffic(harness.host, harness.port) as traffic:
            sock = _raw_connect(harness.host, harness.port)
            try:
                # Valid length prefix, invalid JSON body.
                junk = b"\x00not json at all{{{"
                sock.sendall(struct.pack(">I", len(junk)) + junk)
                header = _recv_frame_header(sock)
                assert header["status"] == "error"
                assert header["code"] == "bad_request"
                # The server hangs up on unparseable streams; the
                # abusive connection dies, nobody else does.
                assert sock.recv(4096) == b""
            finally:
                sock.close()
            traffic.assert_healthy()

    def test_oversized_header_is_rejected(self):
        with self._harness() as harness, \
                _GoodTraffic(harness.host, harness.port) as traffic:
            sock = _raw_connect(harness.host, harness.port)
            try:
                sock.sendall(struct.pack(">I", MAX_HEADER_BYTES + 1))
                header = _recv_frame_header(sock)
                assert header["status"] == "error"
                assert header["code"] == "bad_request"
            finally:
                sock.close()
            traffic.assert_healthy()

    def test_oversized_payload_declaration_is_rejected(self):
        with self._harness() as harness, \
                _GoodTraffic(harness.host, harness.port) as traffic:
            import json

            sock = _raw_connect(harness.host, harness.port)
            try:
                evil = json.dumps({
                    "op": "transform", "transform": "fft", "n": 16,
                    "dtype": "complex128",
                    "payload_bytes": 1 << 40,
                }).encode()
                sock.sendall(struct.pack(">I", len(evil)) + evil)
                header = _recv_frame_header(sock)
                assert header["status"] == "error"
                assert header["code"] == "bad_request"
            finally:
                sock.close()
            traffic.assert_healthy()

    def test_payload_shorter_than_declared_then_eof(self):
        """A frame whose payload never fully arrives must not wedge
        the server or leak the connection handler."""
        with self._harness() as harness, \
                _GoodTraffic(harness.host, harness.port) as traffic:
            sock = _raw_connect(harness.host, harness.port)
            frame = encode_frame(
                {"op": "transform", "transform": "fft", "n": 16,
                 "dtype": "complex128"},
                _complex_vec(16).tobytes())
            sock.sendall(frame[:-37])  # stop mid-payload
            sock.close()
            time.sleep(0.2)
            traffic.assert_healthy()

    def test_pipelined_garbage_after_valid_request(self):
        """One valid request followed by garbage: the valid one is
        answered before the stream is torn down."""
        with self._harness() as harness, \
                _GoodTraffic(harness.host, harness.port) as traffic:
            sock = _raw_connect(harness.host, harness.port)
            try:
                good = encode_frame(
                    {"op": "ping", "id": 1})
                sock.sendall(good + b"\xff\xff\xff\xff garbage")
                header = _recv_frame_header(sock)
                assert header["status"] == "ok"
            finally:
                sock.close()
            traffic.assert_healthy()

    def test_abuse_storm_under_concurrent_async_load(self):
        """Many abusive connections at once while pipelined async
        traffic runs: all good requests complete correctly."""

        async def scenario(host, port) -> int:
            client = await AsyncSplClient.connect(host, port)
            xs = [_complex_vec(16, seed=s) for s in range(24)]
            try:
                futures = [
                    client.submit(
                        {"op": "transform", "transform": "fft",
                         "n": 16, "dtype": "complex128"},
                        x.tobytes())
                    for x in xs
                ]
                await client.drain()

                def storm() -> None:
                    for k in range(12):
                        try:
                            sock = _raw_connect(host, port)
                            sock.sendall(
                                struct.pack(">I", 64)
                                + b"\x01" * (k % 7))
                            sock.close()
                        except OSError:
                            pass

                thread = threading.Thread(target=storm)
                thread.start()
                results = await asyncio.gather(*futures)
                thread.join(timeout=30)
                for x, (header, y) in zip(xs, results):
                    assert header["status"] == "ok"
                    np.testing.assert_allclose(y, np.fft.fft(x),
                                               atol=1e-9)
                return len(results)
            finally:
                await client.close()

        with self._harness() as harness:
            done = asyncio.run(scenario(harness.host, harness.port))
        assert done == 24
