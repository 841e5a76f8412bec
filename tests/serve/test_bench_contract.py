"""What ``bench/`` uses of the program, held as a tier-1 test.

The benchmark (``BENCHMARK.json``, ``bench/serving.py``) is frozen
between ``[benchmark]`` PRs and is not part of tier 1, so a PR that
renames a constructor argument, a CLI flag or a ``stats`` key it reads
passes every test and then dies in the driver as ``run_failed``.  This
file imports nothing from ``bench/``; it repeats, call for call, what
the serving workloads do to the program: the replay's dispatcher and
admission calls, the exact server command line, the counters read from
the ``stats`` verb, ``server_ms``, the protocol names and the async
client's ``submit``.  Change a name here only in the PR that changes
``bench/`` with it.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time

import numpy as np

from repro.runtime.dispatcher import BatchDispatcher
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.client import AsyncSplClient, SplClient
from repro.serve.plans import PlanKey, PlanRegistry

from tests.serve.fleet import FleetProcess
from tests.serve.test_server import _complex_vec as _vec


class TestReplayCalls:
    """``bench/serving.py::replay``: the library calls, in process."""

    def test_dispatcher_as_the_replay_constructs_it(self):
        executable = PlanRegistry(prefer="numpy").get(
            PlanKey("fft", 16, "complex128")).executable
        xs = [_vec(16, seed) for seed in range(8)]
        seen, done = [], threading.Event()

        def on_done(request) -> None:
            seen.append(request)
            if len(seen) == len(xs):
                done.set()

        with BatchDispatcher(executable, max_batch=64,
                             max_delay=0.002) as dispatcher:
            y = dispatcher.apply(xs[0])
            np.testing.assert_allclose(y, np.fft.fft(xs[0]), atol=1e-9)
            requests = [dispatcher.submit(x, on_done) for x in xs]
            assert done.wait(30.0)
        # Once per request, with the request itself.
        assert sorted(map(id, seen)) == sorted(map(id, requests))
        for x, request in zip(xs, requests):
            np.testing.assert_allclose(request.result, np.fft.fft(x),
                                       atol=1e-9)

    def test_a_built_key_is_one_cached_plan(self):
        # The replay times registry.get on a built key per request: it
        # must stay a cache hit.
        registry = PlanRegistry(prefer="numpy")
        header = {"transform": "fft", "n": 16, "dtype": "complex128"}
        plan = registry.get(PlanKey.from_header(header))
        assert registry.get(PlanKey.from_header(header)) is plan

    def test_admission_as_the_replay_drives_it(self):
        admission = AdmissionController(queue_limit=256, batch_hint=64)
        now = time.monotonic()
        admission.try_admit(now, None)
        admission.complete(now, time.monotonic())
        stats = admission.stats()
        assert (stats.admitted, stats.completed) == (1, 1)
        assert admission.inflight == 0

    def test_protocol_exports(self):
        for name in ("bytes_to_vector", "decode_header", "encode_frame",
                     "read_frame", "resolve_dtype", "vector_to_bytes"):
            assert callable(getattr(protocol, name)), name
        x = _vec(16, 3)
        frame = protocol.encode_frame({"op": "transform", "id": 7},
                                      protocol.vector_to_bytes(x))
        header_len = int.from_bytes(frame[:4], "big")
        header = protocol.decode_header(frame[4:4 + header_len])
        assert header["id"] == 7
        np.testing.assert_array_equal(protocol.bytes_to_vector(
            frame[4 + header_len:], 16,
            protocol.resolve_dtype("complex128")), x)


class TestServerProcess:
    """``python -m repro.serve --port 0 --port-file F --workers 1
    --prefer numpy --warm fft:16``: the command line the benchmark
    boots (its ``--prefer c`` needs gcc; the flags are the same)."""

    def test_boot_stats_server_ms_and_drain(self):
        x = _vec(16, 5)
        header = {"op": "transform", "transform": "fft", "n": 16,
                  "dtype": "complex128"}

        async def pipelined(host, port):
            client = await AsyncSplClient.connect(host, port)
            try:
                return await client.submit(header, x.tobytes())
            finally:
                await client.close()

        with FleetProcess(workers=1, prefer="numpy",
                          warm=("fft:16",)) as server:
            with SplClient(server.host, server.port) as client:
                np.testing.assert_allclose(client.transform("fft", x),
                                           np.fft.fft(x), atol=1e-9)
            reply, y = asyncio.run(pipelined(server.host, server.port))
            assert reply["status"] == "ok"
            assert isinstance(reply["server_ms"], float)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)

            with SplClient(server.host, server.port) as client:
                plan = client.stats()["plans"][0]
            for key in ("requests", "batches", "deadline_flushes"):
                assert isinstance(plan["dispatch"][key], int), key
            for key in ("rejected_overload", "peak_inflight"):
                assert isinstance(plan["admission"][key], int), key
            assert plan["dispatch"]["requests"] == 2

            # The benchmark stops its server with SIGTERM and fails
            # the run on a non-zero exit.
            server.signal(signal.SIGTERM)
            assert server.proc.wait(30.0) == 0
