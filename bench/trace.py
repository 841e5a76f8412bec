"""Spans recorded from outside the program, around calls into a layer.

A span is (name, start, end, parent, request id) on
``time.perf_counter_ns``.  Spans stay in memory until ``write_jsonl``;
nothing is written while a measurement runs.  ``NullTracer`` has the
same ``call`` and records nothing: replaying with it gives the untraced
time that ``trace.overhead_share`` is measured against.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, request: int | None = None):
        """Run ``fn()`` inside a span; spans opened by ``fn`` through
        this tracer become its children."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": request,
            "start": 0,
            "end": 0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter_ns()
        try:
            return fn()
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()

    def durations_us(self, name: str) -> list[float]:
        return [(s["end"] - s["start"]) / 1e3
                for s in self.spans if s["name"] == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


class NullTracer:
    def call(self, name: str, fn, request: int | None = None):
        return fn()
