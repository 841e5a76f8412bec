"""Arithmetic shared by the workloads, ``compare.py`` and the tests.

Everything here is a pure function of its arguments, so the tests can
check it on synthetic samples and spans.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def second_best(values: Sequence[float]) -> float:
    """The second lowest value; the only one of a single value."""
    if len(values) == 0:
        raise ValueError("second_best of an empty sample")
    ranked = sorted(values)
    return float(ranked[min(1, len(ranked) - 1)])


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; every value must be positive."""
    values = list(values)
    if not values:
        raise ValueError("geomean of an empty sample")
    if any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def pseudo_mflops(n: int, micros_per_vector: float) -> float:
    """The paper's Fig. 3/4 metric: 5 n log2 n / t(us)."""
    return 5.0 * n * math.log2(n) / micros_per_vector


def self_times(spans: Sequence[dict]) -> dict[int, int]:
    """Self time per span id: its duration minus the part of that
    interval its direct children cover (overlapping children are
    merged, so concurrent children are not subtracted twice).

    A span is a dict with ``id``, ``parent`` (an id or None), ``start``
    and ``end`` in one clock's units.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    result: dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start = max(start, cursor)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = span["end"] - span["start"] - covered
    return result
