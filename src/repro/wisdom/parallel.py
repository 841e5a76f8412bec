"""In-process concurrent measurement with deterministic winner selection.

:func:`map_indexed` fans per-candidate work over a *thread* pool: the
Python backend is GIL-bound, so threads are the only portable choice,
and the native path spends its time in the host-compiler subprocess
and inside ctypes calls, both of which release the GIL.  It serves the
FFTW-style planner and the search's in-process path; isolated
measurement (worker processes) is :mod:`repro.search.queue`'s job.

Whatever the execution order, results are returned in *candidate
order* and :func:`pick_winner` breaks ties on the lowest candidate
index, so parallel and serial searches select the same winner given
the same timings.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: int | None) -> int:
    """``None``/``0`` means one worker per CPU; negatives mean serial."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


def map_indexed(items: Sequence[T], fn: Callable[[int, T], R], *,
                jobs: int = 1) -> list[R]:
    """Apply ``fn(index, item)`` to every item, results in item order.

    ``jobs > 1`` runs through a thread pool; the returned list is
    always ordered by item index regardless of completion order, which
    is what makes downstream winner selection deterministic.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [fn(index, item) for index, item in enumerate(items)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        futures = [
            pool.submit(fn, index, item)
            for index, item in enumerate(items)
        ]
        return [future.result() for future in futures]


def pick_winner(results: Sequence[R],
                key: Callable[[R], float]) -> tuple[int, R]:
    """The minimal result, ties broken by the lowest index.

    A strict ``<`` scan in index order: the first result achieving the
    minimum wins, so the choice is independent of measurement order
    (and therefore of the degree of parallelism).
    """
    if not results:
        raise ValueError("pick_winner needs at least one result")
    best_index = 0
    best_key = key(results[0])
    for index in range(1, len(results)):
        candidate_key = key(results[index])
        if candidate_key < best_key:
            best_index = index
            best_key = candidate_key
    return best_index, results[best_index]
