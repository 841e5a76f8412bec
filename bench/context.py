"""What the orchestrator hands a workload, and what it gets back."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Context:
    workload: str
    seed: int
    seconds: float  # length of the measured part
    trace: bool  # the per-layer pass instead of the end-to-end one
    smoke: bool
    tmp: Path  # private directory; removed by the orchestrator
    spans_path: Path | None = None  # where a traced pass writes spans


@dataclass
class Result:
    """One pass of one workload."""

    attempted: int = 0
    #: Operations that did not end in a correct answer: wrong, refused,
    #: timed out or failed any other way.
    failed: int = 0
    #: Those of ``failed`` whose answer differed from its reference.
    wrong: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: Everything measured that ``BENCHMARK.json`` does not name:
    #: per-size cells, per-phase rows, counts, flags.
    details: dict = field(default_factory=dict)
