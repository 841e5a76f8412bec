"""Entry point of the fresh interpreter one pass of one workload runs
in (``python -m bench.child``); the orchestrator is ``bench/run.py``."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from importlib import import_module
from pathlib import Path

from bench.context import Context

WORKLOADS = {
    "compile-cold": "bench.compile_cold",
    "kernel-sweep": "bench.kernel_sweep",
    "serve-small": "bench.serving",
    "serve-large": "bench.serving",
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  smoke=args.smoke, tmp=args.tmp, spans_path=args.spans)
    result = import_module(WORKLOADS[args.workload]).run(ctx)
    args.result.write_text(json.dumps(asdict(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
