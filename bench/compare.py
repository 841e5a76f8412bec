"""Compare result files of two sides under the bounds of BENCHMARK.json.

    python3 bench/compare.py A.json B.json [A2.json B2.json ...]

Files alternate: every ``A`` is a run of the base, every ``B`` a run of
the change.  For each workload and end-to-end metric it prints both
medians, their ratio with its base, and one verdict:

* ``worse``  - the change's median is worse than the base's by more
  than the metric's bound;
* ``better`` - it is better by more than the bound;
* ``same``   - neither;
* ``unresolved`` - runs of one side differ among themselves by more
  than the bound, so the medians decide nothing (unless every run of
  one side beats every run of the other).

``error_rate`` has an absolute bound: it may rise by one operation in
a thousand.

The exit status is 1 on any ``worse`` or a rise in ``error_rate`` beyond
its bound, 2 on files that cannot be compared (smoke runs, missing
workloads).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from bench.stats import median  # noqa: E402

ERROR_RATE_BOUND = 0.001  # absolute


def side_spread(values: list[float]) -> float:
    """(max - min) / median of one side's runs; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    middle = median(values)
    return (max(values) - min(values)) / abs(middle) if middle else 0.0


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, share by which the change's median is worse)."""
    lower = better == "lower"

    def beats(x: float, y: float) -> bool:
        return x < y if lower else x > y

    base_median, change_median = median(base), median(change)
    worse_by = (change_median - base_median) / abs(base_median)
    if not lower:
        worse_by = -worse_by
    if max(side_spread(base), side_spread(change)) > bound:
        # Too noisy for medians: only a clean separation decides.
        if worse_by > bound and all(beats(b, c)
                                    for b in base for c in change):
            return "worse", worse_by
        if all(beats(c, b) for b in base for c in change):
            return "better", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def load(path: str) -> dict:
    report = json.loads(Path(path).read_text())
    if report.get("smoke"):
        print(f"compare.py: {path} is a smoke run; smoke runs are not "
              "comparable", file=sys.stderr)
        raise SystemExit(2)
    return report


def main(argv: list[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"base": [load(p) for p in argv[0::2]],
             "change": [load(p) for p in argv[1::2]]}
    status = 0
    print(f"{'workload':<13} {'metric':<16} {'base':>12} {'change':>12} "
          f"{'change/base':>11} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        passes = {side: [r["workloads"][workload]["untraced"]
                         for r in reports
                         if "untraced" in r["workloads"].get(workload, {})]
                  for side, reports in sides.items()}
        if not passes["base"] and not passes["change"]:
            continue
        if not passes["base"] or not passes["change"]:
            print(f"compare.py: {workload} was run on one side only",
                  file=sys.stderr)
            return 2
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [p["reported"][name]["value"] for p in runs]
                      for side, runs in passes.items()}
            word, _ = verdict(values["base"], values["change"],
                              metric["better"], metric["bound"])
            base, change = median(values["base"]), median(values["change"])
            print(f"{workload:<13} {name:<16} {base:>12.6g} {change:>12.6g} "
                  f"{change / base:>10.4f}x {metric['bound']:>6.2f}  {word}"
                  f"  [{metric['unit']}, base runs "
                  f"{min(values['base']):.6g}..{max(values['base']):.6g}, "
                  f"change runs {min(values['change']):.6g}.."
                  f"{max(values['change']):.6g}]")
            if word == "worse":
                status = 1
        errors = {side: max(p["error_rate"] for p in runs)
                  for side, runs in passes.items()}
        rose = errors["change"] > errors["base"] + ERROR_RATE_BOUND
        print(f"{workload:<13} {'error_rate':<16} {errors['base']:>12.6g} "
              f"{errors['change']:>12.6g} {'':>11} {'':>6}  "
              f"{'worse' if rose else 'same'}  [highest of each side]")
        if rose:
            status = 1
        for side, runs in passes.items():
            noisy = sum(1 for p in runs if p["noisy"])
            if noisy:
                print(f"{workload:<13} note: {noisy} of {len(runs)} {side} "
                      f"runs were marked noisy by the canary")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
