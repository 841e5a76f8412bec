"""One command for the whole benchmark.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/run.py --seed S [--workload W] [--traced] --out FILE

Each pass of each workload runs in a fresh interpreter with a private
temporary directory (its ``SPL_BUILD_DIR``, ``TMPDIR`` and port files)
under ``bench/results/``, which is removed afterwards.  Every metric is
printed by name and unit; the last line of standard output is one JSON
object for the driver.  The exit status is non-zero when any output was
wrong, more than one operation in a hundred failed, a pass crashed or
lost its server, a process was left behind, or a file outside
``bench/results/`` and ``--out`` changed.  A request the server went on
refusing or did not answer in time is a failed operation (it is counted
in ``failed`` and ``error_rate``, which ``compare.py`` gates) but not a
wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"

# Import the benchmark as the package ``bench`` (bench/trace.py must not
# shadow the standard library's ``trace``), and keep bytecode caches
# under bench/results/ so importing writes nowhere else in the checkout.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))
sys.pycache_prefix = str(RESULTS / "pycache")

WORKLOADS = ("compile-cold", "kernel-sweep", "serve-small", "serve-large")
CHILD_TIMEOUT_S = 170.0
CANARY_S = 0.5
SMOKE_CANARY_S = 0.2
#: Only correct answers are timed, so a 99th percentile says nothing
#: once more than one operation in a hundred has failed: such a pass
#: fails the run even if no output was wrong.
MAX_ERROR_RATE = 0.01


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    for name in ("SPL_CFLAGS", "SPL_JIT", "SPL_CC_TIMEOUT", "SPL_CHAOS"):
        env.pop(name, None)
    env.update({
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        "PYTHONPYCACHEPREFIX": sys.pycache_prefix,
        "SPL_BUILD_DIR": str(tmp / "build"),
        "SPL_JIT_UPGRADE": "0",
        "TMPDIR": str(tmp),
    })
    return env


def run_pass(workload: str, args, trace: int, spans: Path | None) -> dict:
    """One pass in a fresh interpreter, between two canary readings."""
    from bench import machine

    RESULTS.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    result_path = tmp / "result.json"
    argv = [sys.executable, "-m", "bench.child", "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--tmp", str(tmp),
            "--result", str(result_path)]
    if args.smoke:
        argv.append("--smoke")
    if spans is not None:
        argv += ["--spans", str(spans)]
    problems: list[str] = []
    canary_s = SMOKE_CANARY_S if args.smoke else CANARY_S
    before = machine.canary(canary_s)
    started = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, env=child_env(tmp),
                             stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(CHILD_TIMEOUT_S)
        if code != 0:
            problems.append(f"child exited with {code}")
    except subprocess.TimeoutExpired:
        problems.append(f"child ran past {CHILD_TIMEOUT_S:g} s")
    finally:
        leftover = machine.leftover_processes(child.pid)
        if leftover:
            problems.append(f"processes left behind: {leftover}")
            machine.kill_group(child.pid)
        child.wait()
    wall = time.perf_counter() - started
    after = machine.canary(canary_s)
    outcome = {"attempted": 0, "failed": 0, "wrong": 0, "metrics": {},
               "details": {}}
    if result_path.exists():
        outcome = json.loads(result_path.read_text())
    elif not problems:
        problems.append("child wrote no result")
    shutil.rmtree(tmp, ignore_errors=True)
    drift = machine.canary_drift(before, after)
    error_rate = (outcome["failed"] / outcome["attempted"]
                  if outcome["attempted"] else 1.0)
    if error_rate > MAX_ERROR_RATE and not problems:
        problems.append(f"error_rate {error_rate:.4f} is above "
                        f"{MAX_ERROR_RATE:g}")
    outcome.update({
        "wall_s": wall,
        "problems": problems,
        "error_rate": error_rate,
        "canary": {"before": before, "after": after, "drift": drift},
        "noisy": drift > machine.NOISY_DRIFT,
    })
    return outcome


def with_units(outcome: dict, declared: list[dict]) -> dict:
    """The declared metrics, each with its unit.  One that the pass did
    not report is a problem, not a silent gap; one it reported that
    BENCHMARK.json does not name is kept among the details."""
    metrics = outcome.pop("metrics")
    out = {}
    for spec in declared:
        if spec["name"] not in metrics:
            outcome["problems"].append(
                f"metric {spec['name']} was not reported")
            continue
        out[spec["name"]] = {"value": metrics.pop(spec["name"]),
                             "unit": spec["unit"]}
    outcome["details"].update(metrics)
    return out


def print_pass(workload: str, label: str, outcome: dict) -> None:
    flags = " [noisy]" if outcome["noisy"] else ""
    if outcome["details"].get("generator_bound"):
        flags += " [generator_bound]"
    print(f"== {workload} ({label}, {outcome['wall_s']:.1f} s wall){flags}")
    print(f"   attempted {outcome['attempted']}  failed {outcome['failed']}"
          f" (wrong {outcome['wrong']})"
          f"  error_rate {outcome['error_rate']:.6f}"
          f"  canary drift {outcome['canary']['drift']:.3f}")
    for name, entry in outcome["reported"].items():
        print(f"   {name:<58} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in sorted(outcome["details"].items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            print(f"   . {name:<56} {value:>14.6g}")
    for name, row in outcome["details"].get("phases", {}).items():
        print(f"   phase {name}: " + "  ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in row.items() if k != "windows"))
    for problem in outcome["problems"]:
        print(f"   PROBLEM: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured length of a pass "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end pass; 1: per-layer pass")
    parser.add_argument("--traced", action="store_true",
                        help="both passes, one after the other")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default: under bench/results/)")
    parser.add_argument("--smoke", action="store_true",
                        help="one-tenth lengths; not comparable")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: no src/repro next to bench/: nothing to "
              "measure", file=sys.stderr)
        return 2

    from bench import machine

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.smoke:
        args.seconds /= 10.0
    passes = (0, 1) if args.traced else (args.trace,)
    workloads = (args.workload,) if args.workload else WORKLOADS
    out = args.out or RESULTS / (
        f"{args.workload or 'all'}-seed{args.seed}-trace"
        f"{'both' if args.traced else args.trace}.json")
    out = out.resolve()
    out.parent.mkdir(parents=True, exist_ok=True)

    span_files = {w: out.with_name(f"{out.stem}.{w}.spans.jsonl")
                  for w in workloads}
    mine = [RESULTS, ROOT / ".git", out, *span_files.values()]
    record = machine.machine_record(ROOT)
    tree = machine.snapshot(ROOT, mine)
    report = {"schema": 1, "smoke": args.smoke, "seed": args.seed,
              "seconds": args.seconds, "machine": record, "workloads": {}}
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        report["workloads"][workload] = {}
        for traced in passes:
            label = "traced" if traced else "untraced"
            outcome = run_pass(workload, args, traced,
                               span_files[workload] if traced else None)
            declared = spec["per_layer" if traced else "end_to_end"]
            outcome["reported"] = with_units(outcome, declared)
            print_pass(workload, f"seed {args.seed}, {label}", outcome)
            report["workloads"][workload][label] = outcome
            line["attempted"] += outcome["attempted"]
            line["failed"] += outcome["failed"]
            if outcome["wrong"] or outcome["problems"]:
                line["correct"] = False
            prefix = "" if args.workload else f"{workload}:"
            for name, entry in outcome["reported"].items():
                line["metrics"][prefix + name] = entry

    changed = machine.changed_paths(tree, machine.snapshot(ROOT, mine))
    if changed:
        print(f"PROBLEM: files changed outside bench/results/: {changed}")
        line["correct"] = False
    report["changed_paths"] = changed
    out.write_text(json.dumps(report, indent=1))
    print(f"results written to {out}")
    line["attempted"] = max(1, line["attempted"])
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
