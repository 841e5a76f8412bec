"""compare.py on synthetic result files."""

import json
import subprocess
import sys
from pathlib import Path

from bench.compare import verdict

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_verdicts():
    assert verdict([10.0], [10.5], "lower", 0.10)[0] == "same"
    assert verdict([10.0], [11.5], "lower", 0.10)[0] == "worse"
    assert verdict([10.0], [8.0], "lower", 0.10)[0] == "better"
    assert verdict([100.0], [85.0], "higher", 0.10)[0] == "worse"
    assert verdict([100.0], [120.0], "higher", 0.10)[0] == "better"
    # Same-side runs 30 % apart under a 10 % bound: medians decide
    # nothing ...
    assert verdict([10.0, 13.0], [11.0, 12.5], "lower", 0.10)[0] \
        == "unresolved"
    # ... unless one side beats the other in every run.
    assert verdict([10.0, 13.0], [7.0, 9.0], "lower", 0.10)[0] == "better"
    assert verdict([10.0, 13.0], [14.0, 18.0], "lower", 0.10)[0] == "worse"


def _report(tmp_path: Path, name: str, scale: float = 1.0,
            error_rate: float = 0.0, smoke: bool = False) -> str:
    reported = {}
    for metric in SPEC["end_to_end"]:
        worse = scale if metric["better"] == "lower" else 1.0 / scale
        reported[metric["name"]] = {"value": 100.0 * worse,
                                    "unit": metric["unit"]}
    untraced = {"reported": reported, "error_rate": error_rate,
                "noisy": False}
    path = tmp_path / name
    path.write_text(json.dumps({
        "smoke": smoke,
        "workloads": {"serve-small": {"untraced": untraced}}}))
    return str(path)


def _compare(*paths: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"), *paths],
        capture_output=True, text=True)


def test_same_commit_passes(tmp_path):
    done = _compare(_report(tmp_path, "a"), _report(tmp_path, "b", 1.02),
                    _report(tmp_path, "a2", 0.99), _report(tmp_path, "b2"))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "worse" not in done.stdout
    assert "serve-small" in done.stdout and "latency_tail_ms" in done.stdout


def test_regression_fails(tmp_path):
    done = _compare(_report(tmp_path, "a"), _report(tmp_path, "b", 1.3))
    assert done.returncode == 1
    assert "worse" in done.stdout


def test_error_rate_rise_fails(tmp_path):
    done = _compare(_report(tmp_path, "a"),
                    _report(tmp_path, "b", error_rate=0.01))
    assert done.returncode == 1
    # One refused request in two thousand is within the absolute bound.
    done = _compare(_report(tmp_path, "a"),
                    _report(tmp_path, "b", error_rate=0.0005))
    assert done.returncode == 0


def test_smoke_runs_are_refused(tmp_path):
    done = _compare(_report(tmp_path, "a"),
                    _report(tmp_path, "b", smoke=True))
    assert done.returncode not in (0, 1)
    assert "smoke" in done.stderr
