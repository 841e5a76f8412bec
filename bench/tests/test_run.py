"""bench/run.py end to end (slow: about a minute in all)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench.references import WRONG_REFERENCE_ENV

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, out: Path, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--out", str(out),
         *args], capture_output=True, text=True, timeout=170,
        env=dict(os.environ, **env))


@pytest.mark.parametrize("workload",
                         ["compile-cold", "kernel-sweep", "serve-small"])
def test_wrong_reference_fails_the_run(tmp_path, workload):
    """Each workload module compares its outputs with bench/references
    its own way; with the references off by one, each must fail."""
    out = tmp_path / "wrong.json"
    done = _run("--smoke", "--workload", workload, out=out,
                **{WRONG_REFERENCE_ENV: "1"})
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0
    report = json.loads(out.read_text())
    untraced = report["workloads"][workload]["untraced"]
    # Failed because answers were wrong, not because the pass crashed.
    assert untraced["error_rate"] > 0
    assert untraced["wrong"] == untraced["failed"] > 0


def test_smoke_runs_all_four_workloads_in_a_minute(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    done = _run("--smoke", "--seed", "3", out=out)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed < 60.0
    report = json.loads(out.read_text())
    assert report["smoke"] is True
    assert report["changed_paths"] == []
    assert {"git_sha", "platform", "nproc", "python", "numpy", "gcc",
            "loadavg_1min"} <= set(report["machine"])
    for workload in SPEC["workloads"]:
        untraced = report["workloads"][workload["name"]]["untraced"]
        assert untraced["error_rate"] == 0 and not untraced["problems"]
        assert set(untraced["reported"]) == {
            m["name"] for m in SPEC["end_to_end"]}
        assert all(v["value"] > 0 for v in untraced["reported"].values())
        assert {"before", "after", "drift"} <= set(untraced["canary"])
    # A smoke file is refused by compare.py.
    refused = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"), str(out),
         str(out)], capture_output=True, text=True)
    assert refused.returncode not in (0, 1) and "smoke" in refused.stderr


def test_traced_pass_writes_spans_that_add_up(tmp_path):
    out = tmp_path / "traced.json"
    done = _run("--smoke", "--workload", "serve-small", "--traced", out=out)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    passes = json.loads(out.read_text())["workloads"]["serve-small"]
    # End-to-end figures of both passes are written.
    assert set(passes) == {"untraced", "traced"}
    traced = passes["traced"]
    assert set(traced["reported"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced["details"]["traced_pass.latency_p50_ms"] > 0
    assert "trace.overhead_share" in traced["reported"]

    spans = [json.loads(line) for line in
             (tmp_path / "traced.serve-small.spans.jsonl").read_text()
             .splitlines()]
    requests = {s["id"] for s in spans if s["name"] == "request"}
    assert requests
    per_request: dict[int, int] = {}
    for span in spans:
        if span["parent"] in requests:
            per_request[span["request"]] = per_request.get(
                span["request"], 0) + span["end"] - span["start"]
    totals = sorted(per_request.values())
    middle = len(totals) // 2
    median_ns = (totals[middle] if len(totals) % 2
                 else (totals[middle - 1] + totals[middle]) / 2)
    share = median_ns / 1e6 / traced["details"]["traced_pass.latency_p50_ms"]
    reported = traced["reported"]["budget.attributed_share"]["value"]
    assert abs(share - reported) < 1e-9 * max(1.0, reported)
