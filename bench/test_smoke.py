"""Smoke test of the benchmark: every workload path, traced and untraced,
on a 64x64 cover, must pass its checks and emit every metric that
BENCHMARK.json names, with its unit.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

REPORTED = {
    "cli-keyed-2048": {"setup_s", "embed_cli_s", "extract_cli_s", "peak_rss_mb"},
    "lib-warm-2048": {"setup_s", "embed_ms", "extract_ms", "roundtrips_per_s", "peak_rss_mb"},
    "cli-analyze-512": {"setup_s", "analyze_cli_s", "peak_rss_mb"},
}


@functools.cache
def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "64"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(REPORTED)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(REPORTED))
def test_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    assert report["failed_ratio"] == {"value": 0.0, "failed": 0, "attempted": result["attempted"]}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert set(report["machine"]) == {"nproc", "cpu_model", "python", "numpy", "commit", "note"}
    if trace:
        assert (ROOT / report["spans_file"]).is_file()
    else:
        assert REPORTED[workload] <= {k for k, v in report.items() if isinstance(v, dict) and "unit" in v}


def test_counts_repeat_per_seed():
    first = json.loads(_run(ROOT, "cli-analyze-512", 1).stdout.splitlines()[-1])
    second = json.loads(_run.__wrapped__(ROOT, "cli-analyze-512", 1).stdout.splitlines()[-1])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert [first["metrics"][n] for n in counts] == [second["metrics"][n] for n in counts]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "lib-warm-2048", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
