"""tools/record_bench.py at the benchmark's smoke size."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_records_every_workload_and_metric(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "record_bench.py"), str(out),
         "--size", "64", "--seconds", "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["command"][-4:] == ["--size", "64", "--seconds", "0"]
    assert isinstance(record["python_dont_write_bytecode"], bool)
    assert set(record["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for workload in record["workloads"].values():
        assert workload["failed"] == 0 and workload["attempted"] > 0
        assert set(workload["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        for summary in [*workload["metrics"].values(), *workload["report"].values()]:
            assert len(summary["values"]) == len(record["seeds"])
            assert isinstance(summary["median"], float)
            assert summary["iqr"] >= 0
