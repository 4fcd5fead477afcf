"""Record the benchmark's end-to-end runs in one JSON file.

    python3 tools/record_bench.py BENCH_<n>.json --seconds 10 [run.py args]

Runs `bench/run.py --trace 0` as a black box for every workload that
BENCHMARK.json names, once per seed of SEEDS, and writes the median, the
interquartile range and the raw values across seeds of each end-to-end
metric and of each timing in the run's report, with the failed and
attempted op counts. Arguments after the output path go to every run
unchanged. Workloads take turns going first, one seed to the next,
because a run's `setup_s` depends on what ran before it.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

import ab

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (3, 4, 5, 6, 7)

NOTES = [
    "Each metric and timing is as bench/run.py defines it at the recorded commit.",
    "peak_rss_mb carries the benchmark's own floor: a CLI child's ru_maxrss starts"
    " at the benchmark process's high-water mark, which making the cover sets.",
    "CLI ops compile planestego's sources on every call when the environment sets"
    " PYTHONDONTWRITEBYTECODE; see python_dont_write_bytecode.",
]


def _summary(values: list, unit: str) -> dict:
    """Median and IQR of the values a run reported; a timing with no
    sample has none and stays None among the raw values."""
    q1 = median = q3 = None
    present = [v for v in values if v is not None]
    if len(present) > 1:
        q1, median, q3 = statistics.quantiles(present, n=4, method="inclusive")
    elif present:
        q1 = median = q3 = present[0]
    iqr = None if median is None else q3 - q1
    return {"unit": unit, "median": median, "iqr": iqr, "values": values}


def _summaries(rows: list[dict]) -> dict:
    """{name: summary} over one workload's runs; each row maps a name to
    {"value" or "p50": number, "unit": unit}."""
    return {
        name: _summary([row[name].get("value", row[name].get("p50")) for row in rows],
                       rows[0][name]["unit"])
        for name in rows[0]
    }


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        sys.exit(__doc__)
    out, extra = Path(argv[0]), argv[1:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[tuple[dict, dict]]] = {name: [] for name in names}
    for k, seed in enumerate(SEEDS):
        for name in names[k % len(names):] + names[: k % len(names)]:
            runs[name].append(ab._run(ROOT, name, seed, extra))
    machine = runs[names[0]][0][0]["machine"]
    workloads = {}
    for name, pairs in runs.items():
        # the report's timings, less the metrics it repeats
        timings = [
            {key: v for key, v in report.items()
             if isinstance(v, dict) and "unit" in v and key not in result["metrics"]}
            for report, result in pairs
        ]
        workloads[name] = {
            "failed": sum(result["failed"] for _, result in pairs),
            "attempted": sum(result["attempted"] for _, result in pairs),
            "metrics": _summaries([result["metrics"] for _, result in pairs]),
            "report": _summaries(timings),
        }
    record = {
        "commit": machine.pop("commit"),
        "machine": machine,
        "seeds": list(SEEDS),
        "command": ["bench/run.py", "--workload", "<workload>", "--seed", "<seed>",
                    "--trace", "0", *extra],
        "python_dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "notes": NOTES,
        "workloads": workloads,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
