"""planestego benchmark: one workload per process, checked outputs, JSON result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from any directory; the program under test is this checkout's
src/planestego, used without installing it. With --trace 0 the run is
untraced and the last stdout line holds the end-to-end metrics; with
--trace 1 it replays the same ops under spans and holds the per-layer
metrics. The line before it is a fuller report: the machine, every timing
with its sample count, and the failed-op ratio with its base. Spans of a
traced run are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from spans import NullTracer, Tracer, calls
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_LIMIT_S = 170.0  # every run must end within 180 s


class ReplayError(Exception):
    pass


class Run:
    """State of one benchmark run: its inputs, clock, checks and samples."""

    def __init__(self, args: argparse.Namespace, work: Path):
        self.seed = args.seed
        self.seconds = args.seconds
        self.size = args.size
        self.work = work
        self.tracer = Tracer() if args.trace else NullTracer()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.unaccounted: list[float] = []
        self.counts: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)

    def ops(self):
        """Op indices 0, 1, ... until --seconds have passed (at least one)."""
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < self.seconds:
            if time.monotonic() > self.deadline:
                break
            yield k
            k += 1

    def _child(self, argv: list) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *map(str, argv)],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        return time.perf_counter() - start, proc

    def cli(self, *args) -> tuple[float, subprocess.CompletedProcess]:
        """Wall time and result of one `planestego` CLI call."""
        return self._child(["-m", "planestego.cli", *args])

    def replay(self, spec: dict) -> dict:
        """Run bench/replay.py in a fresh process; adopt its spans."""
        _, proc = self._child([BENCH / "replay.py", json.dumps(spec, default=str)])
        if proc.returncode != 0:
            raise ReplayError(f"replay {spec['cmd']} exited {proc.returncode}: {proc.stderr[-300:]}")
        out = json.loads(proc.stdout.splitlines()[-1])
        self.tracer.adopt(out.pop("spans", []))
        return out.get("counts", out)


def _timing(values: list[float], unit: str) -> dict:
    """Median, p90 when at least ten samples lie beyond it, sample count."""
    out = {"unit": unit, "n": len(values)}
    if values:
        out["p50"] = statistics.median(values)
        if len(values) >= 100:
            out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def _value(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb(workload: str) -> float:
    """Largest child for CLI workloads, this process for the library one."""
    who = resource.RUSAGE_SELF if workload.startswith("lib") else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def end_to_end(run: Run, workload: str) -> tuple[dict, dict]:
    """(contract metrics, named report) from the untraced samples."""
    s = run.samples
    rss = _peak_rss_mb(workload)
    metrics = {
        "setup_s": (_value(s["setup_s"]), "s"),
        "op_s.p50": (_value(s["op_s"]), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    report = {"setup_s": _timing(s["setup_s"], "s"), "peak_rss_mb": {"value": rss, "unit": "MB"}}
    if workload == "cli-keyed-2048":
        report["embed_cli_s"] = _timing(s["embed_cli_s"], "s")
        report["extract_cli_s"] = _timing(s["extract_cli_s"], "s")
    elif workload == "cli-analyze-512":
        report["analyze_cli_s"] = _timing(s["analyze_cli_s"], "s")
    else:
        report["embed_ms"] = _timing(s["embed_ms"], "ms")
        report["extract_ms"] = _timing(s["extract_ms"], "ms")
        busy = sum(s["op_s"])
        report["roundtrips_per_s"] = {
            "value": len(s["op_s"]) / busy if busy else 0.0,
            "unit": "1/s",
            "n": len(s["op_s"]),
        }
    return metrics, report


def per_layer(run: Run) -> tuple[dict, dict]:
    """(contract metrics, named report) from the spans and counts."""
    spans = run.tracer.spans

    def med(name: str) -> float:
        return _value(calls(spans, name))

    embeds = calls(spans, "stego_engine.embed")
    psnrs = calls(spans, "metrics.psnr")
    c = run.counts
    metrics = {
        "cli.start_s": (med("cli.start"), "s"),
        "image_io.read_pgm_s": (med("image_io.read_pgm"), "s"),
        "image_io.write_pgm_s": (med("image_io.write_pgm"), "s"),
        "image_io.bytes": (c.get("image_io_bytes", 0), "B"),
        "number_systems.build_weight_table_s": (med("number_systems.build_weight_table"), "s"),
        "plane_codec.build_map_s": (med("plane_codec.build_map"), "s"),
        "stego_engine.plane_lut_cold_s": (med("stego_engine.plane_lut_cold"), "s"),
        "stego_engine.plane_luts_built": (c.get("plane_luts_built", 0), "count"),
        "stego_engine.pixel_order_cold_s": (med("stego_engine.pixel_order_cold"), "s"),
        "stego_engine.order_bytes": (c.get("order_bytes", 0), "B"),
        "stego_engine.pixel_order_warm_s": (med("stego_engine.pixel_order_warm"), "s"),
        "stego_engine.capacity_s": (med("stego_engine.capacity"), "s"),
        "stego_engine.embed_s": (_value(embeds), "s"),
        "stego_engine.embed_self_s": (_value([e - p for e, p in zip(embeds, psnrs)]), "s"),
        "stego_engine.extract_s": (med("stego_engine.extract"), "s"),
        "metrics.psnr_s": (_value(psnrs), "s"),
        "stego_engine.bits_embedded": (c.get("bits", 0), "count"),
        "stego_engine.pixels_visited": (c.get("visited", 0), "count"),
        "stego_engine.pixels_skipped": (c.get("skipped", 0), "count"),
        "stego_engine.pixels_changed": (c.get("changed", 0), "count"),
        "stego_engine.carry_ratio": (c.get("bits", 0) / max(1, c.get("visited", 0)), "ratio"),
        "stego_engine.change_ratio": (c.get("changed", 0) / max(1, c.get("bits", 0)), "ratio"),
        "trace.unaccounted_s": (_value(run.unaccounted), "s"),
    }
    report = {
        "span_calls": {
            name: len(calls(spans, name))
            for name in sorted({s["name"] for s in spans})
        },
        "carry_ratio_base": {"pixels_visited": c.get("visited", 0)},
        "change_ratio_base": {"bits_embedded": c.get("bits", 0)},
        "unaccounted_n": len(run.unaccounted),
        "counts_from": "first traced op (lib-warm-2048: first cycle of 48 round trips plus set-up)",
    }
    return metrics, report


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout's .git, read directly; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "note": "CLI and replay subprocesses run serially from one benchmark process",
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", type=int, default=None, help="cover side in pixels (default: the workload's)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "planestego" / "cli.py").is_file():
        print(f"error: no planestego sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    run = Run(args, work)
    try:
        WORKLOADS[args.workload](run)
    except (ReplayError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError, OSError) as exc:
        run.record([f"run stopped: {type(exc).__name__}: {exc}"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics, report = per_layer(run)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, report = end_to_end(run, args.workload)
    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        machine=machine(),
        failed_ratio={
            "value": run.failed / max(1, run.attempted),
            "failed": run.failed,
            "attempted": run.attempted,
        },
        failures=run.failures[:20],
    )
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and run.attempted > 0,
                "attempted": max(1, run.attempted),
                "failed": run.failed if run.attempted else 1,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
