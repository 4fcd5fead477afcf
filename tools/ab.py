"""Paired benchmark runs of two commits, with an A/A control.

    python3 tools/ab.py BASE HEAD --workload W --pairs N [--out AB.json]
        [--seed S] [-- run.py args]

Exports the commits BASE and HEAD, and a second copy of BASE (BASE'), with
`git archive` into a temporary directory. Pair k runs `bench/run.py --trace
0` with seed S + k once in each of the three trees; BASE and HEAD make the
comparison, and the same BASE run and BASE' the control. The three runs
take the six orders in turn from pair to pair, and the two copies of BASE
swap roles halfway, so that neither the run order, nor what ran just
before, nor a directory favours a side. Arguments after `--` go to every
run unchanged; `bench/run.py` needs `--seconds`.

For each end-to-end metric in BENCHMARK.json, the output holds, for the
comparison and for the control: the raw (BASE, HEAD) or (BASE, BASE')
values of each pair, the median of the HEAD / BASE or BASE' / BASE
ratios, a bootstrap 95 % interval of that median, and the wins, the pairs
in which HEAD or BASE' is better. `differs` is true only where the
comparison's interval is clear of the control's. With a handful of pairs
the intervals are too narrow to mean much: two pairs of identical code
can read as different, so use ten or more. The tool adds evidence to a
change; it does not replace the benchmark's own gate.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESAMPLES = 2000
RESAMPLE_SEED = 0
# the orders in which a pair runs BASE (0), BASE' (1) and HEAD (2)
ORDERS = list(itertools.permutations(range(3)))


def _export(rev: str, dest: Path) -> str:
    """Write the commit `rev` names into the new directory `dest`; its hash."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", commit], capture_output=True, check=True
    ).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def _run(tree: Path, workload: str, seed: int, extra: list[str]) -> tuple[dict, dict]:
    """(report, result) of one untraced run of the benchmark in `tree`."""
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0", *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{tree.name} seed {seed} exited {proc.returncode}: "
                 f"{proc.stderr[-500:]}")
    *_, report_line, result_line = proc.stdout.splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


def pair_runs(trees, workload, pairs, first_seed, extra, run=_run) -> dict:
    """{"comparison": [...], "control": [...]}: per pair, the (report,
    result) of BASE and of HEAD, and of BASE and of BASE', in that order
    whatever ran first. `trees` are the BASE, BASE' and HEAD directories."""
    base, base2, head = trees
    runs: dict[str, list] = {"comparison": [], "control": []}
    for k in range(pairs):
        a, a2 = (base, base2) if 2 * k < pairs else (base2, base)
        roles = (a, a2, head)
        got = {roles[i]: run(roles[i], workload, first_seed + k, extra)
               for i in ORDERS[k % len(ORDERS)]}
        runs["comparison"].append((got[a], got[head]))
        runs["control"].append((got[a], got[a2]))
    return runs


def summary(pairs: list[tuple[float, float]], better: str) -> dict:
    """Median second / first ratio of the (first, second) value pairs,
    its bootstrap 95 % interval, and the pairs whose second value is
    better."""
    ratios = [second / first for first, second in pairs]
    rng = random.Random(RESAMPLE_SEED)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES)
    )
    wins = sum((s < f) if better == "lower" else (s > f) for f, s in pairs)
    return {
        "pairs": [list(pair) for pair in pairs],
        "median_ratio": statistics.median(ratios),
        "ci95": [medians[round(0.025 * (RESAMPLES - 1))],
                 medians[round(0.975 * (RESAMPLES - 1))]],
        "wins": wins,
        "n": len(pairs),
    }


def metrics(runs: dict, end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: the comparison's and the control's summary,
    and whether their intervals are clear of each other."""
    out = {}
    for metric in end_to_end:
        name, better = metric["name"], metric["better"]
        sides = {
            side: summary(
                [tuple(result["metrics"][name]["value"] for _, result in pair)
                 for pair in pairs],
                better,
            )
            for side, pairs in runs.items()
        }
        (lo, hi), (control_lo, control_hi) = (sides[s]["ci95"] for s in sides)
        out[name] = {"unit": metric["unit"], "better": better, **sides,
                     "differs": hi < control_lo or lo > control_hi}
    return out


def main(argv: list[str]) -> int:
    extra = argv[argv.index("--") + 1 :] if "--" in argv else []
    argv = argv[: argv.index("--")] if "--" in argv else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=71, help="seed of the first pair")
    parser.add_argument("--out", type=Path, default=Path("AB.json"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = [Path(tmp, name) for name in ("base", "base2", "head")]
        commits = [_export(rev, tree)
                   for rev, tree in zip((args.base, args.base, args.head), trees)]
        runs = pair_runs(trees, args.workload, args.pairs, args.seed, extra)
    machine = runs["comparison"][0][0][0]["machine"]
    machine.pop("commit", None)  # an exported tree has no .git to read
    record = {
        "base": commits[0],
        "head": commits[2],
        "workload": args.workload,
        "machine": machine,
        "seeds": [args.seed + k for k in range(args.pairs)],
        "command": ["bench/run.py", "--workload", args.workload, "--seed", "<seed>",
                    "--trace", "0", *extra],
        "python_dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        # summed over each side's runs: (BASE, HEAD) and (BASE, BASE')
        "failed": {side: [sum(p[i][1]["failed"] for p in pairs) for i in (0, 1)]
                   for side, pairs in runs.items()},
        "attempted": {side: [sum(p[i][1]["attempted"] for p in pairs) for i in (0, 1)]
                      for side, pairs in runs.items()},
        "metrics": metrics(runs, spec["end_to_end"]),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
