"""tools/ab.py: the pairing, the alternation, the control and the ratios,
with a fake runner; then one real pair at the benchmark's smoke size."""

import importlib.util
import json
from collections import Counter
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BASE, BASE2, HEAD = Path("base"), Path("base2"), Path("head")
# HEAD sets up in 0.8 of BASE's time and uses as much memory
VALUES = {BASE: (1.0, 100.0), BASE2: (1.0, 100.0), HEAD: (0.8, 100.0)}


class FakeRunner:
    def __init__(self):
        self.calls = []

    def __call__(self, tree, workload, seed, extra):
        self.calls.append((tree, seed))
        setup, rss = VALUES[tree]
        # a little spread from seed to seed, the same for every tree
        setup *= 1 + (seed % 3) / 100
        result = {
            "failed": 0,
            "attempted": 5,
            "metrics": {
                "setup_s": {"value": setup, "unit": "s"},
                "op_s.p50": {"value": setup / 10, "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            },
        }
        return {"tree": tree, "machine": {"commit": "unknown"}}, result


def setups(pairs):
    """The setup_s values of each pair of (report, result) runs."""
    return [tuple(result["metrics"]["setup_s"]["value"] for _, result in pair)
            for pair in pairs]


def test_pairs_take_turns_and_the_base_copies_swap_halfway():
    run = FakeRunner()
    runs = ab.pair_runs((BASE, BASE2, HEAD), "w", 12, 10, [], run=run)
    # one run per tree and pair, all three on the pair's seed
    assert [seed for _, seed in run.calls] == [s for s in range(10, 22) for _ in "abc"]
    orders = [[tree for tree, _ in run.calls[k : k + 3]] for k in range(0, 36, 3)]
    # every tree takes every place in a pair's order equally often
    for place in range(3):
        assert Counter(order[place] for order in orders) == {BASE: 4, BASE2: 4, HEAD: 4}
    # BASE' stands in for BASE from the second half on, and one BASE run
    # serves both the comparison and the control
    assert [f[0]["tree"] for f, _ in runs["comparison"]] == [BASE] * 6 + [BASE2] * 6
    assert [s[0]["tree"] for _, s in runs["comparison"]] == [HEAD] * 12
    assert [s[0]["tree"] for _, s in runs["control"]] == [BASE2] * 6 + [BASE] * 6
    assert all(c[0] is k[0] for c, k in zip(runs["comparison"], runs["control"]))
    assert all(h / b == pytest.approx(0.8) for b, h in setups(runs["comparison"]))
    assert all(b2 == b for b, b2 in setups(runs["control"]))


def test_ratios_wins_and_intervals():
    runs = ab.pair_runs((BASE, BASE2, HEAD), "w", 10, 0, [], run=FakeRunner())
    got = ab.metrics(runs, SPEC["end_to_end"])
    assert set(got) == {m["name"] for m in SPEC["end_to_end"]}
    setup = got["setup_s"]
    assert setup["comparison"]["median_ratio"] == pytest.approx(0.8)
    assert setup["comparison"]["ci95"] == pytest.approx([0.8, 0.8])
    assert setup["comparison"]["wins"] == 10 and setup["comparison"]["n"] == 10
    assert setup["control"]["median_ratio"] == 1.0
    assert setup["control"]["wins"] == 0
    assert setup["differs"]
    # the same memory on every side: no difference, and no wins
    rss = got["peak_rss_mb"]
    assert rss["comparison"]["median_ratio"] == 1.0 and rss["comparison"]["wins"] == 0
    assert not rss["differs"]


def test_summary_by_hand():
    pairs = [(1.0, 0.5), (1.0, 2.0), (2.0, 1.0), (4.0, 3.0), (1.0, 1.0)]
    got = ab.summary(pairs, "lower")
    assert got["pairs"] == [list(p) for p in pairs]
    assert got["median_ratio"] == 0.75  # of 0.5, 2, 0.5, 0.75, 1
    assert got["wins"] == 3
    lo, hi = got["ci95"]
    assert 0.5 <= lo <= 0.75 <= hi <= 2.0
    assert ab.summary(pairs, "higher")["wins"] == 1
    # the resampling is seeded: the same pairs give the same interval
    assert ab.summary(pairs, "lower")["ci95"] == got["ci95"]


def test_one_real_pair_at_smoke_size(tmp_path):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "HEAD", "HEAD",
         "--workload", "cli-analyze-512", "--pairs", "1", "--out", str(out),
         "--", "--size", "64", "--seconds", "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["base"] == record["head"]
    assert record["command"][-4:] == ["--size", "64", "--seconds", "0"]
    assert record["failed"] == {"comparison": [0, 0], "control": [0, 0]}
    for metric in record["metrics"].values():
        for side in ("comparison", "control"):
            assert metric[side]["n"] == 1 and len(metric[side]["pairs"]) == 1
