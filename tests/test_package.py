"""The package's public surface and README's library example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import planestego
from planestego import GrayImage, write_pgm

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = {
    # types
    "DistortionReport", "EmbedReport", "GrayImage", "SchemeKind", "StegoParams",
    "WeightScheme", "WeightTable",
    # exceptions
    "CapacityError", "PgmError",
    # functions
    "build_map", "build_weight_table", "capacity", "embed", "extract",
    "pixel_order", "plane_luts", "psnr", "read_pgm", "table_for", "write_pgm",
}


def test_exports_are_exactly_the_public_names():
    assert len(planestego.__all__) == len(PUBLIC_NAMES) == 20
    assert set(planestego.__all__) == PUBLIC_NAMES
    for name in planestego.__all__:
        assert getattr(planestego, name) is not None, name


def test_readme_library_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    px = np.random.default_rng(3).integers(0, 256, 32 * 32, dtype=np.uint8)
    (tmp_path / "cover.pgm").write_bytes(write_pgm(GrayImage(32, 32, px.tobytes())))
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
    assert (tmp_path / "stego.pgm").is_file()


def test_import_loads_no_thread_pool():
    # `planestego planes` (the CLI's cheapest command) imports the same
    # modules; only a large keyed order may pay for concurrent.futures, and
    # only a keyed order for hashlib, unless numpy or the standard modules
    # that the CLI imports load it already
    src = Path(planestego.__file__).resolve().parent.parent
    code = (
        "import sys, argparse, gc, os, random, pathlib, typing, numpy; "
        "had_hashlib = 'hashlib' in sys.modules; "
        "import planestego, planestego.cli; "
        "sys.exit('concurrent.futures' in sys.modules "
        "or 'hashlib' in sys.modules and not had_hashlib)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def fresh(code: str, **env: str) -> subprocess.CompletedProcess:
    """`python -c code` in a new interpreter that finds this planestego,
    with OPENBLAS_NUM_THREADS unset unless `env` sets it; stdout as text."""
    src = Path(planestego.__file__).resolve().parent.parent
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**base, "PYTHONPATH": str(src), **env}, check=True,
    )


def test_import_loads_no_numpy_until_a_name_is_used():
    # the names load lazily, so the CLI can set the environment first
    proc = fresh(
        "import sys, planestego; print('numpy' in sys.modules); "
        "print(all(getattr(planestego, n) is not None for n in planestego.__all__)); "
        "print('numpy' in sys.modules)"
    )
    assert proc.stdout.split() == ["False", "True", "True"]


def test_cli_pins_openblas_to_one_thread_unless_set():
    code = "import os, planestego.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh(code).stdout.strip() == "1"
    assert fresh(code, OPENBLAS_NUM_THREADS="4").stdout.strip() == "4"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc")
def test_cli_import_starts_no_thread():
    # numpy's bundled OpenBLAS would start a worker per further CPU
    code = "import os, planestego.cli; print(len(os.listdir('/proc/self/task')))"
    assert fresh(code).stdout.strip() == "1"
