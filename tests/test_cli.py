import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planestego
from planestego.cli import DEFAULT_ANALYZE_PAYLOAD_BYTES, DEFAULT_ANALYZE_SEED, run
from planestego.image_io import GrayImage, read_pgm, write_pgm
from planestego.number_systems import SchemeKind, WeightScheme
from planestego import stego_engine
from planestego.stego_engine import StegoParams, capacity, embed, table_for


@pytest.fixture
def cover_path(tmp_path):
    rng = np.random.default_rng(17)
    px = rng.integers(0, 256, 64 * 48, dtype=np.uint8)
    path = tmp_path / "cover.pgm"
    path.write_bytes(write_pgm(GrayImage(64, 48, px.tobytes())))
    return path


@pytest.fixture
def payload_path(tmp_path):
    path = tmp_path / "msg.bin"
    path.write_bytes(b"attack at dawn \x00\xff\x80")
    return path


def test_planes_table(capsys):
    assert run(["planes"]) == 0
    out = capsys.readouterr().out
    lines = [line.split() for line in out.splitlines()]
    assert ["binary", "8"] in lines
    assert ["fibonacci", "12"] in lines
    assert ["prime", "15"] in lines
    assert ["natural", "23"] in lines
    assert lines[0] == ["scheme", "planes"]


@pytest.mark.parametrize("scheme", ["binary", "fibonacci", "prime", "natural"])
def test_embed_extract_roundtrip(tmp_path, cover_path, payload_path, capsys, scheme):
    stego = tmp_path / "stego.pgm"
    back = tmp_path / "back.bin"
    common = ["--scheme", scheme, "--plane", "0"]
    assert run(["embed", *common, "--in", str(cover_path),
                "--payload", str(payload_path), "--out", str(stego)]) == 0
    report = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert set(report) == {"bits_embedded", "pixels_visited", "pixels_skipped", "psnr_db"}
    assert int(report["bits_embedded"]) == 32 + 8 * 18
    assert run(["extract", *common, "--in", str(stego), "--out", str(back)]) == 0
    assert back.read_bytes() == payload_path.read_bytes()


def test_keyed_roundtrip(tmp_path, cover_path, payload_path):
    stego = tmp_path / "stego.pgm"
    back = tmp_path / "back.bin"
    common = ["--scheme", "prime", "--plane", "1", "--key", "hunter2"]
    assert run(["embed", *common, "--in", str(cover_path),
                "--payload", str(payload_path), "--out", str(stego)]) == 0
    assert run(["extract", *common, "--in", str(stego), "--out", str(back)]) == 0
    assert back.read_bytes() == payload_path.read_bytes()


@pytest.mark.parametrize("p, plane", [(2, 0), (2, 13), (3, 1), (3, 9)])
def test_fibonacci_order_roundtrip(tmp_path, cover_path, payload_path, capsys, p, plane):
    stego = tmp_path / "stego.pgm"
    back = tmp_path / "back.bin"
    common = ["--scheme", "fibonacci", "--p", str(p), "--plane", str(plane),
              "--key", "hunter2"]
    # the library with the same order is the reference for what --p selects
    params = StegoParams(WeightScheme(SchemeKind.FIBONACCI, p=p), plane, b"hunter2")
    cover = read_pgm(cover_path.read_bytes())
    assert run(["capacity", *common, "--in", str(cover_path)]) == 0
    assert capsys.readouterr().out.strip() == f"capacity_bits={capacity(cover, params)}"
    assert run(["embed", *common, "--in", str(cover_path),
                "--payload", str(payload_path), "--out", str(stego)]) == 0
    expected, _ = embed(cover, payload_path.read_bytes(), params)
    assert stego.read_bytes() == write_pgm(expected)
    assert run(["extract", *common, "--in", str(stego), "--out", str(back)]) == 0
    assert back.read_bytes() == payload_path.read_bytes()


def run_process(*argv: bytes) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, with argv passed as raw bytes."""
    src = str(Path(planestego.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # stdout block-buffered, as into any pipe, so that output lost at exit shows
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable.encode(), b"-m", b"planestego.cli", *argv],
        env=env,
        capture_output=True,
        check=False,
    )


def test_raw_byte_key_roundtrip(tmp_path, cover_path, payload_path):
    # a key that is not valid UTF-8 reaches the library as the same bytes
    stego = tmp_path / "stego.pgm"
    back = tmp_path / "back.bin"
    common = [b"--scheme", b"prime", b"--plane", b"1", b"--key", b"\xff"]
    done = run_process(b"embed", *common, b"--in", bytes(cover_path),
                       b"--payload", bytes(payload_path), b"--out", bytes(stego))
    assert done.returncode == 0, done.stderr
    params = StegoParams(WeightScheme(SchemeKind.PRIME), 1, b"\xff")
    expected, _ = embed(read_pgm(cover_path.read_bytes()), payload_path.read_bytes(), params)
    assert stego.read_bytes() == write_pgm(expected)
    done = run_process(b"extract", *common, b"--in", bytes(stego), b"--out", bytes(back))
    assert done.returncode == 0, done.stderr
    assert back.read_bytes() == payload_path.read_bytes()


def test_raw_byte_key_capacity_and_analyze(cover_path):
    cover = read_pgm(cover_path.read_bytes())
    params = StegoParams(WeightScheme(SchemeKind.BINARY), 0, b"\xff")
    done = run_process(b"capacity", b"--scheme", b"binary", b"--key", b"\xff",
                       b"--in", bytes(cover_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().strip() == f"capacity_bits={capacity(cover, params)}"
    done = run_process(b"analyze", b"--key", b"\xff", b"--in", bytes(cover_path))
    assert done.returncode == 0, done.stderr
    # the binary plane-0 row embeds the default payload under that key
    _, plane, cap, bits, db = done.stdout.decode().splitlines()[1].split()
    payload = random.Random(DEFAULT_ANALYZE_SEED).randbytes(DEFAULT_ANALYZE_PAYLOAD_BYTES)
    _, report = embed(cover, payload[: (int(cap) - 32) // 8], params)
    assert (plane, int(bits), db) == ("0", report.bits_embedded, f"{report.psnr_db:.4f}")


# main() freezes the collector before sys.exit; through it, the output and
# the exit codes must be what run() gives in-process


def test_planes_through_main(capsys):
    assert run(["planes"]) == 0
    expected = capsys.readouterr().out
    done = run_process(b"planes")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode().splitlines() == expected.splitlines()


def test_missing_input_exit2_through_main(tmp_path):
    done = run_process(b"capacity", b"--scheme", b"binary",
                       b"--in", bytes(tmp_path / "nope.pgm"))
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(b"error: ") and b"nope.pgm" in done.stderr


def test_extract_truncation_exit3_through_main(tmp_path, truncated_path):
    out = tmp_path / "x.bin"
    done = run_process(b"extract", b"--scheme", b"binary",
                       b"--in", bytes(truncated_path), b"--out", bytes(out))
    assert (done.returncode, done.stdout) == (3, b"")
    assert done.stderr.startswith(b"error: ") and b"1000000 bytes" in done.stderr
    assert not out.exists()


def test_utf8_key_is_encoded_as_utf8(tmp_path, cover_path, payload_path):
    stego = tmp_path / "stego.pgm"
    assert run(["embed", "--scheme", "natural", "--key", "ключ", "--in", str(cover_path),
                "--payload", str(payload_path), "--out", str(stego)]) == 0
    params = StegoParams(WeightScheme(SchemeKind.NATURAL), 0, "ключ".encode())
    expected, _ = embed(read_pgm(cover_path.read_bytes()), payload_path.read_bytes(), params)
    assert stego.read_bytes() == write_pgm(expected)


@pytest.mark.parametrize("command", ["analyze", "capacity", "embed", "extract"])
def test_unencodable_key_is_a_usage_error(tmp_path, cover_path, payload_path, capsys,
                                          command):
    # a lone surrogate has no bytes in the file-system encoding; a command line
    # cannot hold one, since argv decodes to U+DC80-U+DCFF, but a caller of run can
    out = tmp_path / "out"
    args = {
        "analyze": [],
        "capacity": ["--scheme", "binary"],
        "embed": ["--scheme", "binary", "--payload", str(payload_path), "--out", str(out)],
        "extract": ["--scheme", "binary", "--out", str(out)],
    }[command]
    assert run([command, *args, "--key=\ud800", "--in", str(cover_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --key" in captured.err
    assert not out.exists()


def test_embed_deterministic(tmp_path, cover_path, payload_path):
    out1 = tmp_path / "s1.pgm"
    out2 = tmp_path / "s2.pgm"
    for out in (out1, out2):
        assert run(["embed", "--scheme", "natural", "--in", str(cover_path),
                    "--payload", str(payload_path), "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_capacity_command(cover_path, capsys):
    assert run(["capacity", "--scheme", "binary", "--in", str(cover_path)]) == 0
    assert capsys.readouterr().out.strip() == f"capacity_bits={64 * 48}"


def test_capacity_exceeded_exit3(tmp_path, cover_path, capsys):
    big = tmp_path / "big.bin"
    big.write_bytes(bytes(64 * 48))  # more bits than pixels
    rc = run(["embed", "--scheme", "binary", "--in", str(cover_path),
              "--payload", str(big), "--out", str(tmp_path / "s.pgm")])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(32 + 8 * 64 * 48) in err and str(64 * 48) in err


def test_payload_too_large_to_frame_exit3(tmp_path, cover_path, capsys, monkeypatch):
    # a payload of gigabytes cannot be framed in memory (a byte per bit):
    # one that cannot fit must exit 3 without framing it
    def no_memory(payload):
        raise MemoryError(f"framing {len(payload)} bytes")

    monkeypatch.setattr(stego_engine, "frame", no_memory)
    big = tmp_path / "big.bin"
    big.write_bytes(bytes(64 * 48))  # more bits than pixels
    rc = run(["embed", "--scheme", "binary", "--key", "k", "--in", str(cover_path),
              "--payload", str(big), "--out", str(tmp_path / "s.pgm")])
    assert rc == 3
    assert str(32 + 8 * 64 * 48) in capsys.readouterr().err


@pytest.fixture
def truncated_path(tmp_path):
    """An 8x8 stego image whose binary plane-0 header declares 10^6 bytes."""
    px = np.zeros(64, dtype=np.uint8)
    px[:32] |= np.unpackbits(np.frombuffer((10**6).to_bytes(4, "big"), np.uint8))
    path = tmp_path / "bad.pgm"
    path.write_bytes(write_pgm(GrayImage(8, 8, px.tobytes())))
    return path


def test_extract_truncation_exit3(tmp_path, truncated_path, capsys):
    rc = run(["extract", "--scheme", "binary", "--in", str(truncated_path),
              "--out", str(tmp_path / "x.bin")])
    assert rc == 3


def test_usage_errors_exit1(tmp_path, cover_path, capsys):
    cases = [
        ["embed", "--scheme", "octal", "--in", "a", "--payload", "b", "--out", "c"],
        ["embed", "--scheme", "binary"],  # missing paths
        ["capacity", "--scheme", "binary", "--plane", "8", "--in", str(cover_path)],
        ["capacity", "--scheme", "fibonacci", "--p", "0", "--in", str(cover_path)],
        ["bogus-command"],
    ]
    for argv in cases:
        assert run(argv) == 1, argv
        assert capsys.readouterr().err


def test_plane_validated_before_reading_files(tmp_path, capsys):
    rc = run(["capacity", "--scheme", "binary", "--plane", "99",
              "--in", str(tmp_path / "does-not-exist.pgm")])
    assert rc == 1
    assert "plane" in capsys.readouterr().err


def test_io_errors_exit2(tmp_path, capsys):
    missing = run(["capacity", "--scheme", "binary",
                   "--in", str(tmp_path / "nope.pgm")])
    assert missing == 2
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"not a pgm at all")
    assert run(["capacity", "--scheme", "binary", "--in", str(bad)]) == 2


@given(
    w=st.integers(1, 16),
    h=st.integers(1, 16),
    kind=st.sampled_from(SchemeKind),
    p=st.integers(1, 3) | st.integers(2**63 - 1, 2**70),
    key=st.none() | st.binary(max_size=8),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_arbitrary_raster_exits_only_through_documented_codes(w, h, kind, p, key, data):
    # any raster is a cover or a stego image whose header may be garbage:
    # extract succeeds or reports truncation, the others always succeed
    px = data.draw(st.binary(min_size=w * h, max_size=w * h))
    scheme = WeightScheme(kind, p=p)
    plane = data.draw(st.integers(0, table_for(scheme).n - 1))
    keyed = [] if key is None else [f"--key={os.fsdecode(key)}"]
    with tempfile.TemporaryDirectory() as tmp:
        image = Path(tmp) / "image.pgm"
        image.write_bytes(write_pgm(GrayImage(w, h, px)))
        common = ["--scheme", kind.value, "--p", str(p), "--plane", str(plane),
                  *keyed, "--in", str(image)]
        out = str(Path(tmp) / "payload.bin")
        assert run(["extract", *common, "--out", out]) in (0, 3)
        assert run(["capacity", *common]) == 0
        assert run(["analyze", *keyed, "--in", str(image)]) == 0


def test_analyze_deterministic(cover_path, capsys):
    assert run(["analyze", "--in", str(cover_path)]) == 0
    first = capsys.readouterr().out
    assert run(["analyze", "--in", str(cover_path)]) == 0
    assert capsys.readouterr().out == first
    rows = first.splitlines()
    assert rows[0].split() == [
        "scheme", "plane", "capacity_bits", "bits_embedded", "psnr_db",
    ]
    assert len(rows) == 1 + 8 + 12 + 15 + 23


def test_analyze_capacity_matches_library(cover_path, capsys):
    assert run(["analyze", "--in", str(cover_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 8 + 12 + 15 + 23
    cover = read_pgm(cover_path.read_bytes())
    for name, plane, cap, _, _ in rows:
        params = StegoParams(WeightScheme(SchemeKind(name)), plane=int(plane))
        assert int(cap) == capacity(cover, params), (name, plane)


def test_analyze_seed_changes_payload(cover_path, capsys):
    assert run(["analyze", "--in", str(cover_path), "--seed", "2"]) == 0
    second = capsys.readouterr().out
    assert run(["analyze", "--in", str(cover_path), "--seed", "3"]) == 0
    third = capsys.readouterr().out
    assert second != third


def test_analyze_with_payload_file(cover_path, payload_path, capsys):
    assert run(["analyze", "--in", str(cover_path),
                "--payload", str(payload_path)]) == 0
    assert capsys.readouterr().out
