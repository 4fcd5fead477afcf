"""The three workloads. Each runs in its own benchmark process, one op at a
time (a closed loop), and checks every output against the oracle in
inputs.py. CLI calls are subprocesses run one after another from this one
process, never in parallel.

A workload fills `run.samples` (end-to-end timings, untraced) or, when
tracing, `run.tracer`, `run.unaccounted` and `run.counts`.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

import numpy as np

from inputs import (
    HEADER_BITS,
    PLANE_COUNT,
    SCHEME_NAMES,
    SCHEMES,
    capacity_bits,
    check_stego,
    decode_pgm,
    encode_pgm,
    full_payload_bytes,
    histogram,
    make_cover,
)
from replay import ANALYZE_PAYLOAD_BYTES, fill_caches, report_fields
from spans import program_time

EXPECTED_PLANES = [[name, str(n)] for name, n in PLANE_COUNT.items()]
SMALL_PAYLOAD_BYTES = 1024
# Set-ups per run; setup_s is their median. A CLI set-up is ~0.25 s of
# interpreter start, a library one ~3.5 s, mostly the cold keyed order.
CLI_SETUP_SAMPLES = 7
LIB_SETUP_SAMPLES = 3


def _exit_ok(proc, what: str) -> list[str]:
    if proc.returncode == 0:
        return []
    return [f"{what} exited {proc.returncode}: {proc.stderr.strip()[-200:]}"]


def _cli_setup(run) -> None:
    """Set-up of the CLI workloads: `planes`, run several times."""
    for _ in range(CLI_SETUP_SAMPLES):
        with run.tracer.span("cli.start"):
            seconds, proc = run.cli("planes")
        failures = _exit_ok(proc, "planes")
        rows = [line.split() for line in proc.stdout.splitlines()[1:]]
        if not failures and rows != EXPECTED_PLANES:
            failures.append(f"planes printed {proc.stdout!r}")
        run.record(failures)
        if not failures:
            run.samples["setup_s"].append(seconds)


def _embed_report(stdout: str) -> list[int]:
    fields = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    return [int(fields[k]) for k in ("bits_embedded", "pixels_visited", "pixels_skipped")]


def _check_embedding(cover, stego_path: Path, scheme, plane, payload, report):
    """Report arithmetic and distortion of one embedding; (failures, changed)."""
    bits, visited, skipped = report
    failures = []
    if bits != HEADER_BITS + 8 * len(payload):
        failures.append(f"bits_embedded {bits} for a {len(payload)}-byte payload")
    if visited - skipped != bits:
        failures.append(f"visited {visited} - skipped {skipped} != bits {bits}")
    try:
        stego = decode_pgm(stego_path.read_bytes())
    except (OSError, ValueError) as exc:
        return failures + [f"stego unreadable: {exc}"], 0
    found, changed = check_stego(cover, stego, scheme, plane, bits)
    return failures + found, changed


def _check_extracted(path: Path, payload: bytes) -> list[str]:
    try:
        ok = path.read_bytes() == payload
    except OSError:
        ok = False
    return [] if ok else [f"{path.name} does not hold the payload"]


def _op_counts(report, changed: int) -> dict:
    bits, visited, skipped = report
    return {"bits": bits, "visited": visited, "skipped": skipped, "changed": changed}


def cli_keyed(run) -> None:
    """`embed --key K` then `extract --key K` per op, a fresh key each op,
    the four schemes in turn at plane 0 with a full-capacity payload."""
    side = run.size or 2048
    cover = make_cover(np.random.default_rng(run.seed), side, side)
    hist = histogram(cover)
    cover_path = run.work / "cover.pgm"
    cover_path.write_bytes(encode_pgm(cover))
    payload_path = run.work / "payload.bin"
    stego_path, back_path = run.work / "stego.pgm", run.work / "back.bin"
    _cli_setup(run)
    for k in run.ops():
        scheme = SCHEME_NAMES[k % len(SCHEME_NAMES)]
        rng = np.random.default_rng([run.seed, k])
        key = rng.bytes(8).hex()
        payload = rng.bytes(full_payload_bytes(capacity_bits(hist, scheme, 0)))
        payload_path.write_bytes(payload)
        args = ["--scheme", scheme, "--plane", "0", "--key", key]
        failures = []
        for path in (stego_path, back_path):
            path.unlink(missing_ok=True)
        t_embed, proc = run.cli(
            "embed", *args, "--in", cover_path, "--payload", payload_path, "--out", stego_path
        )
        failures += _exit_ok(proc, "embed")
        if not failures:
            found, _ = _check_embedding(
                cover, stego_path, scheme, 0, payload, _embed_report(proc.stdout)
            )
            failures += found
        t_extract, proc = run.cli("extract", *args, "--in", stego_path, "--out", back_path)
        failures += _exit_ok(proc, "extract") or _check_extracted(back_path, payload)
        if not failures:
            run.samples["embed_cli_s"].append(t_embed)
            run.samples["extract_cli_s"].append(t_extract)
            run.samples["op_s"].append(t_embed + t_extract)
        if run.tracer.on:
            spec = {"scheme": scheme, "plane": 0, "key": key}
            for path in (stego_path, back_path):
                path.unlink(missing_ok=True)
            run.tracer.op = k
            emb = run.replay(
                dict(spec, cmd="embed", cover=cover_path, payload=payload_path, out=stego_path)
            )
            ext = run.replay(dict(spec, cmd="extract", stego=stego_path, out=back_path))
            found, changed = _check_embedding(
                cover, stego_path, scheme, 0, payload, emb["report"]
            )
            failures += found + _check_extracted(back_path, payload)
            run.unaccounted.append(t_embed + t_extract - program_time(run.tracer.spans, k))
            if k == 0:
                run.counts = _op_counts(emb["report"], changed)
                for name in ("plane_luts_built", "order_bytes", "image_io_bytes"):
                    run.counts[name] = emb[name] + ext[name]
        run.record(failures)


def _analyze_expected(hist: np.ndarray) -> list[list]:
    rows = []
    for name in SCHEME_NAMES:
        for plane in range(PLANE_COUNT[name]):
            cap = capacity_bits(hist, name, plane)
            fit = min(ANALYZE_PAYLOAD_BYTES, full_payload_bytes(cap))
            rows.append([name, plane, cap, HEADER_BITS + 8 * fit if cap >= HEADER_BITS else 0])
    return rows


def _check_analyze(stdout: str, expected: list[list], pixels: int) -> list[str]:
    """Every row's capacity and bits must match the oracle, and its PSNR the
    distortion bound: MSE <= bits * weight^2 / pixels."""
    failures = []
    lines = [line.split() for line in stdout.splitlines()[1:]]
    got = [[f[0], int(f[1]), int(f[2]), int(f[3])] for f in lines if len(f) == 5]
    if len(got) != len(lines) or got != expected:
        return [f"analyze table differs from the oracle ({len(got)} rows)"]
    for (name, plane, _, bits), fields in zip(expected, lines):
        if bits == 0:
            if fields[4] != "n/a":
                failures.append(f"{name} plane {plane}: psnr {fields[4]} for no payload")
            continue
        mse = 255.0**2 / 10 ** (float(fields[4]) / 10)
        bound = bits * SCHEMES[name][0][plane] ** 2 / pixels
        if mse > bound * (1 + 1e-3):
            failures.append(f"{name} plane {plane}: MSE {mse:.4g} above bound {bound:.4g}")
    return failures


def cli_analyze(run) -> None:
    """One `analyze --key K` per op on a small cover, a fresh key each op."""
    side = run.size or 512
    cover = make_cover(np.random.default_rng(run.seed), side, side)
    expected = _analyze_expected(histogram(cover))
    cover_path = run.work / "cover.pgm"
    cover_path.write_bytes(encode_pgm(cover))
    _cli_setup(run)
    for k in run.ops():
        key = np.random.default_rng([run.seed, k]).bytes(8).hex()
        seconds, proc = run.cli("analyze", "--in", cover_path, "--key", key)
        failures = _exit_ok(proc, "analyze") or _check_analyze(proc.stdout, expected, cover.size)
        if not failures:
            run.samples["analyze_cli_s"].append(seconds)
            run.samples["op_s"].append(seconds)
        if run.tracer.on:
            run.tracer.op = k
            out = run.replay({"cmd": "analyze", "cover": cover_path, "key": key})
            if [row[:4] for row in out["rows"]] != expected:
                failures.append("replayed analyze differs from the oracle")
            failures += out["failures"]
            run.unaccounted.append(seconds - program_time(run.tracer.spans, k))
            if k == 0:
                run.counts = _op_counts(out["report"], out["pixels_changed"])
                for name in ("plane_luts_built", "order_bytes", "image_io_bytes"):
                    run.counts[name] = out[name]
        run.record(failures)


def _lib_combos(run, hist: np.ndarray) -> list[tuple]:
    """4 schemes x planes {0, 1, n-1} x {unkeyed, keyed} x {1 KiB, full}.

    The 1 KiB payload is clamped to capacity, as `analyze` clamps its own.
    """
    combos = []
    for name in SCHEME_NAMES:
        for plane in sorted({0, 1, PLANE_COUNT[name] - 1}):
            full = full_payload_bytes(capacity_bits(hist, name, plane))
            for keyed in (False, True):
                for size in (min(SMALL_PAYLOAD_BYTES, full), full):
                    rng = np.random.default_rng([run.seed, len(combos)])
                    combos.append((name, plane, keyed, rng.bytes(size)))
    return combos


def _traced_roundtrip(ps, image, payload, params, tracer):
    with tracer.span("op"):
        with tracer.span("stego_engine.pixel_order_warm", shadow=True):
            ps.pixel_order(image.width, image.height, params.key)
        with tracer.span("stego_engine.capacity", shadow=True):
            ps.capacity(image, params)
        with tracer.span("stego_engine.embed"):
            stego, report = ps.embed(image, payload, params)
        with tracer.span("metrics.psnr", shadow=True):
            ps.psnr(image, stego)
        with tracer.span("stego_engine.extract"):
            back = ps.extract(stego, params)
    return stego, report, back


def _check_lib(cover, name, plane, payload, stego, report, back):
    bits = report.bits_embedded
    failures = []
    if back != payload:
        failures.append("extracted bytes differ from the payload")
    if bits != HEADER_BITS + 8 * len(payload):
        failures.append(f"bits_embedded {bits} for a {len(payload)}-byte payload")
    if report.pixels_visited - report.pixels_skipped != bits:
        failures.append("pixels_visited - pixels_skipped != bits_embedded")
    stego_px = np.frombuffer(stego.pixels, dtype=np.uint8).reshape(cover.shape)
    found, changed = check_stego(cover, stego_px, name, plane, bits)
    return failures + found, changed


def lib_warm(run) -> None:
    """embed -> extract -> compare in-process, caches filled before timing."""
    side = run.size or 2048
    rng = np.random.default_rng(run.seed)
    cover = make_cover(rng, side, side)
    key = rng.bytes(8).hex()
    cover_bytes = encode_pgm(cover)
    combos = _lib_combos(run, histogram(cover))
    planes = sorted({(name, plane) for name, plane, _, _ in combos})
    if run.tracer.on:
        _cli_setup(run)  # only for the cli.start_s layer metric
    else:
        cover_path = run.work / "cover.pgm"
        cover_path.write_bytes(cover_bytes)
        for _ in range(LIB_SETUP_SAMPLES - 1):
            out = run.replay({"cmd": "fill", "cover": cover_path, "key": key, "planes": planes})
            run.samples["setup_s"].append(out["setup_s"])
    run.tracer.op = "setup"
    start = time.perf_counter()
    ps, image, setup_counts = fill_caches(run.tracer, cover_bytes, key.encode(), planes)
    run.samples["setup_s"].append(time.perf_counter() - start)
    params = [
        ps.StegoParams(ps.WeightScheme(ps.SchemeKind(name)), plane, key.encode() if keyed else None)
        for name, plane, keyed, _ in combos
    ]
    for cycle in run.ops():  # whole cycles, so every run times the same mix
        totals = Counter()
        for j, (name, plane, _, payload) in enumerate(combos):
            op = cycle * len(combos) + j
            failures = []
            try:
                t0 = time.perf_counter()
                stego, report = ps.embed(image, payload, params[j])
                t1 = time.perf_counter()
                back = ps.extract(stego, params[j])
                t2 = time.perf_counter()
                failures += _check_lib(cover, name, plane, payload, stego, report, back)[0]
                if not failures:
                    run.samples["embed_ms"].append((t1 - t0) * 1e3)
                    run.samples["extract_ms"].append((t2 - t1) * 1e3)
                    run.samples["op_s"].append(t2 - t0)
                if run.tracer.on:
                    run.tracer.op = op
                    stego, report, back = _traced_roundtrip(ps, image, payload, params[j], run.tracer)
                    found, changed = _check_lib(cover, name, plane, payload, stego, report, back)
                    failures += found
                    run.unaccounted.append(t2 - t0 - program_time(run.tracer.spans, op))
                    totals.update(_op_counts(report_fields(report), changed))
            except Exception as exc:  # a failed op is counted, never dropped
                failures.append(f"{type(exc).__name__}: {exc}")
            run.record(failures)
        if run.tracer.on and cycle == 0:
            run.counts = dict(totals, **setup_counts)


WORKLOADS = {
    "cli-keyed-2048": cli_keyed,
    "lib-warm-2048": lib_warm,
    "cli-analyze-512": cli_analyze,
}
