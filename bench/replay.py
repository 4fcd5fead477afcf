"""Traced replays of planestego's commands, one public call per span.

    python3 bench/replay.py '<json spec>'

runs one command in a fresh process, so every cache starts cold exactly as
it does for the CLI, and prints one JSON line: the spans, the counts and
what the checks need. A replay makes the CLI's calls in the CLI's order,
with two deliberate moves: the first `capacity()` on a 1x1 image builds
the (scheme, plane) lookup table that `embed` would otherwise build
inside itself, and the cold `pixel_order` call is made before `embed`,
which then finds the order cached. planestego must be importable, which
run.py arranges through PYTHONPATH.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import numpy as np

from inputs import SCHEME_NAMES, check_stego
from spans import NullTracer, Tracer

IMAGE_DEPTH = 8
ANALYZE_SEED = 1  # the CLI's default `analyze --seed`
ANALYZE_PAYLOAD_BYTES = 1024


def _import(tracer):
    with tracer.span("import"):
        import planestego
    return planestego


def _scheme(ps, tracer, name: str):
    """What the CLI's argument handling costs: the scheme's weight table
    and canonical map, cached inside the library by `table_for`."""
    scheme = ps.WeightScheme(ps.SchemeKind(name))
    with tracer.span("stego_engine.table_for"):
        n = ps.table_for(scheme).n
    if tracer.on:
        with tracer.span("number_systems.build_weight_table", shadow=True):
            table = ps.build_weight_table(scheme, IMAGE_DEPTH)
        with tracer.span("plane_codec.build_map", shadow=True):
            ps.build_map(table)
    return scheme, n


def _plane_lut(ps, tracer, params) -> None:
    with tracer.span("stego_engine.plane_lut_cold"):
        ps.capacity(ps.GrayImage(1, 1, b"\0"), params)


def _read(ps, tracer, path: str):
    data = Path(path).read_bytes()
    with tracer.span("image_io.read_pgm"):
        return ps.read_pgm(data), data


def _cold_order(ps, tracer, image, key, name="stego_engine.pixel_order_cold"):
    with tracer.span(name):
        order = ps.pixel_order(image.width, image.height, key)
    if tracer.on:
        with tracer.span("stego_engine.pixel_order_warm", shadow=True):
            ps.pixel_order(image.width, image.height, key)
    return order.nbytes


def _embed(ps, tracer, image, payload, params):
    with tracer.span("stego_engine.embed"):
        stego, report = ps.embed(image, payload, params)
    if tracer.on:
        with tracer.span("metrics.psnr", shadow=True):
            ps.psnr(image, stego)
    return stego, report


def _pixels(image) -> np.ndarray:
    return np.frombuffer(image.pixels, dtype=np.uint8)


def report_fields(report) -> list[int]:
    return [report.bits_embedded, report.pixels_visited, report.pixels_skipped]


def replay_embed(tracer, spec: dict) -> dict:
    with tracer.span("replay.embed"):
        ps = _import(tracer)
        scheme, _ = _scheme(ps, tracer, spec["scheme"])
        params = ps.StegoParams(scheme, spec["plane"], spec["key"].encode())
        cover, read = _read(ps, tracer, spec["cover"])
        payload = Path(spec["payload"]).read_bytes()
        _plane_lut(ps, tracer, params)
        order_bytes = _cold_order(ps, tracer, cover, params.key)
        with tracer.span("stego_engine.capacity", shadow=True):
            ps.capacity(cover, params)
        stego, report = _embed(ps, tracer, cover, payload, params)
        with tracer.span("image_io.write_pgm"):
            data = ps.write_pgm(stego)
        Path(spec["out"]).write_bytes(data)
    return {
        "report": report_fields(report),
        "plane_luts_built": 1,
        "order_bytes": order_bytes,
        "image_io_bytes": len(read) + len(data),
    }


def replay_extract(tracer, spec: dict) -> dict:
    with tracer.span("replay.extract"):
        ps = _import(tracer)
        scheme, _ = _scheme(ps, tracer, spec["scheme"])
        params = ps.StegoParams(scheme, spec["plane"], spec["key"].encode())
        stego, read = _read(ps, tracer, spec["stego"])
        _plane_lut(ps, tracer, params)
        order_bytes = _cold_order(ps, tracer, stego, params.key)
        with tracer.span("stego_engine.capacity", shadow=True):
            ps.capacity(stego, params)
        with tracer.span("stego_engine.extract"):
            payload = ps.extract(stego, params)
        Path(spec["out"]).write_bytes(payload)
    return {"plane_luts_built": 1, "order_bytes": order_bytes, "image_io_bytes": len(read)}


def replay_analyze(tracer, spec: dict) -> dict:
    """`analyze --key K`; each embedding is also checked, in shadow spans:
    the payload must extract back and the distortion stay in bounds."""
    rows, failures = [], []
    counts = dict.fromkeys(("bits", "visited", "skipped", "changed"), 0)
    with tracer.span("replay.analyze"):
        ps = _import(tracer)
        cover, read = _read(ps, tracer, spec["cover"])
        with tracer.span("image_io.write_pgm", shadow=True):
            if ps.write_pgm(cover) != read:
                failures.append("write_pgm(read_pgm(cover)) != cover")
        payload = random.Random(ANALYZE_SEED).randbytes(ANALYZE_PAYLOAD_BYTES)
        key = spec["key"].encode()
        order_bytes = _cold_order(ps, tracer, cover, key)
        cover_px = _pixels(cover).reshape(cover.height, cover.width)
        luts = 0
        for name in SCHEME_NAMES:
            scheme, n = _scheme(ps, tracer, name)
            for plane in range(n):
                params = ps.StegoParams(scheme, plane, key)
                _plane_lut(ps, tracer, params)
                luts += 1
                with tracer.span("stego_engine.capacity"):
                    cap = ps.capacity(cover, params)
                bits = 0
                if cap >= 32:
                    fit = payload[: (cap - 32) // 8]
                    stego, report = _embed(ps, tracer, cover, fit, params)
                    bits = report.bits_embedded
                    with tracer.span("stego_engine.extract", shadow=True):
                        back = ps.extract(stego, params)
                    with tracer.span("bench.check", shadow=True):
                        found, changed = check_stego(
                            cover_px, _pixels(stego).reshape(cover_px.shape), name, plane, bits
                        )
                    if back != fit:
                        found.append("extracted bytes differ from the payload")
                    failures += [f"{name} plane {plane}: {f}" for f in found]
                    counts["bits"] += bits
                    counts["visited"] += report.pixels_visited
                    counts["skipped"] += report.pixels_skipped
                    counts["changed"] += changed
                rows.append([name, plane, cap, bits])
    return {
        "rows": rows,
        "failures": failures,
        "report": [counts["bits"], counts["visited"], counts["skipped"]],
        "pixels_changed": counts["changed"],
        "plane_luts_built": luts,
        "order_bytes": order_bytes,
        "image_io_bytes": len(read),
    }


def fill_caches(tracer, cover_bytes: bytes, key: bytes, planes) -> tuple:
    """A long-lived caller's set-up: import, parse the cover, then build the
    weight tables, the given (scheme, plane) lookup tables and both orders.

    Returns (planestego module, cover image, counts).
    """
    ps = _import(tracer)
    with tracer.span("image_io.read_pgm"):
        image = ps.read_pgm(cover_bytes)
    if tracer.on:
        with tracer.span("image_io.write_pgm", shadow=True):
            if ps.write_pgm(image) != cover_bytes:
                raise ValueError("write_pgm(read_pgm(cover)) != cover")
    schemes = {name: _scheme(ps, tracer, name)[0] for name in dict.fromkeys(n for n, _ in planes)}
    for name, plane in planes:
        _plane_lut(ps, tracer, ps.StegoParams(schemes[name], plane))
    order_bytes = _cold_order(ps, tracer, image, key)
    order_bytes += _cold_order(
        ps, tracer, image, None, name="stego_engine.pixel_order_unkeyed_cold"
    )
    counts = {
        "plane_luts_built": len(planes),
        "order_bytes": order_bytes,
        "image_io_bytes": len(cover_bytes),
    }
    return ps, image, counts


def _fill_sample(spec: dict) -> dict:
    """One untraced set-up, timed from just before `import planestego`."""
    cover_bytes = Path(spec["cover"]).read_bytes()
    start = time.perf_counter()
    fill_caches(NullTracer(), cover_bytes, spec["key"].encode(), spec["planes"])
    return {"setup_s": time.perf_counter() - start}


REPLAYS = {"embed": replay_embed, "extract": replay_extract, "analyze": replay_analyze}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    if spec["cmd"] == "fill":
        print(json.dumps(_fill_sample(spec)))
        return 0
    tracer = Tracer()
    counts = REPLAYS[spec["cmd"]](tracer, spec)
    print(json.dumps({"spans": tracer.spans, "counts": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
