"""Command-line interface: embed, extract, capacity, planes, analyze.

Exit codes: 0 success, 1 usage error, 2 I/O or image format error,
3 capacity error.
"""

from __future__ import annotations

import argparse
import gc
import os
import random
import sys
from pathlib import Path
from typing import Sequence

# numpy's bundled OpenBLAS starts one worker thread per further CPU when
# numpy loads, and they spin for a while before they sleep: CPU time taken
# from the keyed order's second thread, though planestego calls no BLAS
# routine. Set before numpy loads, which the lazy package import allows; a
# value the caller set wins, and a program that imports the library keeps
# its own setting.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .image_io import GrayImage, PgmError, read_pgm, write_pgm
from .number_systems import SchemeKind, WeightScheme
from .stego_engine import (
    HEADER_BITS,
    CapacityError,
    StegoParams,
    capacity,
    embed,
    extract,
    plane_luts,
    table_for,
)

DEFAULT_ANALYZE_SEED = 1
DEFAULT_ANALYZE_PAYLOAD_BYTES = 1024


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's 2
        raise UsageError(message)


def _scheme_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheme",
        required=True,
        choices=[kind.value for kind in SchemeKind],
        help="weight scheme for the virtual bit planes",
    )
    parser.add_argument(
        "--p", type=int, default=1, help="Fibonacci order (default 1)"
    )
    parser.add_argument(
        "--plane", type=int, default=0, help="target plane index (default 0)"
    )
    _key_arg(parser)


def _key_arg(parser: argparse.ArgumentParser) -> None:
    # the bytes the command line held, whatever their encoding; a key that
    # does not encode is a usage error
    parser.add_argument(
        "--key", type=os.fsencode, help="stego-key controlling pixel traversal order"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="planestego", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed", help="hide a payload file in a cover image")
    _scheme_args(p_embed)
    p_embed.add_argument("--in", dest="input_path", required=True, help="cover PGM")
    p_embed.add_argument(
        "--payload", dest="payload_path", required=True, help="payload file"
    )
    p_embed.add_argument("--out", dest="output_path", required=True, help="stego PGM")
    p_embed.set_defaults(func=_cmd_embed)

    p_extract = sub.add_parser("extract", help="recover a payload from a stego image")
    _scheme_args(p_extract)
    p_extract.add_argument("--in", dest="input_path", required=True, help="stego PGM")
    p_extract.add_argument(
        "--out", dest="output_path", required=True, help="recovered payload file"
    )
    p_extract.set_defaults(func=_cmd_extract)

    p_capacity = sub.add_parser("capacity", help="count embeddable bits in an image")
    _scheme_args(p_capacity)
    p_capacity.add_argument("--in", dest="input_path", required=True, help="cover PGM")
    p_capacity.set_defaults(func=_cmd_capacity)

    p_planes = sub.add_parser(
        "planes", help="plane counts of all schemes at 8-bit depth"
    )
    p_planes.set_defaults(func=_cmd_planes)

    p_analyze = sub.add_parser(
        "analyze", help="capacity and PSNR for every scheme and plane"
    )
    p_analyze.add_argument("--in", dest="input_path", required=True, help="cover PGM")
    p_analyze.add_argument(
        "--payload",
        dest="payload_path",
        help="payload file (default: pseudorandom bytes from --seed)",
    )
    p_analyze.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_ANALYZE_SEED,
        help=f"seed for the default payload (default {DEFAULT_ANALYZE_SEED})",
    )
    _key_arg(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    return parser


def _params_from(args: argparse.Namespace) -> StegoParams:
    try:
        scheme = WeightScheme(SchemeKind(args.scheme), p=args.p)
        return StegoParams(scheme=scheme, plane=args.plane, key=args.key)
    except ValueError as exc:  # a bad --p or --plane
        raise UsageError(str(exc)) from None


def _read_image(path: str) -> GrayImage:
    return read_pgm(Path(path).read_bytes())


def _cmd_embed(args: argparse.Namespace) -> int:
    params = _params_from(args)
    cover = _read_image(args.input_path)
    payload = Path(args.payload_path).read_bytes()
    stego, report = embed(cover, payload, params)
    Path(args.output_path).write_bytes(write_pgm(stego))
    print(f"bits_embedded={report.bits_embedded}")
    print(f"pixels_visited={report.pixels_visited}")
    print(f"pixels_skipped={report.pixels_skipped}")
    print(f"psnr_db={report.psnr_db:.4f}")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    params = _params_from(args)
    stego = _read_image(args.input_path)
    payload = extract(stego, params)
    Path(args.output_path).write_bytes(payload)
    print(f"bytes_extracted={len(payload)}")
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    params = _params_from(args)
    image = _read_image(args.input_path)
    print(f"capacity_bits={capacity(image, params)}")
    return 0


def _cmd_planes(args: argparse.Namespace) -> int:
    rows = [(kind.value, table_for(WeightScheme(kind)).n) for kind in SchemeKind]
    width = max(len(name) for name, _ in rows)
    print(f"{'scheme':<{width}}  planes")
    for name, n in rows:
        print(f"{name:<{width}}  {n:>6}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    cover = _read_image(args.input_path)
    if args.payload_path is not None:
        payload = Path(args.payload_path).read_bytes()
    else:
        payload = random.Random(args.seed).randbytes(DEFAULT_ANALYZE_PAYLOAD_BYTES)

    # capacity(cover, params) for every plane, from one pass over the pixels
    hist = np.bincount(np.frombuffer(cover.pixels, dtype=np.uint8), minlength=256)

    print(f"{'scheme':<10}  {'plane':>5}  {'capacity_bits':>13}  "
          f"{'bits_embedded':>13}  {'psnr_db':>8}")
    for kind in SchemeKind:
        scheme = WeightScheme(kind)
        for plane in range(table_for(scheme).n):
            params = StegoParams(scheme=scheme, plane=plane, key=args.key)
            cap = int(hist[plane_luts(scheme, plane)[0]].sum())
            if cap >= HEADER_BITS:
                fit = payload[: (cap - HEADER_BITS) // 8]
                _, report = embed(cover, fit, params)
                bits, db = report.bits_embedded, f"{report.psnr_db:.4f}"
            else:
                bits, db = 0, "n/a"
            print(f"{kind.value:<10}  {plane:>5}  {cap:>13}  {bits:>13}  {db:>8}")
    return 0


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PgmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    code = run()
    # The interpreter's final collection would traverse every object still
    # alive, most of them made by numpy's import: about 8 ms per call.
    # Frozen objects are skipped, and unlike os._exit, sys.exit still runs
    # atexit handlers and flushes stdout and stderr.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
