"""Seeded inputs and an independent output oracle for the benchmark.

Nothing here imports planestego: the covers, the PGM encoding and the
capacity / distortion checks are written from the format and the paper's
definitions, so a defect in the program cannot hide in its own checker.
"""

from __future__ import annotations

import numpy as np

# Weight sequences at 8-bit depth, least significant plane first, and the
# minimum index distance between set digits (Fibonacci forbids neighbours).
SCHEMES = {
    "binary": ((1, 2, 4, 8, 16, 32, 64, 128), 1),
    "fibonacci": ((1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233), 2),
    "prime": ((1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43), 1),
    "natural": (tuple(range(1, 24)), 1),
}
SCHEME_NAMES = tuple(SCHEMES)
PLANE_COUNT = {name: len(weights) for name, (weights, _) in SCHEMES.items()}

HEADER_BITS = 32
KNOTS = 17  # control values per side of a cover's smooth field


def make_cover(rng: np.random.Generator, width: int, height: int) -> np.ndarray:
    """A smooth 2-D field plus Gaussian noise, as a (height, width) uint8 array.

    The field is a bilinearly upsampled KNOTS x KNOTS grid of Gaussian
    control values, so its histogram is broad and lumpy like a photograph's;
    skip rates depend on that histogram, which uniform noise would flatten.
    """
    grid = rng.normal(128.0, 64.0, size=(KNOTS, KNOTS))
    rows = _interp_matrix(height, KNOTS)
    cols = _interp_matrix(width, KNOTS)
    field = rows @ grid @ cols.T
    field += rng.normal(0.0, 4.0, size=field.shape)
    return np.clip(np.rint(field), 0, 255).astype(np.uint8)


def _interp_matrix(size: int, knots: int) -> np.ndarray:
    """(size, knots) matrix of linear interpolation weights."""
    pos = np.linspace(0.0, knots - 1.0, size)
    left = np.minimum(pos.astype(np.int64), knots - 2)
    frac = pos - left
    out = np.zeros((size, knots))
    out[np.arange(size), left] = 1.0 - frac
    out[np.arange(size), left + 1] = frac
    return out


def encode_pgm(pixels: np.ndarray) -> bytes:
    height, width = pixels.shape
    return b"P5\n%d %d\n255\n" % (width, height) + pixels.tobytes()


def decode_pgm(data: bytes) -> np.ndarray:
    """Parse the canonical P5 header planestego writes; raise ValueError otherwise."""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError("not a canonical P5 maxval-255 PGM")
    width, height = (int(x) for x in parts[1].split())
    raster = parts[3]
    if len(raster) != width * height:
        raise ValueError(f"raster holds {len(raster)} bytes, need {width * height}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def _canonical_digits(weights: tuple[int, ...], gap: int) -> np.ndarray:
    """(256, n) greedy largest-first digit strings, gap rule applied."""
    n = len(weights)
    digits = np.zeros((256, n), dtype=np.uint8)
    for v in range(256):
        remaining, allowed = v, n - 1
        for i in range(n - 1, -1, -1):
            if i <= allowed and weights[i] <= remaining:
                digits[v, i] = 1
                remaining -= weights[i]
                allowed = i - gap
        if remaining:
            raise ValueError(f"{v} has no representation over {weights}")
    return digits


def embeddable_values(scheme: str, plane: int) -> np.ndarray:
    """bool[256]: v can carry a bit at the plane, i.e. flipping its digit
    there gives the canonical string of the flipped value."""
    weights, gap = SCHEMES[scheme]
    digits = _canonical_digits(weights, gap)
    out = np.zeros(256, dtype=bool)
    w = weights[plane]
    for v in range(256):
        flipped = v - w if digits[v, plane] else v + w
        if 0 <= flipped <= 255:
            expect = digits[v].copy()
            expect[plane] ^= 1
            out[v] = np.array_equal(digits[flipped], expect)
    return out


def capacity_bits(histogram: np.ndarray, scheme: str, plane: int) -> int:
    """Embeddable pixels of a cover given its 256-bin value histogram."""
    return int(histogram[embeddable_values(scheme, plane)].sum())


def histogram(pixels: np.ndarray) -> np.ndarray:
    return np.bincount(pixels.ravel(), minlength=256)


def full_payload_bytes(capacity: int) -> int:
    """Largest payload whose framed bitstream fits the capacity."""
    return max(0, (capacity - HEADER_BITS) // 8)


def check_stego(
    cover: np.ndarray, stego: np.ndarray, scheme: str, plane: int, bits: int
) -> tuple[list[str], int]:
    """Distortion checks on one embedding; returns (failures, pixels changed)."""
    if stego.shape != cover.shape:
        return [f"stego shape {stego.shape} != cover shape {cover.shape}"], 0
    delta = np.abs(stego.astype(np.int16) - cover.astype(np.int16))
    changed = int(np.count_nonzero(delta))
    failures = []
    limit = SCHEMES[scheme][0][plane]
    if changed and int(delta.max()) > limit:
        failures.append(f"max |delta| {int(delta.max())} > weight {limit}")
    if changed > bits:
        failures.append(f"{changed} pixels changed for {bits} bits embedded")
    return failures, changed
