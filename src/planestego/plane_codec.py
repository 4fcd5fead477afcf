"""Canonical value-to-digit-string mapping and virtual bit-plane access.

A BitplaneMap holds the canonical digit string of every k-bit value as one
matrix. A plane digit of a pixel may carry hidden data only when both
settings of that digit are canonical strings; since the test depends on
pixel values alone, an extractor recomputes the same skip decisions as the
embedder without side information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image_io import GrayImage
from .number_systems import WeightTable, greedy_digits


@dataclass(frozen=True, eq=False)
class BitplaneMap:
    """Canonical mapping for one weight table.

    digits[v, i] is digit i of the canonical string of v; the (2^k, n)
    uint8 matrix is read-only.
    """

    table: WeightTable
    digits: np.ndarray


def build_map(table: WeightTable) -> BitplaneMap:
    """Canonical digit strings of every value of the table's domain."""
    digits, leftover = greedy_digits(table.scheme, table.weights, table.max_value)
    if leftover.any():  # unreachable for tables built by build_weight_table
        raise ValueError(f"weights do not cover [0, {table.max_value}]")
    digits.flags.writeable = False
    return BitplaneMap(table=table, digits=digits)


def _check_plane(bitmap: BitplaneMap, plane: int) -> None:
    if not 0 <= plane < bitmap.table.n:
        raise ValueError(f"plane {plane} out of range [0, {bitmap.table.n - 1}]")


def extract_plane(image: GrayImage, bitmap: BitplaneMap, plane: int) -> np.ndarray:
    """height x width matrix of the plane's digit across all pixels."""
    _check_plane(bitmap, plane)
    px = np.frombuffer(image.pixels, dtype=np.uint8)
    if px.max(initial=0) > bitmap.table.max_value:
        raise ValueError(f"image exceeds table depth k={bitmap.table.k}")
    return bitmap.digits[px, plane].reshape(image.height, image.width)


def plane_luts(
    bitmap: BitplaneMap, plane: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only per-value arrays for one plane: emb, digit and embed_to.

    A string is canonical exactly when it is the canonical string of its own
    sum, so the plane digit of v is embeddable (emb[v]) iff its partner
    v' = v -/+ w (minus when the digit is set) is in range and digits[v'] is
    digits[v] with that one digit flipped. embed_to[bit, v] is the value
    holding that bit: v itself or its partner, so it moves by at most w.
    Non-embeddable values map to themselves.
    """
    _check_plane(bitmap, plane)
    digits = bitmap.digits
    values = np.arange(digits.shape[0])
    digit = digits[:, plane]
    partner = values + np.where(digit, -1, 1) * bitmap.table.weights[plane]
    partner = np.where((partner >= 0) & (partner < values.size), partner, values)
    flips = digits[partner] != digits
    emb = flips[:, plane] & (np.count_nonzero(flips, axis=1) == 1)
    embed_to = np.where(emb & (digit != np.arange(2)[:, None]), partner, values)
    embed_to = embed_to.astype(np.min_scalar_type(bitmap.table.max_value))
    for arr in (emb, digit, embed_to):
        arr.flags.writeable = False
    return emb, digit, embed_to
