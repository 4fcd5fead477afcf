"""Cover-versus-stego distortion metrics and plane-count reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image_io import GrayImage
from .number_systems import SchemeKind, WeightScheme, build_weight_table

PEAK = 255


@dataclass(frozen=True)
class DistortionReport:
    """Mean squared error and the PSNR it implies (math.inf when equal)."""

    mse: float
    psnr_db: float


def _check_shapes(a: GrayImage, b: GrayImage) -> None:
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"shape mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def mse(a: GrayImage, b: GrayImage) -> float:
    """Mean squared per-pixel difference."""
    _check_shapes(a, b)
    pa = np.frombuffer(a.pixels, dtype=np.uint8).astype(np.int32)
    pb = np.frombuffer(b.pixels, dtype=np.uint8).astype(np.int32)
    return float(np.mean((pa - pb) ** 2))


def psnr(a: GrayImage, b: GrayImage) -> DistortionReport:
    """Peak signal-to-noise ratio against a 255 peak."""
    err = mse(a, b)
    if err == 0.0:
        return DistortionReport(mse=0.0, psnr_db=math.inf)
    return DistortionReport(mse=err, psnr_db=10.0 * math.log10(PEAK * PEAK / err))


def plane_report(k: int) -> list[tuple[str, int]]:
    """(scheme name, plane count) for all four schemes at bit depth k."""
    return [
        (kind.value, build_weight_table(WeightScheme(kind), k).n)
        for kind in SchemeKind
    ]
