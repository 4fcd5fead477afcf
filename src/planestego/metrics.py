"""Cover-versus-stego distortion metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image_io import GrayImage

PEAK = 255


@dataclass(frozen=True)
class DistortionReport:
    """Mean squared error, and the PSNR it implies (math.inf when equal).

    The one PSNR formula: `psnr` and `embed` both report through it.
    """

    mse: float

    @property
    def psnr_db(self) -> float:
        if self.mse == 0.0:
            return math.inf
        return 10.0 * math.log10(PEAK * PEAK / self.mse)


# Elements per block of squared_error, whose int64 differences take 512 KiB
_SSE_BLOCK = 1 << 16


def squared_error(a: np.ndarray, b: np.ndarray) -> int:
    """Exact sum of squared differences of two equal-size 1-D uint8 arrays."""
    total = 0
    for lo in range(0, a.size, _SSE_BLOCK):
        d = a[lo : lo + _SSE_BLOCK].astype(np.int64)
        d -= b[lo : lo + _SSE_BLOCK]
        total += int(np.dot(d, d))
    return total


def psnr(a: GrayImage, b: GrayImage) -> DistortionReport:
    """Peak signal-to-noise ratio against a 255 peak."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"shape mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    pa = np.frombuffer(a.pixels, dtype=np.uint8)
    pb = np.frombuffer(b.pixels, dtype=np.uint8)
    # the sum is an exact integer, so the MSE is its correctly rounded quotient
    return DistortionReport(squared_error(pa, pb) / pa.size)

