"""Bit-exact binary PGM (P5) reading and writing for 8-bit grayscale."""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

# whitespace and '#' comment lines, then the token; in a bytes pattern \s is
# the six ASCII whitespace bytes, as for bytes.isspace()
_TOKEN = re.compile(rb"(?:\s+|#[^\r\n]*)*(\S*)")


def as_bytes(buf) -> bytes:
    """The bytes of a bytes-like object: every byte of its buffer."""
    # not bytes(buf), which turns an int into that many zero bytes
    return buf if isinstance(buf, bytes) else bytes(memoryview(buf))


class PgmError(ValueError):
    """A PGM that cannot be decoded: a malformed header, a maxval other than
    255, or a raster shorter than width * height."""


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image, pixels row-major.

    Dimensions that are not integers raise TypeError; integer-like ones
    (np.int64) are stored as int.
    """

    width: int
    height: int
    pixels: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "width", operator.index(self.width))
        object.__setattr__(self, "height", operator.index(self.height))
        if self.width < 1 or self.height < 1:
            raise ValueError(f"dimensions must be >= 1, got {self.width}x{self.height}")
        object.__setattr__(self, "pixels", as_bytes(self.pixels))
        if len(self.pixels) != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} pixels, got {len(self.pixels)}"
            )


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token after whitespace and '#' comment lines."""
    match = _TOKEN.match(data, pos)
    if not match[1]:
        raise PgmError("unexpected end of header")
    return match[1], match.end()


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():
        raise PgmError(f"bad {what}: {token!r}")
    try:
        return int(token), pos
    except ValueError:  # more digits than int() converts
        raise PgmError(f"bad {what}: {len(token)}-digit number") from None


def read_pgm(data: bytes) -> GrayImage:
    """Decode a binary PGM from a bytes-like object, as `as_bytes` reads it.

    The header is read liberally (any whitespace, '#' comments); exactly one
    whitespace byte separates the maxval from the raster.
    """
    data = as_bytes(data)
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"bad magic: {magic!r} (expected P5)")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmError(f"bad dimensions: {width}x{height}")
    if maxval != 255:
        raise PgmError(f"maxval {maxval} unsupported (only 255)")
    if not data[pos : pos + 1].isspace():
        raise PgmError("missing whitespace before raster")
    pos += 1
    count = width * height
    pixels = data[pos : pos + count]
    if len(pixels) < count:
        raise PgmError(f"raster holds {len(pixels)} bytes, need {count}")
    return GrayImage(width=width, height=height, pixels=pixels)


def write_pgm(image: GrayImage) -> bytes:
    """Encode as canonical binary PGM: P5 header, maxval 255, raw raster."""
    return b"P5\n%d %d\n255\n" % (image.width, image.height) + image.pixels
