"""Bit-exact binary PGM (P5) reading and writing for 8-bit grayscale."""

from __future__ import annotations

from dataclasses import dataclass

_WHITESPACE = b" \t\n\r\v\f"


class PgmError(ValueError):
    """Base class for PGM decoding failures."""


class PgmFormatError(PgmError):
    """Malformed magic or header."""


class UnsupportedDepthError(PgmError):
    """maxval other than 255."""


class TruncatedPgmError(PgmError):
    """Fewer raster bytes than width * height."""


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image, pixels row-major."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"dimensions must be >= 1, got {self.width}x{self.height}")
        if not isinstance(self.pixels, bytes):
            object.__setattr__(self, "pixels", bytes(self.pixels))
        if len(self.pixels) != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} pixels, got {len(self.pixels)}"
            )


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token after whitespace and '#' comment lines."""
    size = len(data)
    while pos < size:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while pos < size and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < size and data[pos] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise PgmFormatError("unexpected end of header")
    return data[start:pos], pos


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():
        raise PgmFormatError(f"bad {what}: {token!r}")
    try:
        return int(token), pos
    except ValueError:  # more digits than int() converts
        raise PgmFormatError(f"bad {what}: {len(token)}-digit number") from None


def read_pgm(data: bytes) -> GrayImage:
    """Decode a binary PGM byte stream.

    The header is read liberally (any whitespace, '#' comments); exactly one
    whitespace byte separates the maxval from the raster.
    """
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmFormatError(f"bad magic: {magic!r} (expected P5)")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmFormatError(f"bad dimensions: {width}x{height}")
    if maxval != 255:
        raise UnsupportedDepthError(f"maxval {maxval} unsupported (only 255)")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PgmFormatError("missing whitespace before raster")
    pos += 1
    count = width * height
    pixels = data[pos : pos + count]
    if len(pixels) < count:
        raise TruncatedPgmError(f"raster holds {len(pixels)} bytes, need {count}")
    return GrayImage(width=width, height=height, pixels=pixels)


def write_pgm(image: GrayImage) -> bytes:
    """Encode as canonical binary PGM: P5 header, maxval 255, raw raster."""
    return b"P5\n%d %d\n255\n" % (image.width, image.height) + image.pixels
