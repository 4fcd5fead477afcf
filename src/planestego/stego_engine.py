"""Payload embedding and extraction over grayscale images.

A payload travels as a 32-bit big-endian byte-length header followed by its
bytes, most significant bit first. Pixels are visited row-major, or in a
key-derived permutation when a stego-key is supplied; each visited pixel
carries one bit if its chosen plane digit is embeddable, and is skipped
otherwise. Skipped pixels and pixels after the final payload bit stay
byte-identical to the cover, so extraction only needs the same parameters.

The keyed traversal is fixed exactly, since both sides must reproduce it:
seed = first 8 bytes of SHA-256(key) read big-endian, a SplitMix64 stream
from that seed, and a descending Fisher-Yates shuffle whose swap index at
step i is the next SplitMix64 value reduced modulo i + 1.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import metrics
from .image_io import GrayImage
from .number_systems import WeightScheme, WeightTable, build_weight_table
from .plane_codec import BitplaneMap, build_map, plane_luts

IMAGE_DEPTH = 8
MAX_PAYLOAD_BYTES = 2**32 - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

# Entries kept by the per-scheme caches. The Fibonacci order is chosen by the
# caller, so the caches are bounded; 64 still holds all 58 (scheme, plane)
# pairs of the four schemes at p = 1, which `analyze` sweeps.
_CACHE_ENTRIES = 64


class CapacityError(Exception):
    """Payload needs more embeddable pixels than the image offers."""

    def __init__(self, required_bits: int, available_bits: int):
        self.required_bits = required_bits
        self.available_bits = available_bits
        super().__init__(
            f"payload needs {required_bits} bits but only "
            f"{available_bits} embeddable bits are available"
        )


class TruncationError(Exception):
    """The stego image ran out of embeddable pixels during extraction."""


@lru_cache(maxsize=_CACHE_ENTRIES)
def _map_for(scheme: WeightScheme) -> BitplaneMap:
    return build_map(build_weight_table(scheme, IMAGE_DEPTH))


def table_for(scheme: WeightScheme) -> WeightTable:
    """The scheme's weight table at the image pipeline's bit depth."""
    return _map_for(scheme).table


@dataclass(frozen=True)
class StegoParams:
    """Scheme, target plane and optional traversal key for one run."""

    scheme: WeightScheme
    plane: int = 0
    key: bytes | None = None

    def __post_init__(self) -> None:
        n = table_for(self.scheme).n
        if not 0 <= self.plane < n:
            raise ValueError(f"plane {self.plane} out of range [0, {n - 1}]")
        if self.key is not None and not isinstance(self.key, bytes):
            object.__setattr__(self, "key", bytes(self.key))


@dataclass(frozen=True)
class EmbedReport:
    bits_embedded: int
    pixels_visited: int
    pixels_skipped: int
    psnr_db: float


@lru_cache(maxsize=_CACHE_ENTRIES)
def _plane_luts(scheme: WeightScheme, plane: int):
    """Per-value tables for one (scheme, plane): embeddable, digit, embed."""
    return plane_luts(_map_for(scheme), plane)


def frame(payload: bytes) -> np.ndarray:
    """Header-plus-payload bitstream, one uint8 per bit, MSB first."""
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ValueError(f"payload of {len(payload)} bytes exceeds 2^32 - 1")
    framed = struct.pack(">I", len(payload)) + payload
    return np.unpackbits(np.frombuffer(framed, dtype=np.uint8))


def _frame_end(header: np.ndarray) -> int:
    """Bit length of the whole frame that a 32-bit header declares."""
    return 32 + 8 * int.from_bytes(np.packbits(header[:32]).tobytes(), "big")


def unframe(bits: np.ndarray) -> bytes:
    """Inverse of frame; ignores bits past the declared length."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size < 32:
        raise ValueError("bitstream shorter than the 32-bit header")
    end = _frame_end(bits)
    if bits.size < end:
        raise ValueError(f"bitstream holds {bits.size} bits, header needs {end}")
    return np.packbits(bits[32:end]).tobytes()


def _splitmix64(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the SplitMix64 stream, vectorized."""
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed) + steps * np.uint64(_SPLITMIX_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@lru_cache(maxsize=32)
def _cached_order(width: int, height: int, key: bytes | None) -> np.ndarray:
    count = width * height
    if key is None:
        order = np.arange(count, dtype=np.int64)
    else:
        seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
        draws = _splitmix64(seed, count - 1)
        moduli = np.arange(count, 1, -1, dtype=np.uint64)
        swaps = (draws % moduli).tolist()
        perm = list(range(count))
        for t, i in enumerate(range(count - 1, 0, -1)):
            j = swaps[t]
            perm[i], perm[j] = perm[j], perm[i]
        order = np.array(perm, dtype=np.int64)
    order.flags.writeable = False
    return order


def pixel_order(width: int, height: int, key: bytes | None = None) -> np.ndarray:
    """Pixel visiting order: row-major, or a key-seeded permutation.

    Returns a read-only array (identical calls share one cached copy).
    """
    if width < 1 or height < 1:
        raise ValueError(f"dimensions must be >= 1, got {width}x{height}")
    if key is not None and not isinstance(key, bytes):
        key = bytes(key)
    return _cached_order(width, height, key)


def capacity(image: GrayImage, params: StegoParams) -> int:
    """Number of pixels whose chosen plane digit can carry a bit."""
    emb, _, _ = _plane_luts(params.scheme, params.plane)
    px = np.frombuffer(image.pixels, dtype=np.uint8)
    return int(np.count_nonzero(emb[px]))


def embed(
    cover: GrayImage, payload: bytes, params: StegoParams
) -> tuple[GrayImage, EmbedReport]:
    """Write the framed payload into the cover, one bit per embeddable pixel."""
    bits = frame(payload)
    emb, _, embed_to = _plane_luts(params.scheme, params.plane)
    order = pixel_order(cover.width, cover.height, params.key)
    px = np.frombuffer(cover.pixels, dtype=np.uint8)
    slots = np.flatnonzero(emb[px[order]])
    if slots.size < bits.size:
        raise CapacityError(required_bits=bits.size, available_bits=slots.size)
    carriers = order[slots[: bits.size]]
    stego_px = px.copy()
    stego_px[carriers] = embed_to[bits, stego_px[carriers]]
    stego = GrayImage(cover.width, cover.height, stego_px.tobytes())
    visited = int(slots[bits.size - 1]) + 1
    report = EmbedReport(
        bits_embedded=int(bits.size),
        pixels_visited=visited,
        pixels_skipped=visited - int(bits.size),
        psnr_db=metrics.psnr(cover, stego).psnr_db,
    )
    return stego, report


def extract(stego: GrayImage, params: StegoParams) -> bytes:
    """Recover the payload embedded with the same params (key included)."""
    emb, digit, _ = _plane_luts(params.scheme, params.plane)
    order = pixel_order(stego.width, stego.height, params.key)
    px = np.frombuffer(stego.pixels, dtype=np.uint8)
    slots = np.flatnonzero(emb[px[order]])
    if slots.size < 32:
        raise TruncationError(
            f"image offers {slots.size} embeddable bits, header needs 32"
        )
    header = digit[px[order[slots[:32]]]]
    end = _frame_end(header)
    if slots.size < end:
        raise TruncationError(
            f"header declares {(end - 32) // 8} bytes but only "
            f"{slots.size - 32} payload bits are available"
        )
    return unframe(np.concatenate((header, digit[px[order[slots[32:end]]]])))
