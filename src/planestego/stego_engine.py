"""Payload embedding and extraction over grayscale images.

A payload travels as a 32-bit big-endian byte-length header followed by its
bytes, most significant bit first. Pixels are visited row-major, or in a
key-derived permutation when a stego-key is supplied; each visited pixel
carries one bit if its chosen plane digit is embeddable, and is skipped
otherwise. Skipped pixels and pixels after the final payload bit stay
byte-identical to the cover, so extraction only needs the same parameters.
Both sides scan the traversal in doubling rounds and stop at the last frame
bit, so once the order is built, embedding and extraction cost grows with
the payload, not the image: `extract` scans for the 32 header slots, then
for the frame the header declares, and `embed` derives its PSNR from the
carriers alone.

The keyed traversal is fixed exactly, since both sides must reproduce it:
seed = first 8 bytes of SHA-256(key) read big-endian, a SplitMix64 stream
from that seed, and a descending Fisher-Yates shuffle whose swap index at
step i is the next SplitMix64 value reduced modulo i + 1. The shuffle is
not run step by step: `_keyed_order` derives the same permutation with a
sort and pointer doubling in numpy (about 0.65 s at 2048^2 on a 2-vCPU
Xeon VM, against 3.6 s for the sequential loop), and keyed orders are
cached within a fixed byte budget.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
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


def _splitmix64(seed: int, z: np.ndarray) -> np.ndarray:
    """SplitMix64 outputs at the uint64 stream indices `z`, in place."""
    z *= np.uint64(_SPLITMIX_GAMMA)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


# Steps whose swap draws are made at once: 512 KiB of uint64 per array,
# so the draw stage stays in cache and never holds a full-size temporary.
_DRAW_BLOCK = 1 << 16


def _keyed_order(count: int, key: bytes) -> np.ndarray:
    """The Fisher-Yates permutation the key seeds, without a per-step loop.

    Step i (i = count-1 down to 1) swaps positions i and s[i] <= i, and
    position i is final after it. Sorting the steps by (s[i], i) groups
    the steps that write each position p, smallest (latest) first. Step i
    leaves in position i what position s[i] holds just before it: what the
    next larger step j of its group moved there, or s[i] if there is none.
    Step j moved A[j], the value at position j just before step j. For j
    not a self-swap, that is A of the smallest step of group j, or j if the
    group is empty; these pointers only go up, so pointer doubling resolves
    them. A self-swap's A is never read.
    """
    idx = np.int32 if count < 2**31 else np.int64
    bits = max(1, (count - 1).bit_length())
    seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    # keys[i] = s[i] << bits | i, with step 0 a no-op swap of position 0.
    # Step i draws the (count - i)-th SplitMix64 output, modulo i + 1.
    keys = np.empty(count, dtype=np.uint64)
    keys[0] = 0
    for lo in range(1, count, _DRAW_BLOCK):
        hi = min(count, lo + _DRAW_BLOCK)
        z = _splitmix64(seed, np.arange(count - lo, count - hi, -1, dtype=np.uint64))
        z %= np.arange(lo + 1, hi + 1, dtype=np.uint64)
        z <<= np.uint64(bits)
        z |= np.arange(lo, hi, dtype=np.uint64)
        keys[lo:hi] = z
    keys.sort()
    target = np.right_shift(
        keys, np.uint64(bits), out=np.empty(count, dtype=idx), casting="unsafe"
    )
    keys &= np.uint64((1 << bits) - 1)
    step = keys.astype(idx)
    del keys

    # Group heads; the first group is headed by step 0, a self-swap.
    same = target[1:] == target[:-1]
    heads = np.flatnonzero(~same) + 1
    up, ptr = target[heads], step[heads]
    del heads
    a = np.arange(count, dtype=idx)
    a[up] = ptr
    nxt = a[ptr]
    while True:
        live = nxt != ptr
        up, ptr = up[live], nxt[live]
        if not up.size:
            break
        a[up] = ptr
        nxt = a[ptr]

    # Step i keeps s[i], or A of the next step of its group; both fit in
    # target, and no int64 index array is built.
    target[:-1][same] = a[step[1:][same]]
    del a, same
    order = np.empty(count, dtype=np.int64)
    order[step] = target
    return order


# Bytes the keyed-order cache may hold: the orders of two keys at 4096^2,
# or of eight at 2048^2. An order larger than this is not kept, and at most
# _CACHE_ENTRIES orders are, however small.
_ORDER_CACHE_BYTES = 1 << 28
_orders: OrderedDict[tuple[int, bytes], np.ndarray] = OrderedDict()
_orders_lock = threading.Lock()


def _cached_order(count: int, key: bytes) -> np.ndarray:
    """Read-only keyed order, from a byte-bounded LRU cache."""
    args = (count, key)
    with _orders_lock:
        order = _orders.get(args)
        if order is not None:
            _orders.move_to_end(args)
            return order
    order = _keyed_order(count, key)
    order.flags.writeable = False
    if order.nbytes > _ORDER_CACHE_BYTES:
        return order
    with _orders_lock:
        _orders[args] = order
        while (
            len(_orders) > _CACHE_ENTRIES
            or sum(o.nbytes for o in _orders.values()) > _ORDER_CACHE_BYTES
        ):
            _orders.popitem(last=False)
    return order


def pixel_order(width: int, height: int, key: bytes | None = None) -> np.ndarray:
    """Pixel visiting order: row-major, or a key-seeded permutation.

    Returns a read-only array. Keyed calls with the same pixel count and
    key share one cached copy while it stays in the bounded cache; the
    row-major order is cheap to make and is not cached.
    """
    if width < 1 or height < 1:
        raise ValueError(f"dimensions must be >= 1, got {width}x{height}")
    if key is None:
        order = np.arange(width * height, dtype=np.int64)
        order.flags.writeable = False
        return order
    if not isinstance(key, bytes):
        key = bytes(key)
    return _cached_order(width * height, key)


def capacity(image: GrayImage, params: StegoParams) -> int:
    """Number of pixels whose chosen plane digit can carry a bit."""
    emb, _, _ = _plane_luts(params.scheme, params.plane)
    px = np.frombuffer(image.pixels, dtype=np.uint8)
    return int(np.count_nonzero(emb[px]))


# Traversal positions the first scan round reads; each later round reads
# twice as many as the one before. A run stops at the last slot it needs.
_FIRST_SCAN = 1 << 16


def _carriers(
    px: np.ndarray, emb: np.ndarray, order: np.ndarray | None, need: int
) -> tuple[np.ndarray, int]:
    """The first `need` embeddable pixels in traversal order, or all of them.

    Returns their pixel indices and the traversal position just past the
    last one. `order` is None for the row-major traversal, which needs no
    gather. Scans in doubling rounds from max(2 * need, _FIRST_SCAN)
    positions, so a short frame reads a prefix, not the whole image.
    """
    found: list[np.ndarray] = []
    have = lo = 0
    step = max(2 * need, _FIRST_SCAN)
    while have < need and lo < px.size:
        hi = min(px.size, lo + step)
        chunk = px[lo:hi] if order is None else px[order[lo:hi]]
        slots = np.flatnonzero(emb[chunk])[: need - have]
        slots += lo
        found.append(slots)
        have += slots.size
        lo, step = hi, 2 * step
    positions = found[0] if len(found) == 1 else np.concatenate(found)
    end = int(positions[-1]) + 1 if positions.size else 0
    return (positions if order is None else order[positions]), end


def _traversal(image: GrayImage, params: StegoParams):
    """The image's pixels and its keyed order, or None when unkeyed."""
    px = np.frombuffer(image.pixels, dtype=np.uint8)
    if params.key is None:
        return px, None
    return px, pixel_order(image.width, image.height, params.key)


def embed(
    cover: GrayImage, payload: bytes, params: StegoParams
) -> tuple[GrayImage, EmbedReport]:
    """Write the framed payload into the cover, one bit per embeddable pixel."""
    bits = frame(payload)
    emb, _, embed_to = _plane_luts(params.scheme, params.plane)
    px, order = _traversal(cover, params)
    carriers, visited = _carriers(px, emb, order, bits.size)
    if carriers.size < bits.size:
        # the scan ran to the end, so it found every embeddable pixel
        raise CapacityError(required_bits=bits.size, available_bits=carriers.size)
    before = px[carriers]
    after = embed_to[bits, before]
    stego_px = px.copy()
    stego_px[carriers] = after
    # carriers are distinct and no other pixel changes
    sse = metrics.squared_error(after, before)
    report = EmbedReport(
        bits_embedded=int(bits.size),
        pixels_visited=visited,
        pixels_skipped=visited - int(bits.size),
        psnr_db=metrics.distortion(sse, px.size).psnr_db,
    )
    return GrayImage(cover.width, cover.height, stego_px.tobytes()), report


def extract(stego: GrayImage, params: StegoParams) -> bytes:
    """Recover the payload embedded with the same params (key included)."""
    emb, digit, _ = _plane_luts(params.scheme, params.plane)
    px, order = _traversal(stego, params)
    carriers, _ = _carriers(px, emb, order, 32)
    if carriers.size < 32:
        raise TruncationError(
            f"image offers {carriers.size} embeddable bits, header needs 32"
        )
    end = _frame_end(digit[px[carriers]])
    carriers, _ = _carriers(px, emb, order, end)
    if carriers.size < end:
        raise TruncationError(
            f"header declares {(end - 32) // 8} bytes but only "
            f"{carriers.size - 32} payload bits are available"
        )
    return unframe(digit[px[carriers]])
