"""Payload embedding and extraction over grayscale images.

Everything a run needs from the numeral systems is cached here per scheme
at the pipeline's 8-bit depth: `table_for` gives the weight table and
`plane_luts` the per-value tables of one plane (whether a value can carry
a bit, its digit, and the value each bit moves it to).

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
not run step by step: `_keyed_order` derives the same permutation in numpy
by sorting the steps by swap target and resolving the resulting pointer
chains a block at a time from the top down, running its element-wise
stages on every CPU the process may use. At 2048^2 on a 2-vCPU Xeon VM
(best of 3) that takes about 0.38 s on both CPUs and 0.50 s on one,
against 3.6 s for the sequential loop. Only the last keyed order is kept.
"""

from __future__ import annotations

import hashlib
import operator
import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import metrics
from .image_io import GrayImage
from .number_systems import WeightScheme, WeightTable, build_weight_table

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
def table_for(scheme: WeightScheme) -> WeightTable:
    """The scheme's weight table at the image pipeline's bit depth."""
    return build_weight_table(scheme, IMAGE_DEPTH)


def _check_plane(scheme: WeightScheme, plane: int) -> int:
    """The plane as an int; TypeError if it is not an integer, ValueError
    if it is outside [0, n - 1]."""
    plane = operator.index(plane)
    n = table_for(scheme).n
    if not 0 <= plane < n:
        raise ValueError(f"plane {plane} out of range [0, {n - 1}]")
    return plane


# typed, so that a plane of another type than a cached one (1.0 after 1)
# misses and goes through _check_plane
@lru_cache(maxsize=_CACHE_ENTRIES, typed=True)
def plane_luts(
    scheme: WeightScheme, plane: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached, read-only per-value arrays for one plane: emb, digit, embed_to.

    They index the scheme's 8-bit table; a plane that is not an integer
    raises TypeError, and one outside [0, n - 1] ValueError. A plane digit
    of a pixel may carry hidden data only when both settings of that digit
    are canonical strings; since the test depends on pixel values alone, an
    extractor recomputes the same skip decisions as the embedder without
    side information.

    A string is canonical exactly when it is the canonical string of its own
    sum, so the plane digit of v is embeddable (emb[v]) iff its partner
    v' = v -/+ w (minus when the digit is set) is in range and digits[v'] is
    digits[v] with that one digit flipped. embed_to[bit, v] is the value
    holding that bit: v itself or its partner, so it moves by at most w.
    Non-embeddable values map to themselves.
    """
    plane = _check_plane(scheme, plane)
    table = table_for(scheme)
    digits = table.digits
    values = np.arange(digits.shape[0])
    digit = digits[:, plane]
    partner = values + np.where(digit, -1, 1) * table.weights[plane]
    partner = np.where((partner >= 0) & (partner < values.size), partner, values)
    flips = digits[partner] != digits
    emb = flips[:, plane] & (np.count_nonzero(flips, axis=1) == 1)
    embed_to = np.where(emb & (digit != np.arange(2)[:, None]), partner, values)
    embed_to = embed_to.astype(np.min_scalar_type(table.max_value))
    for arr in (emb, digit, embed_to):
        arr.flags.writeable = False
    return emb, digit, embed_to


@dataclass(frozen=True)
class StegoParams:
    """Scheme, target plane and optional traversal key for one run."""

    scheme: WeightScheme
    plane: int = 0
    key: bytes | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "plane", _check_plane(self.scheme, self.plane))
        if self.key is not None and not isinstance(self.key, bytes):
            # not bytes(key), which turns an int into that many zero bytes
            object.__setattr__(self, "key", bytes(memoryview(self.key)))


@dataclass(frozen=True)
class EmbedReport:
    bits_embedded: int
    pixels_visited: int
    pixels_skipped: int
    psnr_db: float


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


# Block length of the order's stages and of embed's scatter: 512 KiB of
# uint64, so a block's temporaries stay in cache and no element-wise stage
# holds a full-size one.
_ORDER_BLOCK = 1 << 16

# Orders of fewer steps are built on the calling thread alone: below 1024^2
# steps, starting a pool (importing concurrent.futures alone takes about
# 11 ms) costs about what a second thread saves on a 2-vCPU VM.
_THREADED_MIN = 1 << 20


def _order_workers(count: int) -> int:
    """Threads that build an order of `count` steps: one per CPU the
    process may run on, at most one per block, and one for a small order."""
    if count < _THREADED_MIN:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, -(-count // _ORDER_BLOCK))


def _keyed_order(count: int, key: bytes) -> np.ndarray:
    """The Fisher-Yates permutation the key seeds, without a per-step loop.

    The element-wise stages run over fixed blocks of steps, on a thread
    pool that lives for this call when the order is large. The calling
    thread allocates every full-size array and each block writes only its
    own part, so the result does not depend on the number of threads.
    """
    workers = _order_workers(count)
    if workers == 1:
        return _resolve_order(count, key, map)
    # imported here, so that small orders and `import planestego` skip it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return _resolve_order(count, key, pool.map)


def _chain_ends(up: np.ndarray, ptr: np.ndarray, count: int) -> np.ndarray:
    """End of the pointer chain from each position in [0, count).

    Position up[k] points to ptr[k] >= up[k], with up ascending; any other
    position, or one that points to itself, is a chain end. Chains are
    followed a block of up at a time from the top down, so a pointer past
    the block already holds its end, and pointer doubling resolves the
    pointers that stay inside it.
    """
    a = np.arange(count, dtype=up.dtype)
    bounds = np.searchsorted(up, np.arange(0, count + _ORDER_BLOCK, _ORDER_BLOCK))
    for b in range(bounds.size - 2, -1, -1):
        lo, hi = bounds[b], bounds[b + 1]
        u, v = up[lo:hi], a[ptr[lo:hi]]
        a[u] = v
        inside = v < (b + 1) * _ORDER_BLOCK
        u, v = u[inside], v[inside]
        while u.size:
            w = a[v]
            moved = w != v
            u, v = u[moved], w[moved]
            a[u] = v
    return a


def _resolve_order(count: int, key: bytes, mapper) -> np.ndarray:
    """`_keyed_order`, with `mapper(stage, blocks)` running each stage.

    Step i (i = count-1 down to 1) swaps positions i and s[i] <= i, and
    position i is final after it. Sorting the steps by (s[i], i) groups
    the steps that write each position p, smallest (latest) first. Step i
    leaves in position i what position s[i] holds just before it: what the
    next larger step j of its group moved there, or s[i] if there is none.
    Step j moved A[j], the value at position j just before step j. For j
    not a self-swap, that is A of the smallest step of group j, or j if the
    group is empty; these pointers only go up, so following them to their
    chain ends resolves them. A self-swap's A is never read.
    """
    blocks = range(0, count, _ORDER_BLOCK)

    def each_block(stage) -> None:
        # reading every result joins the stage and re-raises its errors
        for _ in mapper(stage, blocks):
            pass

    idx = np.int32 if count < 2**31 else np.int64
    bits = np.uint64(max(1, (count - 1).bit_length()))
    seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")

    # keys[i] = s[i] << bits | i, with step 0 a no-op swap of position 0.
    # Step i draws the (count - i)-th SplitMix64 output, modulo i + 1.
    keys = np.empty(count, dtype=np.uint64)
    keys[0] = 0

    def draw(lo: int) -> None:
        lo, hi = max(lo, 1), min(count, lo + _ORDER_BLOCK)
        z = _splitmix64(seed, np.arange(count - lo, count - hi, -1, dtype=np.uint64))
        z %= np.arange(lo + 1, hi + 1, dtype=np.uint64)
        z <<= bits
        z |= np.arange(lo, hi, dtype=np.uint64)
        keys[lo:hi] = z

    each_block(draw)
    keys.sort()
    target = np.empty(count, dtype=idx)
    step = np.empty(count, dtype=idx)
    low_bits = np.uint64((1 << int(bits)) - 1)

    def unpack(lo: int) -> None:
        part = keys[lo : lo + _ORDER_BLOCK]
        hi = lo + part.size
        np.right_shift(part, bits, out=target[lo:hi], casting="unsafe")
        np.bitwise_and(part, low_bits, out=step[lo:hi], casting="unsafe")

    each_block(unpack)
    del keys

    # same[i]: steps i and i + 1 share a group.
    same = np.empty(count - 1, dtype=bool)

    def compare(lo: int) -> None:
        hi = min(count - 1, lo + _ORDER_BLOCK)
        np.equal(target[lo + 1 : hi + 1], target[lo:hi], out=same[lo:hi])

    each_block(compare)

    # Group heads; the first group is headed by step 0, a self-swap.
    heads = np.flatnonzero(~same)
    heads += 1
    up, ptr = target[heads], step[heads]
    del heads
    a = _chain_ends(up, ptr, count)
    del up, ptr

    # Step i keeps s[i], or A of the next step of its group; both fit in
    # target, and no int64 index array is built.
    def fix_up(lo: int) -> None:
        hi = min(count - 1, lo + _ORDER_BLOCK)
        joined = same[lo:hi]
        target[lo:hi][joined] = a[step[lo + 1 : hi + 1][joined]]

    each_block(fix_up)
    del a, same
    order = np.empty(count, dtype=np.int64)

    # step is a permutation, so the blocks write disjoint positions
    def scatter(lo: int) -> None:
        hi = lo + _ORDER_BLOCK
        order[step[lo:hi]] = target[lo:hi]

    each_block(scatter)
    return order


@lru_cache(maxsize=1)
def _cached_order(count: int, key: bytes) -> np.ndarray:
    """Read-only keyed order; the last one built is kept."""
    order = _keyed_order(count, key)
    order.flags.writeable = False
    return order


def pixel_order(width: int, height: int, key: bytes | None = None) -> np.ndarray:
    """Pixel visiting order: row-major, or a key-seeded permutation.

    Returns a read-only array. The last keyed order is cached, so keyed
    calls with the same pixel count and key share one copy until a call
    with another key or count replaces it; the row-major order is cheap to
    make and is not cached. Dimensions that are not integers raise
    TypeError.
    """
    width, height = operator.index(width), operator.index(height)
    if width < 1 or height < 1:
        raise ValueError(f"dimensions must be >= 1, got {width}x{height}")
    if key is None:
        order = np.arange(width * height, dtype=np.int64)
        order.flags.writeable = False
        return order
    if not isinstance(key, bytes):
        key = bytes(memoryview(key))
    return _cached_order(width * height, key)


def capacity(image: GrayImage, params: StegoParams) -> int:
    """Number of pixels whose chosen plane digit can carry a bit."""
    emb, _, _ = plane_luts(params.scheme, params.plane)
    px = np.frombuffer(image.pixels, dtype=np.uint8)
    return int(np.count_nonzero(emb[px]))


# Traversal positions the first scan round reads; each later round reads
# twice as many as the one before. A run stops at the last slot it needs.
_FIRST_SCAN = 1 << 16


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _carriers(
    px: np.ndarray, emb: np.ndarray, order: np.ndarray | None, need: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The first `need` embeddable pixels in traversal order, or all of them.

    Returns their traversal positions, their values and the position just
    past the last one. `order` is None for the row-major traversal, which
    needs no gather. Scans in doubling rounds from max(2 * need,
    _FIRST_SCAN) positions, so a short frame reads a prefix, not the whole
    image.
    """
    positions: list[np.ndarray] = []
    values: list[np.ndarray] = []
    have = lo = 0
    step = max(2 * need, _FIRST_SCAN)
    while have < need and lo < px.size:
        hi = min(px.size, lo + step)
        chunk = px[lo:hi] if order is None else px[order[lo:hi]]
        slots = np.flatnonzero(emb[chunk])[: need - have]
        values.append(chunk[slots])
        slots += lo
        positions.append(slots)
        have += slots.size
        lo, step = hi, 2 * step
    found = _joined(positions)
    end = int(found[-1]) + 1 if found.size else 0
    return found, _joined(values), end


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
    emb, _, embed_to = plane_luts(params.scheme, params.plane)
    px, order = _traversal(cover, params)
    positions, before, visited = _carriers(px, emb, order, bits.size)
    if before.size < bits.size:
        # the scan ran to the end, so it found every embeddable pixel
        raise CapacityError(required_bits=bits.size, available_bits=before.size)
    # embed_to[bits, before], read through a flat index
    flat = bits.astype(np.uint16)
    flat <<= IMAGE_DEPTH
    flat |= before
    after = embed_to.ravel()[flat]
    del flat
    stego_px = px.copy()
    # in blocks, so that no full-size pixel-index array is built
    for lo in range(0, after.size, _ORDER_BLOCK):
        hi = lo + _ORDER_BLOCK
        at = positions[lo:hi] if order is None else order[positions[lo:hi]]
        stego_px[at] = after[lo:hi]
    # freed before the pixel copy below, not beside it
    del positions, at
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
    emb, digit, _ = plane_luts(params.scheme, params.plane)
    px, order = _traversal(stego, params)
    _, values, _ = _carriers(px, emb, order, 32)
    if values.size < 32:
        raise TruncationError(
            f"image offers {values.size} embeddable bits, header needs 32"
        )
    end = _frame_end(digit[values])
    _, values, _ = _carriers(px, emb, order, end)
    if values.size < end:
        raise TruncationError(
            f"header declares {(end - 32) // 8} bytes but only "
            f"{values.size - 32} payload bits are available"
        )
    return unframe(digit[values])
