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
One scan, `_carrier_blocks`, reads the pixels for every caller; `embed`
and `extract` stop where the frame ends, so once the order is built, the
scan's cost grows with the payload; `embed` also copies the whole cover.

The keyed traversal is fixed exactly, since both sides must reproduce it:
seed = first 8 bytes of SHA-256(key) read big-endian, a SplitMix64 stream
from that seed, and a descending Fisher-Yates shuffle whose swap index at
step i is the next SplitMix64 value reduced modulo i + 1. The shuffle is
not run step by step: `_keyed_order` derives the same permutation in numpy
by sorting the steps by swap target and resolving the resulting pointer
chains a chunk at a time from the top down. When the process may use more
than one CPU and the order is large, the top and the bottom half of the
steps are resolved that way on two threads at once, then joined by one
gather that the two threads share. A keyed order has at most 2^32 steps,
so that a step and its swap target each fit one uint32 half of a key.
Only the last keyed order is kept, dropped before another is built, and
concurrent callers build a cold one once.
"""

from __future__ import annotations

import operator
import os
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .image_io import GrayImage, as_bytes
from .metrics import DistortionReport
from .number_systems import WeightScheme, WeightTable, build_weight_table

IMAGE_DEPTH = 8
# the frame's big-endian byte-length header
HEADER_BITS = 32
MAX_PAYLOAD_BYTES = 2**HEADER_BITS - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

# Entries kept by the per-scheme caches. The Fibonacci order is chosen by the
# caller, so the caches are bounded; 64 still holds all 58 (scheme, plane)
# pairs of the four schemes at p = 1, which `analyze` sweeps.
_CACHE_ENTRIES = 64


class CapacityError(Exception):
    """A frame needs more carriers than the image has: `embed`'s, or the one
    whose header `extract` reads (HEADER_BITS when no header fits)."""

    def __init__(self, required_bits: int, available_bits: int):
        self.required_bits = required_bits
        self.available_bits = available_bits
        # the header alone is embed's empty payload, or a header never read
        payload = f"payload of {(required_bits - HEADER_BITS) // 8} bytes"
        what = "the frame header" if required_bits == HEADER_BITS else payload
        super().__init__(
            f"{what} needs {required_bits} bits but only {available_bits} "
            "embeddable bits are available"
        )


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
    Non-embeddable values map to themselves. emb[0] holds in every plane:
    each weight w is at most 255, and w's canonical string is w's digit
    alone, the greatest string that sums to w.
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
        if self.key is not None:
            object.__setattr__(self, "key", as_bytes(self.key))


@dataclass(frozen=True)
class EmbedReport:
    """What `embed` did: `bits_embedded` frame bits, header included, in
    the first `pixels_visited` pixels of the traversal order, of which
    `pixels_skipped` carry no bit of the plane, so that pixels_skipped ==
    pixels_visited - bits_embedded; `psnr_db` of the stego image against
    the cover, inf when no pixel changed."""

    bits_embedded: int
    pixels_visited: int
    pixels_skipped: int
    psnr_db: float


def frame(payload: bytes) -> np.ndarray:
    """Header-plus-payload bitstream, one uint8 per bit, MSB first."""
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ValueError(f"payload of {len(payload)} bytes exceeds 2^32 - 1")
    framed = len(payload).to_bytes(HEADER_BITS // 8, "big") + payload
    return np.unpackbits(np.frombuffer(framed, dtype=np.uint8))


def _frame_end(bits: np.ndarray) -> int:
    """Bit length of the whole frame that the header atop `bits` declares."""
    header = np.packbits(bits[:HEADER_BITS]).tobytes()
    return HEADER_BITS + 8 * int.from_bytes(header, "big")


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


# Block length of the order's stages and of the carrier scan: 512 KiB of
# uint64, so a block's temporaries stay in cache and no element-wise stage
# holds a full-size one. A 1 KiB frame ends in the first block of the scan,
# so a longer block would make short round trips read more pixels.
_ORDER_BLOCK = 1 << 16

# Sorted keys per chunk of the chain resolve. The targets crowd at the low
# positions, several keys to a position at the bottom of the order, so the
# chunks count keys, not positions, to bound their temporaries.
_CHAIN_KEYS = 1 << 15

# Orders of fewer steps are built on the calling thread alone. On a 2-vCPU
# Intel Xeon VM, in fresh processes with OpenBLAS pinned to one thread and
# counting the import of concurrent.futures, medians of 12 alternating
# pairs: a 512^2 order took 19.1 ms in one range against 19.4 ms in two
# halves (two faster in 8 of 12, and in 4 of 12 in a second set), and a
# 1024^2 order 60.3 against 44.7 ms (two faster in 12 of 12). Between the
# two, 16 pairs read 725^2 42.4 against 37.7 ms (15 of 16) but 1000^2 85.9
# against 67.6 ms in only 11 of 16, too few to halve the threshold.
_THREADED_MIN = 1 << 20

# Which uint32 half of a native uint64 key s << 32 | i holds the step i; the
# other holds the target s.
_STEP_HALF = 0 if sys.byteorder == "little" else 1


def _two_halves(count: int) -> bool:
    """Whether `_keyed_order` resolves an order of `count` steps in two
    halves on two threads at once: only a large order, and only when the
    process may run on more than one CPU."""
    if count < _THREADED_MIN:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return cpus > 1


def _keyed_order(count: int, key: bytes) -> np.ndarray:
    """The Fisher-Yates permutation the key seeds, without a per-step loop.

    For a small order, or on one CPU, `_resolve_range` resolves all the
    steps at once. Otherwise the steps from `base`, count / 2 rounded down
    to a block, up to count resolve on a second thread while the steps
    below base resolve on this one, each in its own part of one key buffer.
    The top range runs first in the shuffle, so the bottom range's order is
    read through the values the top range leaves below base, a block at a
    time in place; the two threads split that gather at a block boundary,
    so that neither CPU idles. Either way the result is the same order.
    More than 2^32 steps raise ValueError before anything is allocated.
    """
    # a step and its swap target each fill one uint32 half of a key
    if count > 2**32:
        raise ValueError(f"a keyed order has at most 2^32 steps, got {count}")
    # imported here: numpy does not load it, and only a keyed order needs it
    import hashlib

    seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    keys = np.empty(count, dtype=np.uint64)
    if not _two_halves(count):
        _resolve_range(seed, count, keys)
        return keys.view(np.int64)
    # imported here, so that small orders and `import planestego` skip it
    from concurrent.futures import ThreadPoolExecutor

    base = count // 2 // _ORDER_BLOCK * _ORDER_BLOCK
    mid = base // 2 // _ORDER_BLOCK * _ORDER_BLOCK
    with ThreadPoolExecutor(1) as pool:
        top = pool.submit(_resolve_range, seed, count, keys[base:], base)
        _resolve_range(seed, count, keys[:base])
        left = top.result()
        upper = pool.submit(_read_through, left, keys[mid:base])
        _read_through(left, keys[:mid])
        upper.result()
    return keys.view(np.int64)


def _read_through(left: np.ndarray, keys: np.ndarray) -> None:
    """Replace each key, a position below base, by the value `left` holds
    there, a block at a time in place."""
    for lo in range(0, keys.size, _ORDER_BLOCK):
        block = keys[lo : lo + _ORDER_BLOCK]
        block[:] = left.take(block.view(np.int64))


def _chain_ends(
    step: np.ndarray, target: np.ndarray, end: int
) -> tuple[np.ndarray, np.ndarray]:
    """End of the pointer chain from each position in [0, end), and `same`:
    same[k] marks that sorted keys k - 1 and k share a group.

    `step` and `target` are the halves of the sorted keys. Each group of
    the sorted steps points from position target[k] up to step[k], k the
    group's first key; any other position, or one that points to
    itself, is a chain end. Chains are followed _CHAIN_KEYS sorted keys at
    a time from the top down. A key's step is above its target, so a group
    whose step a pointer of the chunk reaches has its first key in this
    chunk or above it: a pointer past the chunk's top target already holds
    its end, and pointer doubling resolves the ones that stay inside it.
    A chunk finds its groups by comparing each target with the one before
    as it goes, so no array of all groups is built.
    """
    a = np.arange(end, dtype=np.uint32)
    # the first key heads a group: a real one when the range starts above
    # step 0, and otherwise step 0's self-swap, whose pointer stays put
    same = np.zeros(step.size, dtype=bool)
    for hi in range(step.size, 0, -_CHAIN_KEYS):
        lo = max(hi - _CHAIN_KEYS, 0)
        first = max(lo, 1)
        np.equal(target[first:hi], target[first - 1 : hi - 1], out=same[first:hi])
        heads = np.flatnonzero(~same[lo:hi])
        heads += lo
        u, v = target[heads], a[step[heads]]
        a[u] = v
        inside = v <= target[hi - 1]
        u, v = u[inside], v[inside]
        while u.size:
            w = a[v]
            moved = w != v
            u, v = u[moved], w[moved]
            a[u] = v
    return a, same


def _resolve_range(
    seed: int, count: int, keys: np.ndarray, base: int = 0
) -> np.ndarray:
    """The order of the steps [base, base + keys.size) of a `count`-step
    shuffle run alone from the identity, written over `keys`, and the
    values those steps leave in positions [0, base).

    Step i (i = count-1 down to 0) swaps positions i and s[i] <= i, and
    position i is final after it; step 0 draws modulo 1, so s[0] = 0.
    Sorting the steps by (s[i], i) groups the steps that write each
    position p, smallest (latest) first. Step i leaves in position i what
    position s[i] holds just before it: what the next larger step j of its
    group moved there, or s[i] if there is none. Step j moved A[j], the
    value at position j just before step j. For j not a self-swap, that is
    A of the smallest step of group j, or j if the group is empty; these
    pointers only go up, so following them to their chain ends resolves
    them. A self-swap's A is never read. A position p below base is a
    group's target but no step of the range: its pointer's end is what the
    range leaves there.

    Its five stages are the draws, the sort, the chain resolve, the fix-up
    and a second sort, by step, that turns the keys into the order. Each
    runs on the calling thread, over blocks of _ORDER_BLOCK keys where it
    is element-wise. Step and target are the uint32 halves of the keys,
    read in place.
    """
    end = base + keys.size
    # keys[i - base] = s[i] << 32 | i. Step i draws the (count - i)-th
    # SplitMix64 output, modulo i + 1: step 0's, modulo 1, makes it a
    # no-op swap of position 0, key 0.
    for lo in range(base, end, _ORDER_BLOCK):
        hi = min(end, lo + _ORDER_BLOCK)
        z = keys[lo - base : hi - base]
        z[:] = np.arange(count - lo, count - hi, -1, dtype=np.uint64)
        _splitmix64(seed, z)
        z %= np.arange(lo + 1, hi + 1, dtype=np.uint64)
        z <<= np.uint64(32)
        z |= np.arange(lo, hi, dtype=np.uint64)
    keys.sort()
    halves = keys.view(np.uint32)
    step, target = halves[_STEP_HALF::2], halves[1 - _STEP_HALF :: 2]
    a, same = _chain_ends(step, target, end)

    # Step i keeps s[i], or A of the next step of its group, written over
    # s[i] in its key: the keys are not read as sorted after this.
    for lo in range(0, keys.size - 1, _ORDER_BLOCK):
        hi = min(keys.size - 1, lo + _ORDER_BLOCK)
        np.copyto(
            target[lo:hi], a.take(step[lo + 1 : hi + 1]), where=same[lo + 1 : hi + 1]
        )
    del same

    # As step << 32 | value, sorted once more, key i - base holds step i's
    # value: the steps are base, ..., end - 1.
    for lo in range(0, keys.size, _ORDER_BLOCK):
        block = keys[lo : lo + _ORDER_BLOCK]
        np.bitwise_or(block << np.uint64(32), block >> np.uint64(32), out=block)
    keys.sort()
    keys &= np.uint64(0xFFFFFFFF)
    # a view, not a copy: a copy's 4 B per step below base would add to the
    # other half's arrays at the build's peak
    return a[:base]


# The last keyed order, by (pixel count, key); read and written only under
# the lock, so that concurrent callers build a cold one once.
_order_lock = threading.Lock()
_orders: dict[tuple[int, bytes], np.ndarray] = {}


def pixel_order(width: int, height: int, key: bytes | None = None) -> np.ndarray:
    """Pixel visiting order: row-major, or a key-seeded permutation.

    Returns a read-only int64 array. Only the last keyed order is cached,
    and dropped before a call with another pixel count or key builds its
    own; concurrent calls build a cold one once. Row-major is not cached.
    Dimensions that are not integers raise TypeError, and a keyed order of
    more than 2^32 pixels raises ValueError before any work.
    """
    width, height = operator.index(width), operator.index(height)
    if width < 1 or height < 1:
        raise ValueError(f"dimensions must be >= 1, got {width}x{height}")
    if key is None:
        order = np.arange(width * height, dtype=np.int64)
        order.flags.writeable = False
        return order
    index = width * height, as_bytes(key)
    with _order_lock:
        order = _orders.get(index)
        if order is None:
            _orders.clear()
            order = _keyed_order(*index)
            order.flags.writeable = False
            _orders[index] = order
        return order


def _pair_table(emb: np.ndarray) -> np.ndarray:
    """A plane's emb for two pixels at a time: 65536 uint16 entries.

    Entry i, read as its two bytes, holds emb of each byte of i in the same
    order. That holds in either byte order, so a uint16 view of pixel bytes
    indexes it directly. It takes about 6 us to build on a 2-vCPU AMD EPYC
    VM and 12 us on a 2-vCPU Intel Xeon VM, and is not cached:
    a table for each of the 58 planes `analyze` sweeps would hold 58 times
    its 128 KiB. `_carrier_blocks` says which planes build it.
    """
    e = emb.view(np.uint8).astype(np.uint16)
    return ((e[:, None] << 8) | e).ravel()


def _value_range(emb: np.ndarray) -> tuple[np.uint8, np.uint8] | None:
    """(start, span) when the embeddable values are start..start + span
    modulo 256, or None when they are not one such range or there are none."""
    starts = np.flatnonzero(emb & ~np.roll(emb, 1))
    if starts.size > 1 or not emb.any():
        return None
    start = starts[0] if starts.size else 0  # no start: every value carries
    return np.uint8(start), np.uint8(np.count_nonzero(emb) - 1)


def capacity(image: GrayImage, params: StegoParams) -> int:
    """Number of pixels whose chosen plane digit can carry a bit.

    Counts the masks of the row-major scan a block at a time, so its
    working memory does not grow with the image; the key does not change it.
    """
    emb, _, _ = plane_luts(params.scheme, params.plane)
    return sum(
        int(np.count_nonzero(found))
        for _, found, _, _ in _carrier_blocks(image, None, emb)
    )


def _carrier_blocks(image: GrayImage, key: bytes | None, emb: np.ndarray):
    """The image's traversal, one block of _ORDER_BLOCK positions at a time,
    for as long as the caller reads; a caller stops in the block that holds
    its last carrier, so a short frame reads a prefix of the image.

    Only this scan reads pixel blocks and knows the traversal: row-major
    when `key` is None, else the key's cached order. Yields (lo, found,
    chunk, where): the block's first position, its bool carrier mask, its
    pixels (a view of the image row-major, or the keyed gather), and a map
    from offsets within the block to pixel indices, adding `lo` row-major
    so no index array is built, or reading the block's view of the order.

    The carrier test is chosen once per scan from `emb`. When its
    embeddable values form one range modulo 256, as in every binary plane
    and the top plane of the others, a pixel carries iff (pixel - start) <=
    span in wrapping uint8 arithmetic, so a range may run across 255 -> 0.
    Per 2^16-pixel block that test costs 2.6 us against 17.5 us for a lookup
    on a 2-vCPU AMD EPYC VM, and 6.6 against 30.0 us on a 2-vCPU Intel Xeon
    VM (best of 7 x 2000 calls). Otherwise, as in the planes of two or more
    ranges and for a hand-made `emb` with no embeddable value, the mask is
    looked up two pixels at a time in the plane's pair table, built once per
    scan; an odd-length block is padded with one byte, whose result is
    dropped.
    """
    px = np.frombuffer(image.pixels, dtype=np.uint8)
    value_range = _value_range(emb)
    pairs = None if value_range else _pair_table(emb)
    order = None if key is None else pixel_order(image.width, image.height, key)
    for lo in range(0, px.size, _ORDER_BLOCK):
        if order is None:
            chunk, where = px[lo : lo + _ORDER_BLOCK], partial(np.add, lo)
        else:
            pos = order[lo : lo + _ORDER_BLOCK]
            # take, not []: a full 2048^2 keyed gather takes 15 against 23 ms
            chunk, where = px.take(pos), pos.take
        if pairs is None:
            start, span = value_range
            found = np.subtract(chunk, start) <= span
        else:
            padded = np.append(chunk, np.uint8(0)) if chunk.size % 2 else chunk
            found = pairs.take(padded.view(np.uint16)).view(bool)[: chunk.size]
        yield lo, found, chunk, where


def _check_fits(image: GrayImage, params: StegoParams, frame_bits: int) -> None:
    """CapacityError if the frame has more bits than the image has pixels:
    it cannot fit even if every pixel carried a bit, so it fails before
    framing or a further scan. Every traversal visits the same carriers,
    so the row-major count is the available one."""
    if frame_bits > image.width * image.height:
        raise CapacityError(frame_bits, capacity(image, params))


def embed(
    cover: GrayImage, payload: bytes, params: StegoParams
) -> tuple[GrayImage, EmbedReport]:
    """Write the framed payload into the cover, one bit per embeddable pixel."""
    payload = as_bytes(payload)
    _check_fits(cover, params, HEADER_BITS + 8 * len(payload))
    bits = frame(payload)
    emb, _, embed_to = plane_luts(params.scheme, params.plane)
    weight = table_for(params.scheme).weights[params.plane]
    stego_px = np.frombuffer(cover.pixels, dtype=np.uint8).copy()
    have = changed = 0
    for lo, found, chunk, where in _carrier_blocks(cover, params.key, emb):
        # take over flatnonzero, not chunk[found]: where about half the
        # pixels carry, as in prime plane 1, a boolean-mask gather made a
        # full-capacity 2048^2 extract take 15.0 against 3.4 ms
        slots = np.flatnonzero(found)[: bits.size - have]
        before = chunk.take(slots)
        # embed_to[bits, before], read through a flat index
        flat = bits[have : have + slots.size].astype(np.uint16)
        flat <<= IMAGE_DEPTH
        flat |= before
        after = embed_to.take(flat)
        moved = np.flatnonzero(after != before)
        stego_px[where(slots.take(moved))] = after.take(moved)
        changed += moved.size
        have += slots.size
        if have == bits.size:
            break
    else:
        # the scan ran to the end, so it found every embeddable pixel
        raise CapacityError(required_bits=bits.size, available_bits=have)
    visited = lo + int(slots[-1]) + 1
    report = EmbedReport(
        bits_embedded=int(bits.size),
        pixels_visited=visited,
        pixels_skipped=visited - int(bits.size),
        # a carrier that changes moves to its partner, exactly weight away,
        # and no other pixel changes
        psnr_db=DistortionReport(weight * weight * changed / stego_px.size).psnr_db,
    )
    return GrayImage(cover.width, cover.height, stego_px.tobytes()), report


def extract(stego: GrayImage, params: StegoParams) -> bytes:
    """Recover the payload embedded with the same params (key included)."""
    emb, digit, _ = plane_luts(params.scheme, params.plane)
    parts: list[np.ndarray] = []
    have, end = 0, HEADER_BITS  # end: the header, then the frame it declares
    for _, found, chunk, _ in _carrier_blocks(stego, params.key, emb):
        # take, not chunk[found], as in embed
        values = chunk.take(np.flatnonzero(found))
        parts.append(digit.take(values))
        have += values.size
        if end == HEADER_BITS <= have:
            end = _frame_end(np.concatenate(parts))
            _check_fits(stego, params, end)
        if have >= end:
            break
    else:
        # the scan ran to the end, so it found every embeddable pixel
        raise CapacityError(required_bits=end, available_bits=have)
    return np.packbits(np.concatenate(parts)[HEADER_BITS:end]).tobytes()
