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
One scan, `_carrier_blocks`, reads the pixels for every caller. It walks
the traversal in blocks of 2^16 positions and yields each block's pixels
and carrier mask; its docstring says which planes it tests by value range
and which through a table of pixel pairs. `capacity` counts the masks;
`embed` and `extract` gather each block's carriers and stop in the block
that holds the last frame bit, so once the order is built, their cost
grows with the payload, not the image. `extract` reads the header and
then the frame it declares in that one pass; `embed` writes only the
carriers whose value changes and counts them: each moves by exactly the
plane's weight, so its PSNR comes from that count alone.
No array of all carriers' positions is built: a warm full-capacity round
trip in binary plane 0, keyed or not, allocates about 4.1 bytes per pixel
in `embed` (the stego copy, the frame's bits and the output bytes) and
2.3 in `extract` (tracemalloc peaks at 1024^2).

The keyed traversal is fixed exactly, since both sides must reproduce it:
seed = first 8 bytes of SHA-256(key) read big-endian, a SplitMix64 stream
from that seed, and a descending Fisher-Yates shuffle whose swap index at
step i is the next SplitMix64 value reduced modulo i + 1. The shuffle is
not run step by step: `_keyed_order` derives the same permutation in numpy
by sorting the steps by swap target and resolving the resulting pointer
chains a block at a time from the top down, running its element-wise
stages on every CPU the process may use; ROADMAP.md's Baseline gives its
build time on a named host. Whatever the number of threads, the build
holds about 16 bytes per step at its peak, the sorted uint64 keys beside
the int64 order: ru_maxrss grows by about 71 MB at 2048^2 and 263 MB at
4096^2. A keyed order has at most 2^32 steps, so that a step and its swap
target each fit one uint32 half of a key. Only the last keyed order is
kept, and concurrent callers build a cold one once.
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
        super().__init__(
            f"payload of {(required_bits - HEADER_BITS) // 8} bytes needs "
            f"{required_bits} bits but only {available_bits} embeddable bits "
            "are available"
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

# Most runs of consecutive embeddable values for which the carrier scan tests
# value ranges rather than look pixel pairs up. Per 2^16-pixel block on a
# 2-vCPU AMD EPYC VM, the pair lookup takes 17.5 us, and the range test 2.6,
# 5.8, 8.8, 12.1, 14.9 and 17.6 us for 1 to 6 runs.
_RANGE_RUNS = 4

# Orders of fewer steps are built on the calling thread alone. On a 2-vCPU
# AMD EPYC VM, with concurrent.futures already imported (importing it takes
# about 3.6 ms), two threads built a 512^2 order in 7.3 ms against 7.1 ms on
# one, and a 1024^2 order in 22.7 ms against 28.9 ms (medians of 15).
_THREADED_MIN = 1 << 20

# Which uint32 half of a native uint64 key s << 32 | i holds the step i; the
# other holds the target s.
_STEP_HALF = 0 if sys.byteorder == "little" else 1


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
    More than 2^32 steps raise ValueError before anything is allocated.
    """
    # a step and its swap target each fill one uint32 half of a key
    if count > 2**32:
        raise ValueError(f"a keyed order has at most 2^32 steps, got {count}")
    workers = _order_workers(count)
    if workers == 1:
        return _resolve_order(count, key, map)
    # imported here, so that small orders and `import planestego` skip it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return _resolve_order(count, key, pool.map)


def _chain_ends(
    keys: np.ndarray, step: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """End of the pointer chain from each position in [0, keys.size), and
    `same`: same[i] marks that sorted steps i and i + 1 share a group.

    `keys` are the sorted keys, and `step` and `target` their halves. Each
    group of the sorted steps but the first points from position target[k]
    up to step[k], k the group's first step; any other position, or one
    that points to itself, is a chain end. Chains are followed a block of
    positions at a time from the top down, so a pointer past the block
    already holds its end, and pointer doubling resolves the pointers that
    stay inside it. A block finds its groups in the span of sorted keys
    whose target lies in it, comparing each step there with the one before
    as it goes, so no array of all groups is built.
    """
    count = keys.size
    a = np.arange(count, dtype=np.uint32)
    same = np.empty(count - 1, dtype=bool)
    # searched in the contiguous keys: numpy would copy the strided target
    starts = np.arange(0, count, _ORDER_BLOCK, dtype=np.uint64)
    bounds = np.append(np.searchsorted(keys, starts << np.uint64(32)), count)
    for b in range(starts.size - 1, -1, -1):
        # step 0 heads the first group and is a self-swap: it never points
        lo, hi = max(int(bounds[b]), 1), int(bounds[b + 1])
        span = same[lo - 1 : hi - 1]
        np.equal(target[lo:hi], target[lo - 1 : hi - 1], out=span)
        heads = np.flatnonzero(~span)
        heads += lo
        u, v = target[heads], a[step[heads]]
        a[u] = v
        inside = v < min(count, (b + 1) * _ORDER_BLOCK)
        u, v = u[inside], v[inside]
        while u.size:
            w = a[v]
            moved = w != v
            u, v = u[moved], w[moved]
            a[u] = v
    return a, same


def _resolve_order(count: int, key: bytes, mapper) -> np.ndarray:
    """`_keyed_order`, with `mapper(stage, blocks)` running each stage.

    Step i (i = count-1 down to 0) swaps positions i and s[i] <= i, and
    position i is final after it; step 0 draws modulo 1, so s[0] = 0.
    Sorting the steps by (s[i], i) groups the steps that write each
    position p, smallest (latest) first. Step i leaves in position i what
    position s[i] holds just before it: what the next larger step j of its
    group moved there, or s[i] if there is none. Step j moved A[j], the
    value at position j just before step j. For j not a self-swap, that is
    A of the smallest step of group j, or j if the group is empty; these
    pointers only go up, so following them to their chain ends resolves
    them. A self-swap's A is never read.

    Its five stages are the draws, the sort, the chain resolve, the fix-up
    and the scatter. After the sort, step and target are the uint32 halves
    of the sorted keys, read in place.
    """
    blocks = range(0, count, _ORDER_BLOCK)

    def each_block(stage) -> None:
        # reading every result joins the stage and re-raises its errors
        for _ in mapper(stage, blocks):
            pass

    # imported here: numpy does not load it, and only a keyed order needs it
    import hashlib

    seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")

    # keys[i] = s[i] << 32 | i. Step i draws the (count - i)-th SplitMix64
    # output, modulo i + 1: step 0's, modulo 1, makes it a no-op swap of
    # position 0, key 0.
    keys = np.empty(count, dtype=np.uint64)

    def draw(lo: int) -> None:
        hi = min(count, lo + _ORDER_BLOCK)
        z = _splitmix64(seed, np.arange(count - lo, count - hi, -1, dtype=np.uint64))
        z %= np.arange(lo + 1, hi + 1, dtype=np.uint64)
        z <<= np.uint64(32)
        z |= np.arange(lo, hi, dtype=np.uint64)
        keys[lo:hi] = z

    each_block(draw)
    keys.sort()
    halves = keys.view(np.uint32)
    step, target = halves[_STEP_HALF::2], halves[1 - _STEP_HALF :: 2]
    a, same = _chain_ends(keys, step, target)

    # Step i keeps s[i], or A of the next step of its group, written over
    # s[i] in its key: the keys are not read as sorted after this.
    def fix_up(lo: int) -> None:
        hi = min(count - 1, lo + _ORDER_BLOCK)
        np.copyto(target[lo:hi], a.take(step[lo + 1 : hi + 1]), where=same[lo:hi])

    each_block(fix_up)
    del a, same
    order = np.empty(count, dtype=np.int64)

    # step is a permutation, so the blocks write disjoint positions; each
    # casts its steps to intp 2^12 at a time, 32 KiB per worker
    def scatter(lo: int) -> None:
        for sub in range(lo, min(count, lo + _ORDER_BLOCK), 1 << 12):
            hi = sub + (1 << 12)
            order[step[sub:hi].astype(np.intp)] = target[sub:hi]

    each_block(scatter)
    return order


# Held around _cached_order: lru_cache does not lock while it builds, so
# concurrent callers would each build the same cold order.
_order_lock = threading.Lock()


@lru_cache(maxsize=1)
def _cached_order(count: int, key: bytes) -> np.ndarray:
    """Read-only keyed order; the last one built is kept."""
    order = _keyed_order(count, key)
    order.flags.writeable = False
    return order


def pixel_order(width: int, height: int, key: bytes | None = None) -> np.ndarray:
    """Pixel visiting order: row-major, or a key-seeded permutation.

    Returns a read-only int64 array. The last keyed order is cached, so
    keyed calls with the same pixel count and key share one copy until a
    call with another key or count replaces it, and concurrent calls build
    it once; the row-major order is cheap to make and is not cached.
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
    with _order_lock:
        return _cached_order(width * height, as_bytes(key))


def _pair_table(emb: np.ndarray) -> np.ndarray:
    """A plane's emb for two pixels at a time: 65536 uint16 entries.

    Entry i, read as its two bytes, holds emb of each byte of i in the same
    order. That holds in either byte order, so a uint16 view of pixel bytes
    indexes it directly. It takes about 6 us to build and is not cached:
    a table for each of the 58 planes `analyze` sweeps would hold 58 times
    its 128 KiB. `_carrier_blocks` says which planes build it.
    """
    e = emb.view(np.uint8).astype(np.uint16)
    return ((e[:, None] << 8) | e).ravel()


def _value_runs(emb: np.ndarray) -> list[tuple[np.uint8, np.uint8]] | None:
    """(start, span) of each run start..start + span of embeddable values,
    or None when there are more than _RANGE_RUNS runs."""
    padded = np.concatenate(([False], emb, [False]))
    bounds = np.flatnonzero(padded[1:] != padded[:-1])
    if bounds.size > 2 * _RANGE_RUNS:
        return None
    # Python ints first: a uint8 scalar difference that wraps warns
    return [
        (np.uint8(start), np.uint8(end - 1 - start))
        for start, end in bounds.reshape(-1, 2).tolist()
    ]


def capacity(image: GrayImage, params: StegoParams) -> int:
    """Number of pixels whose chosen plane digit can carry a bit.

    Counts the masks of the row-major scan a block at a time, so its
    working memory does not grow with the image; the key does not change it.
    A plane that `_carrier_blocks` tests through the 128 KiB pair table
    peaks at about 0.5 B/px at 1024^2, and one it tests by value range at
    about 0.2.
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
    embeddable values form at most _RANGE_RUNS runs of consecutive values,
    as in every binary plane and the sparse top planes of the others, a
    pixel carries iff (pixel - start) <= span in wrapping uint8 arithmetic
    for one of the runs, a few element-wise passes per block that cost less
    than a lookup. Otherwise, as in the low planes of every scheme but
    binary, the mask is looked up two pixels at a time in the plane's pair
    table, built once per scan; an odd-length block is padded with one
    byte, whose result is dropped.
    """
    px = np.frombuffer(image.pixels, dtype=np.uint8)
    runs = _value_runs(emb)
    pairs = None if runs is not None else _pair_table(emb)
    order = None if key is None else pixel_order(image.width, image.height, key)
    for lo in range(0, px.size, _ORDER_BLOCK):
        if order is None:
            chunk, where = px[lo : lo + _ORDER_BLOCK], partial(np.add, lo)
        else:
            pos = order[lo : lo + _ORDER_BLOCK]
            # take, not []: a full 2048^2 keyed gather takes 15 against 23 ms
            chunk, where = px.take(pos), pos.take
        if pairs is None:
            # the first run's test is the mask; no run, no carrier, which
            # only a hand-made emb gives: table_for planes all carry 0
            found = None if runs else np.zeros(chunk.size, dtype=bool)
            for start, span in runs:
                inside = np.subtract(chunk, start)
                hit = np.less_equal(inside, span, out=inside.view(bool))
                if found is None:
                    found = hit
                else:
                    found |= hit
        else:
            padded = np.append(chunk, np.uint8(0)) if chunk.size % 2 else chunk
            found = pairs.take(padded.view(np.uint16)).view(bool)[: chunk.size]
        yield lo, found, chunk, where


def embed(
    cover: GrayImage, payload: bytes, params: StegoParams
) -> tuple[GrayImage, EmbedReport]:
    """Write the framed payload into the cover, one bit per embeddable pixel."""
    payload = as_bytes(payload)
    required = HEADER_BITS + 8 * len(payload)
    if required > cover.width * cover.height:
        # cannot fit even if every pixel carried a bit: fail before framing
        raise CapacityError(required, capacity(cover, params))
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
    have, end = 0, None  # end: the frame's bit length, once the header is read
    for _, found, chunk, _ in _carrier_blocks(stego, params.key, emb):
        # take, not chunk[found], as in embed
        values = chunk.take(np.flatnonzero(found))
        parts.append(digit.take(values))
        have += values.size
        if end is None and have >= HEADER_BITS:
            end = _frame_end(np.concatenate(parts))
            if end > len(stego.pixels):
                # more bits than pixels cannot fit; every traversal visits
                # the same carriers, so count them without scanning the rest
                have = capacity(stego, params)
                break
        if end is not None and have >= end:
            break
    end = HEADER_BITS if end is None else end
    if have < end:
        raise CapacityError(required_bits=end, available_bits=have)
    return np.packbits(np.concatenate(parts)[HEADER_BITS:end]).tobytes()
