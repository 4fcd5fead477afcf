"""Brute-force reference implementations the tests check the library against.

Everything here enumerates subsets instead of running the library's greedy
path, runs the keyed shuffle one step at a time in Python integers, or
scans every pixel where the library stops at the last frame bit, so
agreement is meaningful. A subset of weights is written as an int
mask whose bit i selects weights[i]; comparing masks numerically is the
same as comparing digit strings lexicographically from the most significant
plane down.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


def digit_mask(digits) -> int:
    """Digit sequence (e.g. a row of the digit matrix) -> subset mask."""
    return sum(int(d) << i for i, d in enumerate(digits))


def subset_sums(weights) -> np.ndarray:
    """sums[mask] = total weight of the subset encoded by mask."""
    sums = np.zeros(1, dtype=np.int32)
    for w in weights:
        sums = np.concatenate([sums, sums + np.int32(w)])
    return sums


def lexmax_masks(weights, limit: int) -> np.ndarray:
    """Per value v in [0, limit]: the greatest mask summing to v, or -1."""
    sums = subset_sums(weights)
    best = np.full(limit + 1, -1, dtype=np.int64)
    in_range = sums <= limit
    np.maximum.at(best, sums[in_range], np.flatnonzero(in_range))
    return best


def gap_ok(mask: int, p: int) -> bool:
    """No two set bits within index distance p."""
    set_bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return all(b - a > p for a, b in zip(set_bits, set_bits[1:]))


def lexmax_masks_zeck(weights, limit: int, p: int) -> list[int]:
    """Gap-constrained variant of lexmax_masks (feasible for small n)."""
    best = [-1] * (limit + 1)
    for mask in range(1 << len(weights)):
        if not gap_ok(mask, p):
            continue
        total = sum(w for i, w in enumerate(weights) if mask >> i & 1)
        if total <= limit and mask > best[total]:
            best[total] = mask
    return best


@functools.cache
def canonical_masks(table) -> tuple[int, ...]:
    """Per value of a WeightTable's domain: the mask of its canonical string.

    Gap-constrained for Fibonacci tables. Cached, since the brute force
    takes about 2 s at k = 8 for Fibonacci p = 4.
    """
    from planestego.number_systems import SchemeKind

    if table.scheme.kind is SchemeKind.FIBONACCI:
        return tuple(lexmax_masks_zeck(table.weights, table.max_value, table.scheme.p))
    return tuple(lexmax_masks(table.weights, table.max_value).tolist())


def plane_oracle(table, plane: int):
    """(emb, digit, embed_to) for one plane, from the canonical masks alone.

    v is embeddable at the plane iff its canonical mask with that bit
    flipped is itself a canonical mask; embedding the other bit moves v to
    that mask's weight sum. Non-embeddable values map to themselves.
    """
    best = canonical_masks(table)
    canonical = set(best)
    size = len(best)
    emb = np.zeros(size, dtype=bool)
    digit = np.zeros(size, dtype=np.uint8)
    embed_to = np.tile(np.arange(size), (2, 1))
    for v, mask in enumerate(best):
        digit[v] = mask >> plane & 1
        flipped = mask ^ (1 << plane)
        if flipped in canonical:
            emb[v] = True
            embed_to[1 - digit[v], v] = sum(
                w for i, w in enumerate(table.weights) if flipped >> i & 1
            )
    return emb, digit, embed_to


def count_zeck_subsets(weights, limit: int, p: int) -> list[int]:
    """Per value: how many gap-valid subsets sum to it."""
    counts = [0] * (limit + 1)
    for mask in range(1 << len(weights)):
        if not gap_ok(mask, p):
            continue
        total = sum(w for i, w in enumerate(weights) if mask >> i & 1)
        if total <= limit:
            counts[total] += 1
    return counts


def _reachable_sums(weights, p: int | None) -> set[int]:
    """All subset sums, restricted to gap-valid subsets when p is given."""
    if p is None:
        reach = {0}
        for w in weights:
            reach |= {s + w for s in reach}
        return reach
    # sums of valid subsets whose highest index is i
    by_top: list[set[int]] = []
    for i, w in enumerate(weights):
        below = set().union(*by_top[: max(0, i - p)]) if i > p else set()
        by_top.append({w} | {s + w for s in below})
    return {0} | set().union(*by_top) if by_top else {0}


def min_covering_planes(scheme, k: int) -> int:
    """Smallest n whose first n weights can express every value in [0, 2^k - 1].

    Representability only (any valid subset counts), so this is independent
    of how the library picks canonical representations.
    """
    from planestego.number_systems import SchemeKind, generate_weights

    limit = (1 << k) - 1
    p = scheme.p if scheme.kind is SchemeKind.FIBONACCI else None
    n = 1
    while True:
        reach = _reachable_sums(generate_weights(scheme, n), p)
        if all(v in reach for v in range(limit + 1)):
            return n
        n += 1


def splitmix64_reference(seed: int, count: int) -> list[int]:
    """First `count` SplitMix64 outputs, in Python integers."""
    mask = (1 << 64) - 1
    out = []
    for step in range(1, count + 1):
        z = (seed + step * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def fisher_yates_reference(n: int, key: bytes) -> list[int]:
    """The keyed pixel order, by the sequential descending Fisher-Yates."""
    seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    draws = splitmix64_reference(seed, n - 1)
    perm = list(range(n))
    for t, i in enumerate(range(n - 1, 0, -1)):
        j = draws[t] % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def embed_reference(cover, payload: bytes, params):
    """embed by a full scan: gather every pixel in traversal order.

    The library stops scanning at the last frame bit and derives PSNR from
    the carriers; this visits the whole image and measures PSNR on the
    whole image, so the two agree only if the prefix scan is exact.
    """
    from planestego import metrics, stego_engine as se

    bits = se.frame(payload)
    emb, _, embed_to = se.plane_luts(params.scheme, params.plane)
    order = np.arange(cover.width * cover.height)
    if params.key is not None:
        order = se.pixel_order(cover.width, cover.height, params.key)
    px = np.frombuffer(cover.pixels, dtype=np.uint8)
    slots = np.flatnonzero(emb[px[order]])
    if slots.size < bits.size:
        raise se.CapacityError(required_bits=bits.size, available_bits=slots.size)
    carriers = order[slots[: bits.size]]
    stego_px = px.copy()
    stego_px[carriers] = embed_to[bits, stego_px[carriers]]
    stego = se.GrayImage(cover.width, cover.height, stego_px.tobytes())
    visited = int(slots[bits.size - 1]) + 1
    report = se.EmbedReport(
        bits_embedded=int(bits.size),
        pixels_visited=visited,
        pixels_skipped=visited - int(bits.size),
        psnr_db=metrics.psnr(cover, stego).psnr_db,
    )
    return stego, report


def extract_reference(stego, params) -> bytes:
    """extract by a full scan of every pixel in traversal order."""
    from planestego import stego_engine as se

    emb, digit, _ = se.plane_luts(params.scheme, params.plane)
    order = np.arange(stego.width * stego.height)
    if params.key is not None:
        order = se.pixel_order(stego.width, stego.height, params.key)
    px = np.frombuffer(stego.pixels, dtype=np.uint8)
    slots = np.flatnonzero(emb[px[order]])
    if slots.size < 32:
        raise se.CapacityError(required_bits=32, available_bits=slots.size)
    header = digit[px[order[slots[:32]]]]
    end = 32 + 8 * int.from_bytes(np.packbits(header).tobytes(), "big")
    if slots.size < end:
        raise se.CapacityError(required_bits=end, available_bits=slots.size)
    return np.packbits(digit[px[order[slots[32:end]]]]).tobytes()
