"""Integer numeral systems used as bit-plane decompositions.

Four weight sequences are supported: powers of two (plain binary), a
generalized Fibonacci sequence with Zeckendorf-style validity, the primes
prefixed by 1, and the natural numbers. A pixel value is written as a 0/1
digit string over the first n weights, where n is the smallest count that
lets every value in [0, 2^k - 1] be represented. Among all subsets of
weights summing to a value (and passing the gap rule for Fibonacci), the
canonical choice is the lexicographically greatest digit string read from
the most significant plane down, which a largest-weight-first greedy pass
realizes.

Canonical strings exist only as a (2^k, n) uint8 matrix, built for all
values at once by greedy_digits. Bit depths up to 16 (MAX_BITDEPTH) are
kept because the matrix handles them with no extra code, and it is built
only on request: natural weights at k = 16 give 65536 x 362 uint8, about
24 MB. The image pipeline itself uses k = 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

MAX_BITDEPTH = 16


class SchemeKind(Enum):
    BINARY = "binary"
    FIBONACCI = "fibonacci"
    PRIME = "prime"
    NATURAL = "natural"


@dataclass(frozen=True)
class WeightScheme:
    """A weight-sequence family, plus the Fibonacci order p where relevant."""

    kind: SchemeKind
    p: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.kind, SchemeKind):
            raise ValueError(f"unknown scheme kind: {self.kind!r}")
        if self.p < 1:
            raise ValueError(f"Fibonacci order must be >= 1, got {self.p}")
        if self.kind is not SchemeKind.FIBONACCI and self.p != 1:
            object.__setattr__(self, "p", 1)  # p is meaningless elsewhere


@dataclass(frozen=True)
class WeightTable:
    """The first n weights of a scheme, covering all k-bit values.

    weights[0] is the least significant plane; the sequence is strictly
    ascending.
    """

    scheme: WeightScheme
    k: int
    n: int
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_BITDEPTH:
            raise ValueError(f"bit depth must be in [1, {MAX_BITDEPTH}], got {self.k}")
        if self.n != len(self.weights) or self.n < 1:
            raise ValueError("plane count does not match weight list")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if any(a >= b for a, b in zip(self.weights, self.weights[1:])):
            raise ValueError("weights must be strictly ascending")

    @property
    def max_value(self) -> int:
        return (1 << self.k) - 1


def _first_primes(count: int) -> list[int]:
    """The first `count` primes by trial division (count stays small)."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def generate_weights(scheme: WeightScheme, n: int) -> tuple[int, ...]:
    """First n weights of the scheme, ascending."""
    if n < 1:
        raise ValueError("need at least one weight")
    kind = scheme.kind
    if kind is SchemeKind.BINARY:
        return tuple(1 << i for i in range(n))
    if kind is SchemeKind.NATURAL:
        return tuple(i + 1 for i in range(n))
    if kind is SchemeKind.PRIME:
        return (1, *_first_primes(n - 1))
    # Fibonacci order p: start 1, 2, ..., p+1, then each term is the sum of
    # the previous one and the one p+1 places back. For p = 1 this is
    # 1, 2, 3, 5, 8, ... (the classic sequence with the duplicate leading 1
    # removed, which the Zeckendorf uniqueness argument needs).
    p = scheme.p
    weights: list[int] = []
    for i in range(n):
        weights.append(i + 1 if i <= p else weights[i - 1] + weights[i - p - 1])
    return tuple(weights)


def _gap(scheme: WeightScheme) -> int:
    """Minimum index distance between set digits (1 means unconstrained)."""
    return scheme.p + 1 if scheme.kind is SchemeKind.FIBONACCI else 1


def greedy_digits(
    scheme: WeightScheme, weights: tuple[int, ...], limit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy digit strings of every value in [0, limit], and what is left over.

    Runs the greedy pass on all values at once: scanning weights from the
    top, a value takes a weight whenever it still fits and the index is at
    least the scheme's gap below the last taken one. Returns the
    (limit + 1, n) uint8 digit matrix and the per-value remainder, which is
    zero exactly where the pass found a representation.
    """
    gap = _gap(scheme)
    # column-major, since the pass fills one plane at a time
    digits = np.zeros((limit + 1, len(weights)), dtype=np.uint8, order="F")
    remaining = np.arange(limit + 1, dtype=np.int64)
    allowed = np.full(limit + 1, len(weights) - 1, dtype=np.int64)
    for i in range(len(weights) - 1, -1, -1):
        take = (weights[i] <= remaining) & (i <= allowed)
        remaining -= weights[i] * take
        allowed[take] = i - gap
        digits[:, i] = take
    return digits, remaining


def build_weight_table(scheme: WeightScheme, k: int) -> WeightTable:
    """Table with the smallest n whose first n weights cover [0, 2^k - 1].

    No n covers the range while its largest gap-valid subset sum, every
    gap-th weight from the top down, falls short of 2^k - 1, so the search
    starts at the first n that reaches it. From there n grows only while
    the greedy pass leaves some value without a representation. The same
    rule serves every scheme.
    """
    if not 1 <= k <= MAX_BITDEPTH:
        raise ValueError(f"bit depth must be in [1, {MAX_BITDEPTH}], got {k}")
    limit = (1 << k) - 1
    gap = _gap(scheme)
    n = 1
    while sum(generate_weights(scheme, n)[::-gap]) < limit:
        n += 1
    while True:
        weights = generate_weights(scheme, n)
        if not greedy_digits(scheme, weights, limit)[1].any():
            return WeightTable(scheme=scheme, k=k, n=n, weights=weights)
        if n > limit:
            raise ValueError(f"no covering weight table for {scheme} at k={k}")
        n += 1
