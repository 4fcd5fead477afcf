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

A WeightTable holds these strings as `digits`, a read-only (2^k, n)
uint8 matrix built by one greedy_digits pass, and cannot be made from
weights that leave a value unrepresented. Bit depths up to 16
(MAX_BITDEPTH) cost no extra code and are built only on request: natural
weights at k = 16 give 65536 x 362 uint8, about 24 MB. The image pipeline
uses k = 8.

That n is the first whose reach R(n), the largest gap-valid sum of the
first n weights (every gap-th one from the top down), is at least
2^k - 1, because greedy over those weights covers all of [0, R(n)]:

- Gap 1 (binary, natural, primes): R(n) = S(n - 1), where
  S(m) = w[0] + ... + w[m]. Here w[0] = 1 and w[m] <= 1 + S(m - 1); for
  the primes, Bertrand's postulate gives w[m] <= 2 w[m-1] - 1 for m >= 2,
  and w[m-1] <= 1 + S(m - 2). So by induction on m, a value v >= w[m]
  leaves v - w[m] <= S(m - 1), and a smaller v is at most S(m - 1).
- Fibonacci of order p (gap g = p + 1): w[i] = i + 1 for i <= p and
  w[i+1] = w[i] + w[i+1-g] after, so R(n) = w[n] - 1 by induction. A
  value v < w[n] takes the largest w[i] <= v and leaves less than
  w[i+1] - w[i], which is 1 for i < p and w[i+1-g] otherwise, so by
  induction the weights at indices <= i - g, which greedy may still
  take, cover the rest (the generalized Zeckendorf argument).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
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
        p = operator.index(self.p)  # an int: 2.0 must not share p = 2's caches
        if p < 1:
            raise ValueError(f"Fibonacci order must be >= 1, got {p}")
        # p is meaningless elsewhere
        object.__setattr__(self, "p", p if self.kind is SchemeKind.FIBONACCI else 1)


@dataclass(frozen=True)
class WeightTable:
    """The first n weights of a scheme, covering all k-bit values.

    n, the plane count, is len(weights). weights[0] is the least
    significant plane; the sequence is strictly ascending. digits[v, i],
    read-only, is digit i of the canonical string of v; weights that leave
    some value unrepresented, none at all included, raise ValueError.
    """

    scheme: WeightScheme
    k: int
    weights: tuple[int, ...]
    digits: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_BITDEPTH:
            raise ValueError(f"bit depth must be in [1, {MAX_BITDEPTH}], got {self.k}")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if any(a >= b for a, b in zip(self.weights, self.weights[1:])):
            raise ValueError("weights must be strictly ascending")
        digits, leftover = greedy_digits(self.scheme, self.weights, self.max_value)
        if leftover.any():
            raise ValueError(
                f"no covering weight table for {self.scheme} at k={self.k}"
            )
        digits.flags.writeable = False
        object.__setattr__(self, "digits", digits)

    @property
    def n(self) -> int:
        return len(self.weights)

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
        # any gap past the plane count means the same; clamped, it fits int64
        allowed[take] = max(i - gap, -1)
        digits[:, i] = take
    return digits, remaining


def build_weight_table(scheme: WeightScheme, k: int) -> WeightTable:
    """Table with the smallest n whose first n weights cover [0, 2^k - 1].

    That is the first n whose reach is at least 2^k - 1: no smaller n
    covers the range, and greedy covers it at this n (module docstring).
    The reach is a running sum over weights generated in doubling batches,
    so the search costs about as much as generating n weights.
    """
    if not 1 <= k <= MAX_BITDEPTH:
        raise ValueError(f"bit depth must be in [1, {MAX_BITDEPTH}], got {k}")
    limit = (1 << k) - 1
    gap = _gap(scheme)
    weights = generate_weights(scheme, 1)
    # reach[i]: the largest gap-valid subset sum of the first i + 1 weights
    reach: list[int] = []
    while not reach or reach[-1] < limit:
        i = len(reach)
        if i == len(weights):
            weights = generate_weights(scheme, 2 * i)
        reach.append(weights[i] + (reach[i - gap] if i >= gap else 0))
    return WeightTable(scheme=scheme, k=k, weights=weights[: len(reach)])


def build_map(table: WeightTable) -> np.ndarray:
    """The table's canonical digit matrix (table.digits)."""
    return table.digits
