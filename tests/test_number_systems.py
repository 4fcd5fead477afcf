import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import canonical_masks, digit_mask, gap_ok, min_covering_planes
from planestego import number_systems
from planestego.number_systems import (
    SchemeKind,
    WeightScheme,
    WeightTable,
    build_weight_table,
    generate_weights,
    greedy_digits,
)
from planestego.stego_engine import table_for

BINARY = WeightScheme(SchemeKind.BINARY)
FIBONACCI = WeightScheme(SchemeKind.FIBONACCI)
PRIME = WeightScheme(SchemeKind.PRIME)
NATURAL = WeightScheme(SchemeKind.NATURAL)
ALL_SCHEMES = [BINARY, FIBONACCI, PRIME, NATURAL]
FIBONACCI_P2 = WeightScheme(SchemeKind.FIBONACCI, p=2)
FIBONACCI_P3 = WeightScheme(SchemeKind.FIBONACCI, p=3)


# Plane counts at k = 16, beyond the brute-force oracle's reach, as the
# search has always given them.
K16_PLANES = {
    BINARY: 16,
    FIBONACCI: 23,
    FIBONACCI_P2: 29,
    FIBONACCI_P3: 34,
    PRIME: 158,
    NATURAL: 362,
}


def scheme_id(scheme) -> str:
    return scheme.kind.value if scheme.p == 1 else f"{scheme.kind.value}-p{scheme.p}"


def digits_of(scheme, k=8):
    """The table and its canonical digit matrix."""
    table = build_weight_table(scheme, k)
    return table, table.digits


def composed(table):
    """digits @ weights, a column at a time: at k = 16 a whole-matrix
    product would cast the digits to an int64 copy of up to 190 MB."""
    sums = np.zeros(table.max_value + 1, dtype=np.int64)
    for i, w in enumerate(table.weights):
        sums += table.digits[:, i] * np.int64(w)
    return sums


def first_reaching_count(scheme, k):
    """The first n whose largest gap-valid sum, every gap-th weight from
    the top down, reaches 2^k - 1, found by trying n = 1, 2, ..."""
    gap = scheme.p + 1 if scheme.kind is SchemeKind.FIBONACCI else 1
    n = 1
    while sum(generate_weights(scheme, n)[::-1][::gap]) < (1 << k) - 1:
        n += 1
    return n


def weights_of(v: int, scheme) -> set[int]:
    table, digits = digits_of(scheme)
    return {w for d, w in zip(digits[v], table.weights) if d}


def is_canonical(digits, string) -> bool:
    """Whether the digit string is a row of the canonical matrix."""
    return bool((digits == np.asarray(string, dtype=np.uint8)).all(axis=1).any())


class TestWeightTables:
    def test_binary_k8(self):
        t = build_weight_table(BINARY, 8)
        assert t.n == 8
        assert t.weights == (1, 2, 4, 8, 16, 32, 64, 128)

    def test_fibonacci_k8(self):
        t = build_weight_table(FIBONACCI, 8)
        assert t.n == 12
        assert t.weights == (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233)

    def test_prime_k8(self):
        t = build_weight_table(PRIME, 8)
        assert t.n == 15
        assert t.weights == (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

    def test_natural_k8(self):
        t = build_weight_table(NATURAL, 8)
        assert t.n == 23
        assert t.weights == tuple(range(1, 24))

    @pytest.mark.parametrize("k", range(1, 17))
    def test_binary_n_equals_k(self, k):
        t = build_weight_table(BINARY, k)
        assert t.n == k
        assert t.weights == tuple(1 << i for i in range(k))

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind.value)
    @pytest.mark.parametrize("k", [1, 4, 8, 12])
    def test_weights_strictly_ascending(self, scheme, k):
        t = build_weight_table(scheme, k)
        assert all(a < b for a, b in zip(t.weights, t.weights[1:]))

    @pytest.mark.parametrize("k", [0, -3, 17, 100])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            build_weight_table(NATURAL, k)

    @pytest.mark.parametrize(
        "scheme", [*ALL_SCHEMES, FIBONACCI_P2, FIBONACCI_P3], ids=scheme_id
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_minimal_n_matches_bruteforce(self, scheme, k):
        # representability-based oracle, no greedy involved
        assert build_weight_table(scheme, k).n == min_covering_planes(scheme, k)

    @pytest.mark.parametrize("k", [3, 16])
    def test_uncoverable_weights_raise(self, monkeypatch, k):
        # 2 has no representation over 1, 3, 4, 5, ...: the table must not
        # be made, and at k = 16 too that must show at once
        monkeypatch.setattr(
            number_systems, "generate_weights", lambda scheme, n: (1, *range(3, n + 2))
        )
        with pytest.raises(ValueError, match="no covering"):
            build_weight_table(NATURAL, k)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=scheme_id)
    def test_start_is_final(self, scheme):
        for k in range(1, 17):
            t = build_weight_table(scheme, k)
            assert (composed(t) == np.arange(1 << k)).all(), k
            assert t.n == first_reaching_count(scheme, k), k

    def test_start_is_final_fibonacci_orders(self):
        # a gap past the plane count, even one no int64 holds, means one
        # weight per value
        for p in [*range(1, 65), 2**63, 10**20]:
            scheme = WeightScheme(SchemeKind.FIBONACCI, p=p)
            t = build_weight_table(scheme, 8)
            assert (composed(t) == np.arange(256)).all(), p
            assert t.n == first_reaching_count(scheme, 8), p

    def test_table_checks_its_own_weights(self):
        # 2 has no representation over (1, 3, 4), and 1 none over ()
        for weights in [(1, 3, 4), ()]:
            with pytest.raises(ValueError, match="no covering"):
                WeightTable(NATURAL, k=3, weights=weights)
        # the plane count comes from the weights alone
        for scheme in ALL_SCHEMES:
            table = build_weight_table(scheme, 8)
            assert WeightTable(scheme, 8, table.weights) == table

    def test_digits_do_not_affect_equality(self):
        a, b = build_weight_table(PRIME, 8), build_weight_table(PRIME, 8)
        assert a.digits is not b.digits
        assert a == b and hash(a) == hash(b)
        assert "digits" not in repr(a)

    @pytest.mark.parametrize("scheme", K16_PLANES, ids=scheme_id)
    def test_k16_plane_count(self, scheme):
        assert build_weight_table(scheme, 16).n == K16_PLANES[scheme]


class TestWeightScheme:
    def test_p_normalized_for_non_fibonacci(self):
        assert WeightScheme(SchemeKind.PRIME, p=7).p == 1
        assert WeightScheme(SchemeKind.FIBONACCI, p=2).p == 2

    def test_bad_p(self):
        with pytest.raises(ValueError):
            WeightScheme(SchemeKind.FIBONACCI, p=0)

    @pytest.mark.parametrize("cached", [False, True], ids=["cold", "warm"])
    def test_non_integer_p_raises_type_error(self, cached):
        # 2.0 == 2, so a float order would share p = 2's cache entries
        # once they exist
        table_for.cache_clear()
        if cached:
            table_for(FIBONACCI_P2)
        for p in (2.0, 1.5, "2"):
            with pytest.raises(TypeError):
                WeightScheme(SchemeKind.FIBONACCI, p=p)

    def test_integer_like_p_is_that_p(self):
        scheme = WeightScheme(SchemeKind.FIBONACCI, p=np.int64(2))
        assert type(scheme.p) is int and scheme == FIBONACCI_P2
        assert table_for(scheme).weights == table_for(FIBONACCI_P2).weights

    def test_fibonacci_higher_order_sequences(self):
        assert generate_weights(WeightScheme(SchemeKind.FIBONACCI, p=2), 8) == (
            1, 2, 3, 4, 6, 9, 13, 19,
        )

    @pytest.mark.parametrize("p", [2, 3])
    def test_fibonacci_higher_order_roundtrip(self, p):
        t, digits = digits_of(WeightScheme(SchemeKind.FIBONACCI, p=p))
        assert all(gap_ok(digit_mask(row), p) for row in digits)
        assert (digits @ np.array(t.weights) == np.arange(256)).all()


class TestDecompose:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind.value)
    def test_zero_is_all_zero(self, scheme):
        _, digits = digits_of(scheme)
        assert not digits[0].any()

    def test_natural_255(self):
        assert weights_of(255, NATURAL) == set(range(7, 24))

    def test_fibonacci_100(self):
        assert weights_of(100, FIBONACCI) == {89, 8, 3}

    def test_prime_255(self):
        assert weights_of(255, PRIME) == {43, 41, 37, 31, 29, 23, 19, 17, 13, 2}

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind.value)
    def test_roundtrip_exhaustive_k8(self, scheme):
        t, digits = digits_of(scheme)
        assert digits.shape == (256, t.n)
        assert (digits @ np.array(t.weights) == np.arange(256)).all()

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind.value)
    def test_matches_lexicographic_oracle_k6(self, scheme):
        t, digits = digits_of(scheme, k=6)
        assert [digit_mask(row) for row in digits] == list(canonical_masks(t))

    def test_fibonacci_decompositions_are_gap_valid(self):
        _, digits = digits_of(FIBONACCI)
        assert all(gap_ok(digit_mask(row), 1) for row in digits)

    def test_greedy_leftover_marks_uncovered_values(self):
        # the first 3 natural weights reach 6 at most
        _, leftover = greedy_digits(NATURAL, (1, 2, 3), 8)
        assert leftover.tolist() == [0] * 7 + [1, 2]


class TestCompose:
    def test_all_zero(self):
        t, digits = digits_of(PRIME)
        assert digits[0] @ np.array(t.weights) == 0

    def test_single_unit_weight(self):
        _, digits = digits_of(NATURAL)
        assert digits[1].tolist() == [1] + [0] * 22

    def test_fibonacci_100_inverse(self):
        t, digits = digits_of(FIBONACCI)
        assert digits[100].tolist() == [int(w in {3, 8, 89}) for w in t.weights]

    @given(k=st.integers(1, 8), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random(self, k, data):
        kind = data.draw(st.sampled_from(list(SchemeKind)))
        p = data.draw(st.integers(1, 3)) if kind is SchemeKind.FIBONACCI else 1
        t, digits = digits_of(WeightScheme(kind, p=p), k)
        v = data.draw(st.integers(0, t.max_value))
        assert digits[v] @ np.array(t.weights) == v


class TestZeckendorfValid:
    """Gap rule, read off the canonical Fibonacci strings at k = 8."""

    def test_all_zero(self):
        _, digits = digits_of(FIBONACCI)
        assert is_canonical(digits, [0] * 12)

    def test_spread_indices(self):
        _, digits = digits_of(FIBONACCI)
        string = [0] * 12
        for i in (2, 4, 9):  # the weights 3, 8, 89
            string[i] = 1
        assert is_canonical(digits, string)

    def test_adjacent_indices_rejected(self):
        _, digits = digits_of(FIBONACCI)
        string = [0] * 12
        string[1] = string[2] = 1  # the weights 2 and 3
        assert not is_canonical(digits, string)

    def test_distance_respects_order(self):
        _, p1 = digits_of(FIBONACCI)
        _, p2 = digits_of(WeightScheme(SchemeKind.FIBONACCI, p=2))
        assert is_canonical(p1, [1, 0, 1] + [0] * 9)
        assert not is_canonical(p2, [1, 0, 1] + [0] * 11)


class TestZeckendorfUniqueness:
    def test_exactly_one_valid_subset_per_value(self):
        from oracles import count_zeck_subsets

        t = build_weight_table(FIBONACCI, 8)
        counts = count_zeck_subsets(t.weights, 255, 1)
        assert all(c == 1 for c in counts)
