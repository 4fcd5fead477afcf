import itertools

import numpy as np
import pytest

from oracles import digit_mask, gap_ok, plane_oracle
from planestego.number_systems import (
    SchemeKind,
    WeightScheme,
    build_map,
    build_weight_table,
)
from planestego.stego_engine import plane_luts, table_for

ALL_KINDS = list(SchemeKind)
# the four schemes plus higher Fibonacci orders
ORACLE_SCHEMES = [WeightScheme(kind) for kind in ALL_KINDS] + [
    WeightScheme(SchemeKind.FIBONACCI, p=p) for p in (2, 3, 4)
]


@pytest.fixture(scope="module")
def tables():
    return {kind: build_weight_table(WeightScheme(kind), 8) for kind in ALL_KINDS}


def luts(kind, plane):
    return plane_luts(WeightScheme(kind), plane)


class TestBuildMap:
    def test_binary_valid_set_is_every_string(self, tables):
        t = tables[SchemeKind.BINARY]
        assert {tuple(row) for row in t.digits.tolist()} == set(
            itertools.product((0, 1), repeat=8)
        )

    def test_one_canonical_string_per_value(self, tables):
        for t in tables.values():
            assert t.digits.shape == (256, t.n)
            assert len(np.unique(t.digits, axis=0)) == 256

    def test_forward_composes_back(self, tables):
        for t in tables.values():
            assert (t.digits @ np.array(t.weights) == np.arange(256)).all()

    def test_fibonacci_strings_gap_valid(self, tables):
        t = tables[SchemeKind.FIBONACCI]
        assert all(gap_ok(digit_mask(row), 1) for row in t.digits)

    def test_digits_read_only(self, tables):
        with pytest.raises(ValueError):
            tables[SchemeKind.PRIME].digits[0, 0] = 1

    def test_build_map_is_the_tables_digits(self, tables):
        t = tables[SchemeKind.NATURAL]
        assert build_map(t) is t.digits


class TestPlaneLuts:
    @pytest.mark.parametrize("plane", [-1, 8])
    def test_plane_out_of_range(self, plane):
        # a negative plane would otherwise index the digit matrix from the end
        with pytest.raises(ValueError, match=rf"plane {plane} out of range \[0, 7\]"):
            plane_luts(WeightScheme(SchemeKind.BINARY), plane)

    def test_cached_and_read_only(self):
        scheme = WeightScheme(SchemeKind.PRIME)
        tables = plane_luts(scheme, 3)
        assert plane_luts(scheme, 3) is tables
        assert not any(arr.flags.writeable for arr in tables)


class TestEmbeddable:
    def test_binary_always(self):
        assert all(luts(SchemeKind.BINARY, plane)[0].all() for plane in range(8))

    def test_natural_zero_plane0(self):
        assert luts(SchemeKind.NATURAL, 0)[0][0]

    def test_natural_255_top_plane(self):
        assert not luts(SchemeKind.NATURAL, 22)[0][255]


class TestEmbedDigit:
    def test_classic_lsb_set(self):
        _, _, embed_to = luts(SchemeKind.BINARY, 0)
        assert embed_to[1, 170] == 171
        assert embed_to[0, 170] == 170

    def test_natural_zero_to_one(self):
        assert luts(SchemeKind.NATURAL, 0)[2][1, 0] == 1

    def test_rejects_non_embeddable(self):
        # a value that cannot carry a bit is never moved
        emb, _, embed_to = luts(SchemeKind.NATURAL, 22)
        assert not emb[255]
        assert embed_to[:, 255].tolist() == [255, 255]


class TestExtractDigit:
    def test_zero_everywhere(self, tables):
        for kind, t in tables.items():
            assert all(luts(kind, pl)[1][0] == 0 for pl in range(t.n))

    def test_binary_lsb(self):
        assert luts(SchemeKind.BINARY, 0)[1][171] == 1

    def test_natural_255_top_plane(self):
        assert luts(SchemeKind.NATURAL, 22)[1][255] == 1


class TestPlaneContract:
    """Exhaustive k=8 checks of the embed/extract digit contract."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_consistency_stability_symmetry_bound(self, tables, kind):
        t = tables[kind]
        values = np.arange(256)
        for plane in range(t.n):
            emb, digit, embed_to = plane_luts(WeightScheme(kind), plane)
            assert (embed_to[digit[emb], values[emb]] == values[emb]).all()
            for bit in (0, 1):
                u = embed_to[bit, emb]
                assert (digit[u] == bit).all()
                assert (np.abs(u.astype(int) - values[emb]) <= t.weights[plane]).all()
                assert emb[u].all()
            assert (embed_to[:, ~emb] == values[~emb]).all()

    @pytest.mark.parametrize("scheme", ORACLE_SCHEMES, ids=lambda s: f"{s.kind.value}-p{s.p}")
    def test_matches_bruteforce_oracle(self, scheme):
        table = table_for(scheme)
        for plane in range(table.n):
            expected = plane_oracle(table, plane)
            for got, want in zip(plane_luts(scheme, plane), expected):
                assert got.tolist() == want.tolist(), (scheme, plane)
