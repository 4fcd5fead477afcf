import itertools

import numpy as np
import pytest

from oracles import canonical_masks, digit_mask, gap_ok, plane_oracle
from planestego.image_io import GrayImage
from planestego.number_systems import SchemeKind, WeightScheme, build_weight_table
from planestego.plane_codec import build_map, extract_plane, plane_luts

ALL_KINDS = list(SchemeKind)
# the four schemes plus higher Fibonacci orders
ORACLE_SCHEMES = [WeightScheme(kind) for kind in ALL_KINDS] + [
    WeightScheme(SchemeKind.FIBONACCI, p=p) for p in (2, 3, 4)
]


def map_for(kind, k=8):
    return build_map(build_weight_table(WeightScheme(kind), k))


@pytest.fixture(scope="module")
def maps():
    return {kind: map_for(kind) for kind in ALL_KINDS}


def luts(maps, kind, plane):
    return plane_luts(maps[kind], plane)


class TestBuildMap:
    def test_binary_valid_set_is_every_string(self, maps):
        m = maps[SchemeKind.BINARY]
        assert {tuple(row) for row in m.digits.tolist()} == set(
            itertools.product((0, 1), repeat=8)
        )

    def test_one_canonical_string_per_value(self, maps):
        for m in maps.values():
            assert m.digits.shape == (256, m.table.n)
            assert len(np.unique(m.digits, axis=0)) == 256

    def test_forward_composes_back(self, maps):
        for m in maps.values():
            assert (m.digits @ np.array(m.table.weights) == np.arange(256)).all()

    def test_fibonacci_strings_gap_valid(self, maps):
        m = maps[SchemeKind.FIBONACCI]
        assert all(gap_ok(digit_mask(row), 1) for row in m.digits)

    def test_digits_read_only(self, maps):
        with pytest.raises(ValueError):
            maps[SchemeKind.PRIME].digits[0, 0] = 1


class TestExtractPlane:
    def test_all_zero_image(self, maps):
        img = GrayImage(5, 3, bytes(15))
        for m in maps.values():
            assert not extract_plane(img, m, 0).any()

    def test_single_pixel_natural(self, maps):
        m = maps[SchemeKind.NATURAL]
        img = GrayImage(1, 1, bytes([1]))
        assert extract_plane(img, m, 0).tolist() == [[1]]
        assert extract_plane(img, m, 1).tolist() == [[0]]

    def test_matches_scalar_digits(self, maps):
        rng = np.random.default_rng(5)
        px = rng.integers(0, 256, 6 * 4, dtype=np.uint8)
        img = GrayImage(6, 4, px.tobytes())
        m = maps[SchemeKind.PRIME]
        plane = 3
        got = extract_plane(img, m, plane)
        assert got.shape == (4, 6)
        best = canonical_masks(m.table)
        for i, v in enumerate(px):
            assert got[i // 6, i % 6] == best[v] >> plane & 1

    def test_plane_out_of_range(self, maps):
        img = GrayImage(1, 1, bytes(1))
        with pytest.raises(ValueError):
            extract_plane(img, maps[SchemeKind.BINARY], 8)


class TestEmbeddable:
    def test_binary_always(self, maps):
        assert all(luts(maps, SchemeKind.BINARY, plane)[0].all() for plane in range(8))

    def test_natural_zero_plane0(self, maps):
        assert luts(maps, SchemeKind.NATURAL, 0)[0][0]

    def test_natural_255_top_plane(self, maps):
        assert not luts(maps, SchemeKind.NATURAL, 22)[0][255]


class TestEmbedDigit:
    def test_classic_lsb_set(self, maps):
        _, _, embed_to = luts(maps, SchemeKind.BINARY, 0)
        assert embed_to[1, 170] == 171
        assert embed_to[0, 170] == 170

    def test_natural_zero_to_one(self, maps):
        assert luts(maps, SchemeKind.NATURAL, 0)[2][1, 0] == 1

    def test_rejects_non_embeddable(self, maps):
        # a value that cannot carry a bit is never moved
        emb, _, embed_to = luts(maps, SchemeKind.NATURAL, 22)
        assert not emb[255]
        assert embed_to[:, 255].tolist() == [255, 255]


class TestExtractDigit:
    def test_zero_everywhere(self, maps):
        for kind, m in maps.items():
            assert all(luts(maps, kind, pl)[1][0] == 0 for pl in range(m.table.n))

    def test_binary_lsb(self, maps):
        assert luts(maps, SchemeKind.BINARY, 0)[1][171] == 1

    def test_natural_255_top_plane(self, maps):
        assert luts(maps, SchemeKind.NATURAL, 22)[1][255] == 1


class TestPlaneContract:
    """Exhaustive k=8 checks of the embed/extract digit contract."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_consistency_stability_symmetry_bound(self, maps, kind):
        m = maps[kind]
        values = np.arange(256)
        for plane in range(m.table.n):
            emb, digit, embed_to = plane_luts(m, plane)
            assert (embed_to[digit[emb], values[emb]] == values[emb]).all()
            for bit in (0, 1):
                u = embed_to[bit, emb]
                assert (digit[u] == bit).all()
                assert (np.abs(u.astype(int) - values[emb]) <= m.table.weights[plane]).all()
                assert emb[u].all()
            assert (embed_to[:, ~emb] == values[~emb]).all()

    @pytest.mark.parametrize("scheme", ORACLE_SCHEMES, ids=lambda s: f"{s.kind.value}-p{s.p}")
    def test_matches_bruteforce_oracle(self, scheme):
        bitmap = build_map(build_weight_table(scheme, 8))
        for plane in range(bitmap.table.n):
            expected = plane_oracle(bitmap.table, plane)
            for got, want in zip(plane_luts(bitmap, plane), expected):
                assert got.tolist() == want.tolist(), (scheme, plane)
