import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planestego.image_io import GrayImage
from planestego.metrics import psnr
from oracles import (
    embed_reference,
    extract_reference,
    fisher_yates_reference,
    plane_oracle,
)
from planestego import stego_engine
from planestego.number_systems import SchemeKind, WeightScheme
from planestego.stego_engine import (
    CapacityError,
    StegoParams,
    TruncationError,
    capacity,
    embed,
    extract,
    frame,
    pixel_order,
    table_for,
    unframe,
)

ALL_KINDS = list(SchemeKind)


def random_cover(width=96, height=96, seed=101):
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, width * height, dtype=np.uint8)
    return GrayImage(width, height, px.tobytes())


def params_for(kind, plane=0, key=None, p=1):
    return StegoParams(WeightScheme(kind, p=p), plane=plane, key=key)


def carrier_pixels(cover, params, bit_count):
    """First bit_count embeddable pixel indices, recomputed from scratch."""
    emb, _, _ = plane_oracle(table_for(params.scheme), params.plane)
    order = pixel_order(cover.width, cover.height, params.key)
    px = np.frombuffer(cover.pixels, dtype=np.uint8)
    slots = np.flatnonzero(emb[px[order]])
    return order[slots[:bit_count]]


class TestFrame:
    def test_empty_payload(self):
        assert frame(b"").tolist() == [0] * 32

    def test_single_byte(self):
        bits = frame(b"A")
        assert bits[:32].tolist() == [0] * 31 + [1]
        assert bits[32:].tolist() == [0, 1, 0, 0, 0, 0, 0, 1]

    @given(st.binary(max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_unframe_roundtrip(self, payload):
        assert unframe(frame(payload)) == payload

    def test_unframe_short_header(self):
        with pytest.raises(ValueError):
            unframe(np.zeros(31, dtype=np.uint8))

    def test_unframe_short_payload(self):
        bits = frame(b"xy")[:40]
        with pytest.raises(ValueError):
            unframe(bits)


class TestPixelOrder:
    def test_identity_without_key(self):
        assert pixel_order(2, 2).tolist() == [0, 1, 2, 3]

    def test_key_determinism(self):
        a = pixel_order(16, 16, b"k1")
        b = pixel_order(16, 16, b"k1")
        assert a.tolist() == b.tolist()

    def test_keys_give_distinct_orders(self):
        a = pixel_order(16, 16, b"k1")
        b = pixel_order(16, 16, b"k2")
        assert a.tolist() != b.tolist()
        assert a.tolist() != pixel_order(16, 16).tolist()

    @given(
        w=st.integers(1, 12),
        h=st.integers(1, 12),
        key=st.one_of(st.none(), st.binary(min_size=1, max_size=8)),
    )
    @settings(max_examples=40, deadline=None)
    def test_always_a_bijection(self, w, h, key):
        order = pixel_order(w, h, key)
        assert sorted(order.tolist()) == list(range(w * h))

    def test_single_pixel(self):
        assert pixel_order(1, 1, b"any").tolist() == [0]

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            pixel_order(0, 5)


ORDER_KEYS = [b"", b"k", bytes(range(256)) * 3]


class TestKeyedOrderMatchesReference:
    @pytest.mark.parametrize("key", ORDER_KEYS, ids=["empty", "short", "long"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 1001, 65536, 100003])
    def test_sizes(self, n, key):
        assert pixel_order(n, 1, key).tolist() == fisher_yates_reference(n, key)

    @pytest.mark.parametrize("shape", [(7, 5), (5, 7), (1, 300), (300, 1), (64, 64)])
    def test_shapes(self, shape):
        w, h = shape
        for key in ORDER_KEYS:
            assert pixel_order(w, h, key).tolist() == fisher_yates_reference(w * h, key)

    @given(w=st.integers(1, 40), h=st.integers(1, 40), key=st.binary(max_size=16))
    @settings(max_examples=150, deadline=None)
    def test_property(self, w, h, key):
        assert pixel_order(w, h, key).tolist() == fisher_yates_reference(w * h, key)

    def test_order_is_int64_and_read_only(self):
        order = pixel_order(9, 9, b"k")
        assert order.dtype == np.int64
        with pytest.raises(ValueError):
            order[0] = 1


class TestCapacity:
    def test_binary_everything_embeddable(self):
        cover = random_cover(20, 10)
        assert capacity(cover, params_for(SchemeKind.BINARY)) == 200

    def test_zero_image_natural_plane0(self):
        img = GrayImage(7, 5, bytes(35))
        assert capacity(img, params_for(SchemeKind.NATURAL)) == 35

    def test_key_does_not_change_capacity(self):
        cover = random_cover(32, 32)
        for kind in ALL_KINDS:
            assert capacity(cover, params_for(kind, plane=1)) == capacity(
                cover, params_for(kind, plane=1, key=b"s")
            )


@pytest.fixture
def orders(monkeypatch):
    """A fresh, empty order cache for one test."""
    fresh = type(stego_engine._orders)()
    monkeypatch.setattr(stego_engine, "_orders", fresh)
    return fresh


class TestCaches:
    def test_order_budget_holds_both_2048_orders(self):
        assert stego_engine._ORDER_CACHE_BYTES >= 2 * 2048 * 2048 * 8

    def test_order_cache_bounded_by_bytes(self, orders, monkeypatch):
        budget = 10 * 32 * 32 * 8 + 100
        monkeypatch.setattr(stego_engine, "_ORDER_CACHE_BYTES", budget)
        kept = []
        for k in range(50):
            kept.append(pixel_order(32, 32, b"key %d" % k))
            assert sum(o.nbytes for o in orders.values()) <= budget
        assert len(orders) == 10
        assert pixel_order(32, 32, b"key 49") is kept[-1]
        assert pixel_order(32, 32, b"key 0") is not kept[0]

    def test_order_cache_keeps_recently_used(self, orders, monkeypatch):
        monkeypatch.setattr(stego_engine, "_ORDER_CACHE_BYTES", 2 * 16 * 8)
        a = pixel_order(4, 4, b"a")
        pixel_order(4, 4, b"b")
        assert pixel_order(4, 4, b"a") is a
        pixel_order(4, 4, b"c")
        assert pixel_order(4, 4, b"a") is a

    def test_oversized_order_not_cached(self, orders, monkeypatch):
        monkeypatch.setattr(stego_engine, "_ORDER_CACHE_BYTES", 8 * 8)
        small = pixel_order(2, 4, b"k")
        assert pixel_order(3, 3).tolist() == list(range(9))
        assert [o is small for o in orders.values()] == [True]

    def test_unkeyed_order_not_cached(self, orders):
        order = pixel_order(5, 3)
        assert order.tolist() == list(range(15))
        assert not order.flags.writeable
        assert not orders

    def test_order_cache_bounded_in_entries(self, orders):
        for k in range(2 * stego_engine._CACHE_ENTRIES):
            pixel_order(1, 1, b"%d" % k)
        assert len(orders) == stego_engine._CACHE_ENTRIES

    def test_bounded_under_many_fibonacci_orders(self):
        bound = stego_engine._CACHE_ENTRIES
        img = GrayImage(1, 1, bytes(1))
        for p in range(1, 2 * bound + 2):
            capacity(img, params_for(SchemeKind.FIBONACCI, p=p))
            for cache in (stego_engine._map_for, stego_engine._plane_luts):
                assert cache.cache_info().currsize <= bound


class TestStegoParams:
    def test_plane_out_of_range(self):
        with pytest.raises(ValueError):
            StegoParams(WeightScheme(SchemeKind.BINARY), plane=8)
        with pytest.raises(ValueError):
            StegoParams(WeightScheme(SchemeKind.NATURAL), plane=-1)

    def test_key_normalized_to_bytes(self):
        params = StegoParams(WeightScheme(SchemeKind.BINARY), key=bytearray(b"k"))
        assert isinstance(params.key, bytes)


class TestEmbedExtract:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("key", [None, b"round trip"], ids=["nokey", "keyed"])
    def test_roundtrip_all_planes_of_interest(self, kind, key):
        cover = random_cover()
        payload = bytes(range(64))
        n = table_for(WeightScheme(kind)).n
        for plane in (0, 1, n - 1):
            params = params_for(kind, plane=plane, key=key)
            stego, report = embed(cover, payload, params)
            assert extract(stego, params) == payload
            assert report.bits_embedded == 32 + 8 * len(payload)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("key", [None, b"higher order"], ids=["nokey", "keyed"])
    def test_fibonacci_higher_order_roundtrip(self, p, key):
        cover = random_cover(64, 64, seed=5)
        cover_px = np.frombuffer(cover.pixels, dtype=np.uint8).astype(np.int16)
        table = table_for(WeightScheme(SchemeKind.FIBONACCI, p=p))
        for plane in (0, 1, table.n - 1):
            params = params_for(SchemeKind.FIBONACCI, plane=plane, key=key, p=p)
            full = capacity(cover, params) // 8 - 4
            for size in (0, 1, full):
                payload = np.random.default_rng([p, plane, size]).bytes(size)
                stego, report = embed(cover, payload, params)
                assert extract(stego, params) == payload
                carriers = carrier_pixels(cover, params, report.bits_embedded)
                stego_px = np.frombuffer(stego.pixels, dtype=np.uint8).astype(np.int16)
                changed = np.flatnonzero(stego_px != cover_px)
                assert np.isin(changed, carriers).all()
                assert np.abs(stego_px - cover_px).max() <= table.weights[plane]

    def test_single_character_roundtrip(self):
        cover = random_cover(32, 32, seed=65)
        for kind in ALL_KINDS:
            params = params_for(kind)
            stego, _ = embed(cover, b"A", params)
            assert extract(stego, params) == b"\x41"

    def test_untouched_pixels_match_cover(self):
        cover = random_cover(seed=7)
        payload = b"only some pixels change"
        params = params_for(SchemeKind.PRIME, plane=2, key=b"spread")
        stego, report = embed(cover, payload, params)
        carriers = carrier_pixels(cover, params, report.bits_embedded)
        cover_px = np.frombuffer(cover.pixels, dtype=np.uint8)
        stego_px = np.frombuffer(stego.pixels, dtype=np.uint8)
        changed = np.flatnonzero(cover_px != stego_px)
        assert np.isin(changed, carriers).all()

    def test_empty_payload_header_only(self):
        cover = random_cover(16, 4, seed=3)
        params = params_for(SchemeKind.BINARY)
        stego, report = embed(cover, b"", params)
        assert extract(stego, params) == b""
        assert report.bits_embedded == 32
        stego_px = np.frombuffer(stego.pixels, dtype=np.uint8)
        assert not (stego_px[:32] & 1).any()  # header is 32 zero bits
        assert stego.pixels[32:] == cover.pixels[32:]

    def test_distortion_bounded_by_plane_weight(self):
        cover = random_cover(seed=13)
        for kind in ALL_KINDS:
            table = table_for(WeightScheme(kind))
            for plane in (0, table.n - 1):
                params = params_for(kind, plane=plane)
                stego, _ = embed(cover, b"bound check", params)
                a = np.frombuffer(cover.pixels, dtype=np.uint8).astype(np.int16)
                b = np.frombuffer(stego.pixels, dtype=np.uint8).astype(np.int16)
                assert np.abs(a - b).max() <= table.weights[plane]

    def test_deterministic_stego_output(self):
        cover = random_cover(seed=23)
        params = params_for(SchemeKind.FIBONACCI, plane=1, key=b"same")
        first, _ = embed(cover, b"repeatable", params)
        second, _ = embed(cover, b"repeatable", params)
        assert first.pixels == second.pixels

    def test_report_fields(self):
        cover = random_cover(seed=31)
        params = params_for(SchemeKind.NATURAL, plane=0)
        stego, report = embed(cover, b"abc", params)
        assert report.bits_embedded == 32 + 24
        assert report.pixels_visited - report.pixels_skipped == report.bits_embedded
        carriers = carrier_pixels(cover, params, report.bits_embedded)
        order = pixel_order(cover.width, cover.height).tolist()
        assert report.pixels_visited == order.index(int(carriers[-1])) + 1
        assert report.psnr_db == psnr(cover, stego).psnr_db

    def test_capacity_error_names_both_sides(self):
        cover = random_cover(4, 4)
        params = params_for(SchemeKind.BINARY)
        with pytest.raises(CapacityError) as exc:
            embed(cover, b"way too much data", params)
        assert exc.value.required_bits == 32 + 8 * len(b"way too much data")
        assert exc.value.available_bits == 16
        assert "168" in str(exc.value) and "16" in str(exc.value)

    def test_extract_header_truncation(self):
        # craft a stego image whose header promises more than the image holds
        px = np.zeros(100, dtype=np.uint8)
        length_bits = np.unpackbits(
            np.frombuffer((65536).to_bytes(4, "big"), dtype=np.uint8)
        )
        px[:32] |= length_bits
        img = GrayImage(10, 10, px.tobytes())
        with pytest.raises(TruncationError):
            extract(img, params_for(SchemeKind.BINARY))

    def test_extract_tiny_image_truncation(self):
        img = GrayImage(4, 4, bytes(16))
        with pytest.raises(TruncationError):
            extract(img, params_for(SchemeKind.BINARY))

    def test_wrong_key_fails_or_garbles(self):
        cover = random_cover(seed=47)
        payload = bytes(200)
        stego, _ = embed(cover, payload, params_for(SchemeKind.BINARY, key=b"right"))
        try:
            recovered = extract(stego, params_for(SchemeKind.BINARY, key=b"wrong"))
        except TruncationError:
            return
        assert recovered != payload

    @given(payload=st.binary(max_size=80), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random(self, payload, data):
        # natural plane 0 is the scarcest carrier (~13% of random pixels),
        # so 96x96 leaves ample capacity for 80-byte payloads
        kind = data.draw(st.sampled_from(ALL_KINDS))
        key = data.draw(st.one_of(st.none(), st.binary(min_size=1, max_size=6)))
        cover = random_cover(96, 96, seed=59)
        params = params_for(kind, plane=0, key=key)
        stego, _ = embed(cover, payload, params)
        assert extract(stego, params) == payload


def outcome(fn, *args):
    """fn's result, or the type, message and bit counts of what it raised."""
    try:
        return fn(*args)
    except (CapacityError, TruncationError) as exc:
        return type(exc), str(exc), vars(exc)


def sparse_cover(params, size, rate, seed):
    """1 x size cover in which each pixel is embeddable with probability rate."""
    emb, _, _ = stego_engine._plane_luts(params.scheme, params.plane)
    rng = np.random.default_rng(seed)
    carry = rng.random(size) < rate
    px = np.where(
        carry,
        rng.choice(np.flatnonzero(emb), size),
        rng.choice(np.flatnonzero(~emb), size),
    )
    return GrayImage(size, 1, px.astype(np.uint8).tobytes())


def chunk_covers(params):
    """Covers larger than the first scan round, and a sparse one that needs
    several rounds for a 1 KiB payload (no value is skipped in binary)."""
    covers = [random_cover(300, 300, seed=71), random_cover(70001, 1, seed=72)]
    emb, _, _ = stego_engine._plane_luts(params.scheme, params.plane)
    if not emb.all():
        covers.append(sparse_cover(params, 500_000, 0.02, seed=73))
    return covers


FULL_SCAN_CASES = [
    (kind, plane)
    for kind in ALL_KINDS
    for plane in sorted({0, 1, table_for(WeightScheme(kind)).n - 1})
]


class TestMatchesFullScan:
    """The prefix scan against the full-gather reference, bit for bit."""

    @pytest.mark.parametrize("key", [None, b"full scan"], ids=["nokey", "keyed"])
    @pytest.mark.parametrize(
        "kind,plane", FULL_SCAN_CASES, ids=lambda c: getattr(c, "value", c)
    )
    def test_embed_and_extract(self, kind, plane, key):
        params = params_for(kind, plane=plane, key=key)
        for cover in chunk_covers(params):
            full = max(0, capacity(cover, params) // 8 - 4)
            assert outcome(extract, cover, params) == outcome(
                extract_reference, cover, params
            )
            for size in (0, 1, min(1024, full), full, full + 1):
                payload = np.random.default_rng([plane, size]).bytes(size)
                got = outcome(embed, cover, payload, params)
                assert got == outcome(embed_reference, cover, payload, params)
                if isinstance(got[0], GrayImage):
                    assert extract(got[0], params) == extract_reference(got[0], params)
                    assert extract(got[0], params) == payload

    @pytest.mark.parametrize("last", [65535, 65536, 196607, 196608, 199999])
    def test_last_carrier_at_round_boundaries(self, last):
        # natural plane 0 carries at 0 and skips 255; the 40th slot of a
        # 1-byte frame sits at `last`, the end or start of a scan round
        px = np.full(200_000, 255, dtype=np.uint8)
        px[:39] = 0
        px[last] = 0
        cover = GrayImage(px.size, 1, px.tobytes())
        params = params_for(SchemeKind.NATURAL)
        stego, report = embed(cover, b"A", params)
        assert report.pixels_visited == last + 1
        assert (stego, report) == embed_reference(cover, b"A", params)
        assert extract(stego, params) == extract_reference(stego, params) == b"A"

    def test_truncation_messages(self):
        params = params_for(SchemeKind.BINARY)
        px = np.zeros(100_000, dtype=np.uint8)
        px[:32] |= np.unpackbits(np.frombuffer((65536).to_bytes(4, "big"), np.uint8))
        for img in (GrayImage(4, 4, bytes(16)), GrayImage(px.size, 1, px.tobytes())):
            got = outcome(extract, img, params)
            assert got[0] is TruncationError
            assert got == outcome(extract_reference, img, params)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_psnr_is_the_metrics_psnr(self, kind):
        cover = random_cover(300, 300, seed=79)
        params = params_for(kind, plane=1, key=b"psnr")
        stego, report = embed(cover, bytes(range(256)) * 4, params)
        assert report.psnr_db == psnr(cover, stego).psnr_db
        # every carrier already holds its bit: nothing changes
        again, report = embed(stego, bytes(range(256)) * 4, params)
        assert again == stego
        assert report.psnr_db == psnr(stego, again).psnr_db == float("inf")
