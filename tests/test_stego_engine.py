import array
import hashlib
import os
import sys
import threading
import time
import tracemalloc
from functools import lru_cache, partial

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
    capacity,
    embed,
    extract,
    frame,
    pixel_order,
    plane_luts,
    table_for,
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
    def test_header_declares_the_frame_length(self, payload):
        bits = frame(payload)
        assert stego_engine._frame_end(bits) == bits.size == 32 + 8 * len(payload)
        assert np.packbits(bits[32:]).tobytes() == payload

    def test_over_2_32_bytes_raises_before_allocating(self):
        class Huge(bytes):
            def __len__(self):
                return 2**32

        def call():
            with pytest.raises(ValueError, match=r"exceeds 2\^32 - 1"):
                frame(Huge())

        assert traced_peak(call) < 1 << 16


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

    @pytest.mark.parametrize("key", [None, b"k"], ids=["unkeyed", "keyed"])
    @pytest.mark.parametrize("cached", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize(
        "dims", [(2.0, 2), (2, 2.0), (2.5, 2), (2, "2")], ids=lambda d: "%rx%r" % d
    )
    def test_non_integer_dimensions_raise_type_error(self, dims, cached, key):
        stego_engine._orders.clear()
        if cached:
            pixel_order(2, 2, key)
        with pytest.raises(TypeError):
            pixel_order(*dims, key)

    def test_integer_like_dimensions(self):
        want = pixel_order(3, 2, b"k")
        assert pixel_order(np.int64(3), np.uint8(2), b"k") is want
        assert pixel_order(np.int64(3), np.int64(2)).tolist() == list(range(6))

    @pytest.mark.parametrize("key", [3, "k"])
    def test_int_or_str_key_raises_type_error(self, key):
        # bytes(3) would be the key b"\0\0\0"
        with pytest.raises(TypeError):
            pixel_order(2, 2, key)

    def test_buffer_key_is_its_bytes(self):
        want = pixel_order(4, 4, b"key").tolist()
        for key in (bytearray(b"key"), memoryview(b"key"), np.frombuffer(b"key", np.uint8)):
            assert pixel_order(4, 4, key).tolist() == want


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

    @pytest.mark.parametrize("workers", [None, 1, 2, 4], ids=["cpus", "1", "2", "4"])
    def test_threaded_size_digest(self, workers, monkeypatch):
        # 2^20 steps take the multi-block, multi-worker stages that the
        # golden vectors' 64^2 images never reach
        if workers is not None:
            monkeypatch.setattr(stego_engine, "_order_workers", lambda count: workers)
        order = stego_engine._keyed_order(2**20, b"golden")
        assert hashlib.sha256(order.astype("<i8").tobytes()).hexdigest() == (
            "89c966d0acf6c4e8cb4df4d316e1b190fd3b3362083446a5426dbfa13122a7b7"
        )

    def test_order_is_int64_and_read_only(self):
        order = pixel_order(9, 9, b"k")
        assert order.dtype == np.int64
        with pytest.raises(ValueError):
            order[0] = 1


BLOCK = stego_engine._ORDER_BLOCK


@lru_cache(maxsize=None)
def reference_order(n):
    return fisher_yates_reference(n, b"workers")


def resolve_range(n, key, base):
    """(order, leftovers) of `_resolve_range` over the steps [base, n)."""
    seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    keys = np.empty(n - base, dtype=np.uint64)
    left = stego_engine._resolve_range(seed, n, keys, base)
    return keys.tolist(), left.tolist()


class TestRangeResolve:
    """The steps from base up, resolved alone, against the sequential
    shuffle: their order is the order's top, and their leftovers are the
    shuffle's state below base just before step base."""

    # 3 keys a chunk splits groups and pointer chains across chunks
    @pytest.mark.parametrize("chunk", [3, stego_engine._CHAIN_KEYS])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64])
    def test_every_base(self, n, chunk, monkeypatch):
        monkeypatch.setattr(stego_engine, "_CHAIN_KEYS", chunk)
        for key in ORDER_KEYS:
            full = fisher_yates_reference(n, key)
            for base in range(n + 1):
                order, left = resolve_range(n, key, base)
                assert order == full[base:]
                assert left == fisher_yates_reference(n, key, base)[:base]

    @given(n=st.integers(1, 3000), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_property(self, n, data):
        base = data.draw(st.integers(0, n))
        order, left = resolve_range(n, b"range", base)
        assert order == fisher_yates_reference(n, b"range")[base:]
        assert left == fisher_yates_reference(n, b"range", base)[:base]

    @pytest.mark.parametrize("base", [0, BLOCK, 2 * BLOCK, 3 * BLOCK, BLOCK + 12345])
    def test_bases_of_a_multi_block_order(self, base):
        n = 3 * BLOCK + 17
        order, left = resolve_range(n, b"workers", base)
        assert order == reference_order(n)[base:]
        assert left == fisher_yates_reference(n, b"workers", base)[:base]


class TestKeyedOrderWorkers:
    """The order built in two halves on two threads against the sequential
    shuffle, and the second thread's lifetime."""

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_any_worker_count_matches_reference(self, workers, n, monkeypatch):
        monkeypatch.setattr(stego_engine, "_order_workers", lambda count: workers)
        before = threading.active_count()
        order = stego_engine._keyed_order(n, b"workers")
        assert threading.active_count() == before
        assert order.tolist() == reference_order(n)

    def test_large_order_uses_the_cpus_it_may(self, monkeypatch):
        n = stego_engine._THREADED_MIN
        workers = stego_engine._order_workers(n)
        if hasattr(os, "sched_getaffinity"):
            assert workers == min(len(os.sched_getaffinity(0)), n // BLOCK)
        before = threading.active_count()
        order = stego_engine._keyed_order(n, b"cpus")
        assert threading.active_count() == before
        monkeypatch.setattr(stego_engine, "_order_workers", lambda count: 1)
        assert np.array_equal(order, stego_engine._keyed_order(n, b"cpus"))

    @pytest.mark.parametrize("cpus, want", [(None, 1), (1, 1), (3, 3), (64, 16)])
    def test_workers_without_an_affinity_mask(self, cpus, want, monkeypatch):
        # as on macOS and Windows: the CPU count, at most one per block
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        n = stego_engine._THREADED_MIN
        assert n // BLOCK == 16
        assert stego_engine._order_workers(n) == want
        for smaller in (1, BLOCK, n - 1):
            assert stego_engine._order_workers(smaller) == 1

    def test_small_order_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda t: started.append(t) or start(t)
        )
        stego_engine._keyed_order(512 * 512, b"small")
        assert started == []

    def test_many_workers_start_one_thread(self, monkeypatch):
        # the two halves take one thread beside the caller's, whatever the
        # CPU count
        monkeypatch.setattr(stego_engine, "_order_workers", lambda count: 32)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda t: started.append(t) or start(t)
        )
        n = 3 * BLOCK + 17
        assert stego_engine._keyed_order(n, b"workers").tolist() == reference_order(n)
        assert len(started) <= 1

    @pytest.mark.parametrize("half", ["top", "bottom"])
    def test_a_failing_half_reraises_and_joins(
        self, half, cold_order_cache, monkeypatch
    ):
        monkeypatch.setattr(stego_engine, "_order_workers", lambda count: 2)
        resolve = stego_engine._resolve_range

        def fail_one_half(seed, count, keys, base=0):
            if (base > 0) == (half == "top"):
                raise MemoryError(half)
            return resolve(seed, count, keys, base)

        monkeypatch.setattr(stego_engine, "_resolve_range", fail_one_half)
        before = threading.active_count()
        with pytest.raises(MemoryError, match=half):
            pixel_order(3 * BLOCK + 17, 1, b"fails")
        assert threading.active_count() == before
        assert cold_order_cache == {}

    def test_over_2_32_steps_raise_before_any_thread_or_allocation(self, monkeypatch):
        # 2^32 + 2^16 steps would need about 34 GB: the limit must come first
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda t: started.append(t) or start(t)
        )

        def call():
            with pytest.raises(ValueError, match=r"2\^32"):
                pixel_order(2**16, 2**16 + 1, b"k")

        assert traced_peak(call) < 64 * 1024
        assert started == []


# every plane of the four schemes at p = 1, and of Fibonacci p = 2
EVERY_PLANE = [
    (scheme, plane)
    for scheme in [WeightScheme(kind) for kind in ALL_KINDS]
    + [WeightScheme(SchemeKind.FIBONACCI, p=2)]
    for plane in range(table_for(scheme).n)
]


class TestCapacity:
    @pytest.mark.parametrize(
        "scheme, plane",
        EVERY_PLANE,
        ids=[f"{s.kind.value}-p{s.p}-{plane}" for s, plane in EVERY_PLANE],
    )
    def test_byte_lookup_is_the_plane_table(self, scheme, plane):
        emb, _, _ = plane_luts(scheme, plane)

        def mask(px):
            row = GrayImage(px.size, 1, px.tobytes())
            scan = stego_engine._carrier_blocks(row, None, emb)
            return np.concatenate([found for _, found, _, _ in scan])

        # every two-byte pair, first byte slowest
        px = np.stack(np.divmod(np.arange(1 << 16), 256), -1).astype(np.uint8).ravel()
        found = mask(px)
        assert found.dtype == bool and np.array_equal(found, emb[px])
        # odd lengths are padded and trimmed back
        for n in (1, 257):
            px = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8)
            assert np.array_equal(mask(px), emb[px])
        for width, height in ((64, 48), (63, 47)):
            cover = random_cover(width, height, seed=plane)
            expected = np.count_nonzero(emb[np.frombuffer(cover.pixels, dtype=np.uint8)])
            for key in (None, b"lookup"):
                assert capacity(cover, StegoParams(scheme, plane, key)) == expected

    def test_binary_everything_embeddable(self):
        cover = random_cover(20, 10)
        assert capacity(cover, params_for(SchemeKind.BINARY)) == 200

    def test_zero_image_natural_plane0(self):
        img = GrayImage(7, 5, bytes(35))
        assert capacity(img, params_for(SchemeKind.NATURAL)) == 35

    def test_zero_cover_fills_every_plane(self):
        # value 0 carries a bit in every plane (see plane_luts)
        img = GrayImage(7, 5, bytes(35))
        schemes = [WeightScheme(kind) for kind in ALL_KINDS] + [
            WeightScheme(SchemeKind.FIBONACCI, p=p) for p in (2, 3, 5, 2**40)
        ]
        planes = [(s, plane) for s in schemes for plane in range(table_for(s).n)]
        assert len(planes) == 365
        for scheme, plane in planes:
            assert capacity(img, StegoParams(scheme, plane)) == 35, (scheme, plane)

    def test_key_does_not_change_capacity(self):
        cover = random_cover(32, 32)
        for kind in ALL_KINDS:
            assert capacity(cover, params_for(kind, plane=1)) == capacity(
                cover, params_for(kind, plane=1, key=b"s")
            )


@pytest.fixture
def cold_order_cache():
    """An empty keyed-order cache for one test."""
    stego_engine._orders.clear()
    return stego_engine._orders


class TestCaches:
    def test_unkeyed_order_not_cached(self, cold_order_cache):
        order = pixel_order(5, 3)
        assert order.tolist() == list(range(15))
        assert not order.flags.writeable
        assert len(cold_order_cache) == 0

    def test_same_key_gives_the_same_order(self, cold_order_cache):
        order = pixel_order(4, 4, b"k")
        assert pixel_order(4, 4, b"k") is order
        assert pixel_order(2, 8, bytearray(b"k")) is order

    def test_second_key_replaces_the_first(self, cold_order_cache):
        a = pixel_order(4, 4, b"a")
        pixel_order(4, 4, b"b")
        assert len(cold_order_cache) == 1
        assert pixel_order(4, 4, b"a") is not a
        assert np.array_equal(pixel_order(4, 4, b"a"), a)
        pixel_order(5, 5, b"a")
        assert len(cold_order_cache) == 1

    def test_row_major_call_leaves_the_cache_alone(self, cold_order_cache):
        keyed = pixel_order(4, 4, b"k")
        cached = dict(cold_order_cache)
        pixel_order(4, 4)
        pixel_order(3, 3)
        assert cold_order_cache == cached
        assert pixel_order(4, 4, b"k") is keyed

    def test_concurrent_keyed_calls(self, cold_order_cache):
        # more threads than CPUs, switching often, alternating two keys so
        # that calls keep replacing each other's order in the cache
        keys = [b"left", b"right"]
        want = [fisher_yates_reference(48 * 48, key) for key in keys]
        threads = 8
        barrier = threading.Barrier(threads, timeout=30)
        got, done = [], []

        def call(t):
            barrier.wait()
            for k in range(12):
                i = (t + k) % 2
                got.append((i, pixel_order(48, 48, keys[i])))
            done.append(t)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=call, args=(t,)) for t in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(done) == list(range(threads))
        # checked after every call has returned: no order handed out changes
        assert all(order.tolist() == want[i] for i, order in got)
        assert len(cold_order_cache) == 1

    def test_cold_key_built_once_under_concurrency(self, cold_order_cache, monkeypatch):
        # the build waits, so that every thread asks while the first builds
        builds = []
        build = stego_engine._keyed_order

        def slow_build(count, key):
            builds.append(key)
            time.sleep(0.2)
            return build(count, key)

        monkeypatch.setattr(stego_engine, "_keyed_order", slow_build)
        threads = 4
        barrier = threading.Barrier(threads, timeout=30)
        got = []

        def call():
            barrier.wait()
            got.append(pixel_order(64, 64, b"cold"))

        pool = [threading.Thread(target=call) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert builds == [b"cold"]
        want = fisher_yates_reference(64 * 64, b"cold")
        assert len(got) == threads
        assert all(order.tolist() == want for order in got)

    def test_bounded_under_many_fibonacci_orders(self):
        bound = stego_engine._CACHE_ENTRIES
        img = GrayImage(1, 1, bytes(1))
        for p in range(1, 2 * bound + 2):
            capacity(img, params_for(SchemeKind.FIBONACCI, p=p))
            for cache in (table_for, plane_luts):
                assert cache.cache_info().currsize <= bound


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated while fn runs, as tracemalloc sees them; numpy
    reports its array buffers to it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


MEMORY_SIDE = 1024


class TestKeyedMemory:
    """Working memory of the keyed and row-major paths at 1024^2, in B/px.

    Each bound sits above what the code allocates: the cold order holds
    13.8 B/px in one range (bound 15) and 16.3 to 16.6 in two halves on two
    threads, which any forced worker count above one builds, and so does a
    switch of key or pixel count, which drops the cached order first
    (bound 18), a warm full-capacity binary round trip, keyed or
    not, 4.1 B/px in embed (bound 5) and 2.3 in extract (bound 4), and
    capacity 0.19 in Fibonacci plane 11, tested by value range, and 0.50
    in prime plane 1, which looks pixel pairs up (bound 0.75). Full-size
    position arrays, scan-round copies, an int64 copy of an int32 index
    array, or in capacity any array of a byte per pixel, break them.
    """

    @pytest.fixture(
        scope="class", params=[None, b"memory"], ids=["nokey", "keyed"]
    )
    def round_trip(self, request):
        n = MEMORY_SIDE * MEMORY_SIDE
        cover = random_cover(MEMORY_SIDE, MEMORY_SIDE, seed=83)
        params = params_for(SchemeKind.BINARY, key=request.param)
        payload = np.random.default_rng(83).bytes(n // 8 - 4)
        stego, report = embed(cover, payload, params)
        assert report.bits_embedded == n  # every pixel carries a bit
        return cover, payload, params, stego

    def test_cold_order(self):
        n = MEMORY_SIDE * MEMORY_SIDE
        assert traced_peak(stego_engine._keyed_order, n, b"memory") <= 18 * n

    def test_cold_order_one_thread(self, monkeypatch):
        # the keys become the order in place: no second full-size array
        monkeypatch.setattr(stego_engine, "_order_workers", lambda count: 1)
        n = MEMORY_SIDE * MEMORY_SIDE
        assert traced_peak(stego_engine._keyed_order, n, b"memory") <= 15 * n

    @pytest.mark.parametrize("workers", [4, 8, 32])
    def test_cold_order_forced_workers(self, workers, monkeypatch):
        monkeypatch.setattr(stego_engine, "_order_workers", lambda count: workers)
        # imported first, so that the peak counts the order, not the module
        import concurrent.futures  # noqa: F401

        n = MEMORY_SIDE * MEMORY_SIDE
        assert traced_peak(stego_engine._keyed_order, n, b"memory") <= 18 * n

    @staticmethod
    def switch_peak(calls) -> float:
        """Peak of keyed `pixel_order` calls at MEMORY_SIDE wide, in B/px of
        the first; (height, key) for each call."""
        # imported first, so that the peak counts the orders, not the module
        import concurrent.futures  # noqa: F401

        def switch():
            for height, key in calls:
                pixel_order(MEMORY_SIDE, height, key)

        peak = traced_peak(switch) / (MEMORY_SIDE * calls[0][0])
        # the last order alone stays cached
        height, key = calls[-1]
        assert list(stego_engine._orders) == [(MEMORY_SIDE * height, key)]
        return peak

    def test_key_switch_holds_one_order(self, cold_order_cache):
        calls = [(MEMORY_SIDE, b"first"), (MEMORY_SIDE, b"second")]
        assert self.switch_peak(calls) <= 18

    def test_pixel_count_switch_holds_one_order(self, cold_order_cache):
        calls = [(MEMORY_SIDE, b"memory"), (MEMORY_SIDE - 1, b"memory")]
        assert self.switch_peak(calls) <= 18

    def test_failed_build_caches_nothing(self, cold_order_cache, monkeypatch):
        order = pixel_order(64, 64, b"kept")

        def fail(count, key):
            raise MemoryError

        with monkeypatch.context() as patch:
            patch.setattr(stego_engine, "_keyed_order", fail)
            with pytest.raises(MemoryError):
                pixel_order(64, 64, b"other")
        assert cold_order_cache == {}
        assert np.array_equal(pixel_order(64, 64, b"kept"), order)

    def test_full_capacity_embed(self, round_trip):
        cover, payload, params, _ = round_trip
        pixel_order(cover.width, cover.height, params.key)  # warm
        assert traced_peak(embed, cover, payload, params) <= 5 * len(cover.pixels)

    def test_full_capacity_extract(self, round_trip):
        _, payload, params, stego = round_trip
        pixel_order(stego.width, stego.height, params.key)  # warm
        assert traced_peak(extract, stego, params) <= 4 * len(stego.pixels)
        assert extract(stego, params) == payload

    def test_capacity(self):
        cover = random_cover(MEMORY_SIDE, MEMORY_SIDE, seed=83)
        params = params_for(SchemeKind.FIBONACCI, plane=11)
        capacity(cover, params)  # builds the plane's tables
        assert traced_peak(capacity, cover, params) <= 0.75 * len(cover.pixels)

    def test_capacity_many_runs(self):
        # prime plane 1's embeddable values form about a hundred runs, so its
        # scan looks pixel pairs up
        cover = random_cover(MEMORY_SIDE, MEMORY_SIDE, seed=83)
        params = params_for(SchemeKind.PRIME, plane=1)
        assert stego_engine._value_range(plane_luts(params.scheme, 1)[0]) is None
        capacity(cover, params)  # builds the plane's tables
        assert traced_peak(capacity, cover, params) <= 0.75 * len(cover.pixels)


class TestStegoParams:
    def test_plane_out_of_range(self):
        with pytest.raises(ValueError):
            StegoParams(WeightScheme(SchemeKind.BINARY), plane=8)
        with pytest.raises(ValueError):
            StegoParams(WeightScheme(SchemeKind.NATURAL), plane=-1)

    def test_key_normalized_to_bytes(self):
        params = StegoParams(WeightScheme(SchemeKind.BINARY), key=bytearray(b"k"))
        assert isinstance(params.key, bytes)

    @pytest.mark.parametrize("key", [3, "k"])
    def test_int_or_str_key_raises_type_error(self, key):
        # bytes(3) would be the key b"\0\0\0"
        with pytest.raises(TypeError):
            StegoParams(WeightScheme(SchemeKind.BINARY), key=key)

    @pytest.mark.parametrize("plane", [1.5, 1.0, "1", None])
    def test_non_integer_plane_raises_type_error(self, plane):
        with pytest.raises(TypeError):
            StegoParams(WeightScheme(SchemeKind.BINARY), plane=plane)
        with pytest.raises(TypeError):
            plane_luts(WeightScheme(SchemeKind.BINARY), plane)

    def test_non_integer_plane_raises_type_error_with_plane_cached(self):
        scheme = WeightScheme(SchemeKind.BINARY)
        plane_luts(scheme, 1)
        for plane in (1.0, 1.5):
            with pytest.raises(TypeError):
                plane_luts(scheme, plane)

    @pytest.mark.parametrize("cached", [False, True], ids=["cold", "warm"])
    def test_integer_like_plane_is_that_plane(self, cached):
        scheme = WeightScheme(SchemeKind.BINARY)
        want = plane_oracle(table_for(scheme), 1)
        plane_luts.cache_clear()
        if cached:
            plane_luts(scheme, 1)
        for plane in (True, np.int64(1)):
            params = StegoParams(scheme, plane=plane)
            assert type(params.plane) is int and params.plane == 1
            for got, expected in zip(plane_luts(scheme, plane), want):
                assert np.array_equal(got, expected)


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

    @pytest.mark.parametrize("key", [None, b"wide"], ids=["nokey", "keyed"])
    @pytest.mark.parametrize(
        "payload",
        [
            array.array("I", [7, 8]),
            memoryview(np.arange(3, dtype=np.uint16)),
            memoryview(bytes(range(6))).cast("B", (2, 3)),
            np.arange(5, dtype=np.uint8),
        ],
        ids=["array-I", "uint16-view", "2d-view", "uint8-ndarray"],
    )
    def test_buffer_payload_is_its_bytes(self, payload, key):
        # every byte of the buffer, not len() items of it
        cover = random_cover(32, 32, seed=29)
        params = params_for(SchemeKind.BINARY, key=key)
        stego, report = embed(cover, payload, params)
        assert report.bits_embedded == 32 + 8 * memoryview(payload).nbytes
        assert extract(stego, params) == bytes(memoryview(payload))

    @pytest.mark.parametrize("payload", [3, "p"])
    def test_int_or_str_payload_raises_type_error(self, payload):
        # bytes(3) would be the payload b"\0\0\0"
        with pytest.raises(TypeError):
            embed(random_cover(8, 8), payload, params_for(SchemeKind.BINARY))

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
        # every pixel moves by exactly 0 or the plane's weight: the invariant
        # behind embed's SSE of w^2 per changed carrier
        cover = random_cover(seed=13)
        a = np.frombuffer(cover.pixels, dtype=np.uint8).astype(np.int16)
        for kind in ALL_KINDS:
            table = table_for(WeightScheme(kind))
            for plane in (0, table.n - 1):
                w = table.weights[plane]
                for key in (None, b"bound"):
                    params = params_for(kind, plane=plane, key=key)
                    stego, _ = embed(cover, b"bound check", params)
                    b = np.frombuffer(stego.pixels, dtype=np.uint8).astype(np.int16)
                    delta = np.abs(a - b)
                    assert np.isin(delta, (0, w)).all()
                    assert (delta == w).any()

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

    def test_payload_over_the_pixel_count_fails_before_framing(self):
        # framing takes a byte per bit: 32 MiB for this 4 MiB payload
        cover = random_cover(512, 512, seed=61)
        params = params_for(SchemeKind.BINARY, key=b"oversize")
        payload = bytes(4 << 20)
        caught = []

        def call():
            with pytest.raises(CapacityError) as exc:
                embed(cover, payload, params)
            caught.append(exc.value)

        assert traced_peak(call) < 1 << 20
        assert caught[0].required_bits == 32 + 8 * len(payload)
        assert caught[0].available_bits == capacity(cover, params)

    def test_payload_over_the_pixel_count_builds_no_order(self, cold_order_cache):
        cover = random_cover(64, 64, seed=61)
        with pytest.raises(CapacityError):
            embed(cover, bytes(4096), params_for(SchemeKind.BINARY, key=b"oversize"))
        assert cold_order_cache == {}

    def test_extract_header_truncation(self):
        # craft a stego image whose header promises more than the image holds
        px = np.zeros(100, dtype=np.uint8)
        length_bits = np.unpackbits(
            np.frombuffer((65536).to_bytes(4, "big"), dtype=np.uint8)
        )
        px[:32] |= length_bits
        img = GrayImage(10, 10, px.tobytes())
        params = params_for(SchemeKind.BINARY)
        with pytest.raises(CapacityError) as exc:
            extract(img, params)
        assert exc.value.required_bits == 32 + 8 * 65536
        assert exc.value.available_bits == capacity(img, params)

    def test_extract_tiny_image_truncation(self):
        img = GrayImage(4, 4, bytes(16))
        with pytest.raises(CapacityError) as exc:
            extract(img, params_for(SchemeKind.BINARY))
        assert (exc.value.required_bits, exc.value.available_bits) == (32, 16)

    def test_header_only_frame_message(self):
        # 16 carriers hold neither extract's header nor embed's empty frame
        cover = GrayImage(4, 4, bytes(16))
        params = params_for(SchemeKind.BINARY)
        calls = partial(extract, cover, params), partial(embed, cover, b"", params)
        for call in calls:
            with pytest.raises(CapacityError) as exc:
                call()
            assert (exc.value.required_bits, exc.value.available_bits) == (32, 16)
            assert str(exc.value) == (
                "the frame header needs 32 bits but only 16 embeddable bits "
                "are available"
            )

    def test_wrong_key_fails_or_garbles(self):
        cover = random_cover(seed=47)
        payload = bytes(200)
        stego, _ = embed(cover, payload, params_for(SchemeKind.BINARY, key=b"right"))
        try:
            recovered = extract(stego, params_for(SchemeKind.BINARY, key=b"wrong"))
        except CapacityError:
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
    except CapacityError as exc:
        return type(exc), str(exc), vars(exc)


def sparse_cover(params, size, rate, seed):
    """1 x size cover in which each pixel is embeddable with probability rate."""
    emb, _, _ = stego_engine.plane_luts(params.scheme, params.plane)
    rng = np.random.default_rng(seed)
    carry = rng.random(size) < rate
    px = np.where(
        carry,
        rng.choice(np.flatnonzero(emb), size),
        rng.choice(np.flatnonzero(~emb), size),
    )
    return GrayImage(size, 1, px.astype(np.uint8).tobytes())


def chunk_covers(params):
    """Covers larger than the first scan block, and a sparse one that needs
    several blocks for a 1 KiB payload (no value is skipped in binary)."""
    covers = [random_cover(300, 300, seed=71), random_cover(70001, 1, seed=72)]
    emb, _, _ = stego_engine.plane_luts(params.scheme, params.plane)
    if not emb.all():
        covers.append(sparse_cover(params, 500_000, 0.02, seed=73))
    return covers


def split_header_cover(start, carriers):
    """1 x 200 000 cover with `carriers` natural plane-0 carriers: 20 in the
    first scan block, the rest from `start` on (0 carries and 255 is
    skipped), so a frame's 32-bit header spans two blocks."""
    px = np.full(200_000, 255, dtype=np.uint8)
    px[:20] = 0
    px[start : start + carriers - 20] = 0
    return GrayImage(px.size, 1, px.tobytes())


FULL_SCAN_CASES = [
    (kind, plane)
    for kind in ALL_KINDS
    for plane in sorted({0, 1, table_for(WeightScheme(kind)).n - 1})
]


# Embeddable values as inclusive runs (first, last), by test id: the edge
# cases, runs that meet across 255 -> 0 or do not, then 1 to 6 runs
HAND_RUNS = {
    (): "none",
    ((0, 255),): "all",
    ((0, 0),): "only-0",
    ((255, 255),): "only-255",
    ((0, 9), (250, 255)): "both-ends",
    ((0, 99), (101, 255)): "all-but-100",
    ((10, 20), (250, 255)): "ends-at-255",
    **{
        tuple((j * 256 // r + 3, (j + 1) * 256 // r - 3 - j) for j in range(r)):
        f"{r}-runs"
        for r in range(1, 7)
    },
}

# planes whose embeddable values form one range modulo 256: binary 0 and
# the top plane of each other scheme, Fibonacci 11's across 255 -> 0
RANGE_PLANES = [
    (SchemeKind.BINARY, 0),
    (SchemeKind.FIBONACCI, 11),
    (SchemeKind.PRIME, 14),
    (SchemeKind.NATURAL, 22),
]


class TestCarrierScan:
    """What `_carrier_blocks` yields, block by block, against the full order."""

    @pytest.mark.parametrize("key", [None, b"scan"], ids=["nokey", "keyed"])
    @pytest.mark.parametrize("width, height", [(513, 511), (1, 70001)])
    @pytest.mark.parametrize(
        "kind,plane", [(SchemeKind.FIBONACCI, 11), (SchemeKind.PRIME, 1)],
        ids=lambda c: getattr(c, "value", c),
    )
    def test_blocks_follow_the_order(self, kind, plane, width, height, key):
        cover = random_cover(width, height, seed=plane)
        emb, _, _ = plane_luts(WeightScheme(kind), plane)
        px = np.frombuffer(cover.pixels, dtype=np.uint8)
        order = pixel_order(width, height, key)
        masks = []
        for lo, found, chunk, where in stego_engine._carrier_blocks(cover, key, emb):
            assert lo % stego_engine._ORDER_BLOCK == 0
            assert found.dtype == bool
            assert np.array_equal(chunk, px[order[lo : lo + stego_engine._ORDER_BLOCK]])
            offsets = np.flatnonzero(found)
            assert np.array_equal(where(offsets), order[lo + offsets])
            masks.append(found)
        assert np.array_equal(np.concatenate(masks), emb[px[order]])

    @pytest.mark.parametrize("runs", HAND_RUNS, ids=list(HAND_RUNS.values()))
    def test_hand_made_tables(self, runs):
        emb = np.zeros(256, dtype=bool)
        for first, last in runs:
            emb[first : last + 1] = True
        # a run from 0 and a run to 255 meet across 255 -> 0
        ranges = len(runs) - (len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == 255)
        ranged = stego_engine._value_range(emb) is not None
        assert ranged == (ranges == 1)
        # every two-byte pair, then odd lengths, which only the pair path pads
        pairs = np.stack(np.divmod(np.arange(1 << 16), 256), -1).astype(np.uint8)
        rng = np.random.default_rng(len(runs))
        odd = [rng.integers(0, 256, n, dtype=np.uint8) for n in (1, 257)]
        for px in (pairs.ravel(), *odd):
            row = GrayImage(px.size, 1, px.tobytes())
            scan = stego_engine._carrier_blocks(row, None, emb)
            found = np.concatenate([mask for _, mask, _, _ in scan])
            assert found.dtype == bool and np.array_equal(found, emb[px])

    @pytest.mark.parametrize("key", [None, b"ranges"], ids=["nokey", "keyed"])
    @pytest.mark.parametrize(
        "kind,plane", RANGE_PLANES, ids=lambda c: getattr(c, "value", c)
    )
    def test_range_planes_build_no_pair_table(self, kind, plane, key, monkeypatch):
        def refuse(emb):
            raise AssertionError("pair table built for a plane of few runs")

        monkeypatch.setattr(stego_engine, "_pair_table", refuse)
        cover = random_cover(300, 300, seed=plane)
        params = params_for(kind, plane=plane, key=key)
        emb, _, _ = plane_luts(params.scheme, plane)
        bits = capacity(cover, params)
        assert bits == np.count_nonzero(emb[np.frombuffer(cover.pixels, np.uint8)])
        payload = np.random.default_rng(plane).bytes(bits // 8 - 4)
        stego, report = embed(cover, payload, params)
        assert (stego, report) == embed_reference(cover, payload, params)
        assert extract(stego, params) == payload

    def test_range_planes_at_p1(self):
        ranged = {
            (kind, plane)
            for kind in ALL_KINDS
            for plane in range(table_for(WeightScheme(kind)).n)
            if stego_engine._value_range(plane_luts(WeightScheme(kind), plane)[0])
            is not None
        }
        binary = {(SchemeKind.BINARY, plane) for plane in range(8)}
        assert ranged == binary | set(RANGE_PLANES)

    @pytest.mark.parametrize("key", [None, b"pairs"], ids=["nokey", "keyed"])
    @pytest.mark.parametrize(
        "kind,plane",
        [
            (SchemeKind.PRIME, 1),
            (SchemeKind.NATURAL, 0),
            (SchemeKind.FIBONACCI, 8),
            (SchemeKind.NATURAL, 21),
        ],
        ids=lambda c: getattr(c, "value", c),
    )
    def test_pair_table_built_once_per_scan(self, kind, plane, key, monkeypatch):
        built = []
        table = stego_engine._pair_table

        def counted(emb):
            built.append(emb)
            return table(emb)

        monkeypatch.setattr(stego_engine, "_pair_table", counted)
        cover = random_cover(300, 300, seed=plane)
        params = params_for(kind, plane=plane, key=key)
        payload = np.random.default_rng(plane).bytes(capacity(cover, params) // 8 - 4)
        assert len(built) == 1
        stego, _ = embed(cover, payload, params)
        assert len(built) == 2
        assert extract(stego, params) == payload
        assert len(built) == 3


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

    @pytest.mark.parametrize("start", [65535, 65536, 131072])
    def test_header_split_across_blocks(self, start):
        cover = split_header_cover(start, 40)
        params = params_for(SchemeKind.NATURAL)
        stego, report = embed(cover, b"A", params)
        assert (stego, report) == embed_reference(cover, b"A", params)
        assert extract(stego, params) == extract_reference(stego, params) == b"A"

    @pytest.mark.parametrize("start", [65535, 65536, 131072])
    def test_header_split_across_blocks_truncated(self, start):
        cover = split_header_cover(start, 25)
        params = params_for(SchemeKind.NATURAL)
        got = outcome(extract, cover, params)
        assert got[0] is CapacityError
        assert got == outcome(extract_reference, cover, params)

    @pytest.mark.parametrize("payload", [b"A", b""], ids=["one_byte", "empty"])
    def test_header_ends_on_a_block_boundary(self, payload, monkeypatch):
        # natural plane 0: 0 carries and 255 is skipped; the first scan
        # block holds exactly the 32 header carriers, the next the byte's 8
        px = np.full(200_000, 255, dtype=np.uint8)
        px[:32] = 0
        px[BLOCK : BLOCK + 8] = 0
        cover = GrayImage(px.size, 1, px.tobytes())
        params = params_for(SchemeKind.NATURAL)
        stego, _ = embed(cover, payload, params)
        blocks = []
        scan = stego_engine._carrier_blocks

        def counted(image, key, emb):
            for block in scan(image, key, emb):
                blocks.append(block[0])
                yield block

        monkeypatch.setattr(stego_engine, "_carrier_blocks", counted)
        got = outcome(extract, stego, params)
        assert got == outcome(extract_reference, stego, params) == payload
        # the walk stops in the block that holds the frame's last carrier
        assert blocks == ([0, BLOCK] if payload else [0])

    def test_header_alone_fills_the_image(self):
        # every binary plane-0 pixel carries: the header declares 1 byte,
        # and the image has no carrier past it
        px = np.zeros(32, dtype=np.uint8)
        px[-1] = 1
        cover = GrayImage(8, 4, px.tobytes())
        params = params_for(SchemeKind.BINARY)
        got = outcome(extract, cover, params)
        assert got[0] is CapacityError
        assert got[2] == {"required_bits": 40, "available_bits": 32}
        assert got == outcome(extract_reference, cover, params)

    def test_oversized_header_fails_after_one_block(self, monkeypatch):
        # binary plane 0 carries everywhere; the first 32 keyed carriers
        # declare 2^32 - 1 bytes, which no 200 000-pixel image can hold
        params = params_for(SchemeKind.BINARY, key=b"oversized")
        px = np.random.default_rng(5).integers(0, 256, 200_000, dtype=np.uint8)
        px[pixel_order(px.size, 1, params.key)[:32]] |= 1
        stego = GrayImage(px.size, 1, px.tobytes())
        blocks = []
        scan = stego_engine._carrier_blocks

        # only the keyed scan: `extract` counts capacity in a row-major one
        def counted(image, key, emb):
            for block in scan(image, key, emb):
                if key is not None:
                    blocks.append(block[0])
                yield block

        monkeypatch.setattr(stego_engine, "_carrier_blocks", counted)
        got = outcome(extract, stego, params)
        assert got[0] is CapacityError
        assert got == outcome(extract_reference, stego, params)
        assert blocks == [0]

    def test_truncation_messages(self):
        params = params_for(SchemeKind.BINARY)
        px = np.zeros(100_000, dtype=np.uint8)
        px[:32] |= np.unpackbits(np.frombuffer((65536).to_bytes(4, "big"), np.uint8))
        for img in (GrayImage(4, 4, bytes(16)), GrayImage(px.size, 1, px.tobytes())):
            got = outcome(extract, img, params)
            assert got[0] is CapacityError
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
