"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rP to see them on success)."""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from oracles import canonical_masks, count_zeck_subsets, digit_mask
from planestego.image_io import GrayImage, read_pgm, write_pgm
from planestego.number_systems import (
    SchemeKind,
    WeightScheme,
    build_weight_table,
)
from planestego.stego_engine import (
    StegoParams,
    embed,
    extract,
    frame,
    pixel_order,
    plane_luts,
    table_for,
)

PSNR_FLOOR_DB = 48.13  # 10*log10(255^2), worst case for unit-weight planes
ACCEPTANCE_KEY = b"acceptance-key"
TRIAL_PAYLOADS = 100
# the four schemes plus higher Fibonacci orders
ORACLE_SCHEMES = [WeightScheme(kind) for kind in SchemeKind] + [
    WeightScheme(SchemeKind.FIBONACCI, p=p) for p in (2, 3, 4)
]


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance: {label}: FAIL")
        raise
    print(f"acceptance: {label}: PASS ({time.perf_counter() - start:.2f}s)")


@dataclass(frozen=True)
class Trial:
    kind: SchemeKind
    plane: int
    plane_weight: int
    keyed: bool
    payload_ok: bool
    untouched_ok: bool
    max_diff: int
    changed: int
    psnr_db: float


@pytest.fixture(scope="module")
def roundtrip_trials():
    """Criteria 5 and 6 share one sweep over payloads, schemes, planes, keys."""
    sweep_start = time.perf_counter()
    rng = np.random.default_rng(8224)
    cover_px = rng.integers(0, 256, 512 * 512, dtype=np.uint8)
    cover = GrayImage(512, 512, cover_px.tobytes())
    sizes = rng.integers(0, 1025, TRIAL_PAYLOADS)
    sizes[0], sizes[1] = 0, 1024  # pin both extremes
    payloads = [rng.bytes(int(s)) for s in sizes]

    results = []
    for kind in SchemeKind:
        scheme = WeightScheme(kind)
        table = table_for(scheme)
        for plane in (0, 1, table.n - 1):
            emb_vals, _, _ = plane_luts(scheme, plane)
            for key in (None, ACCEPTANCE_KEY):
                params = StegoParams(scheme=scheme, plane=plane, key=key)
                order = pixel_order(512, 512, key)
                slots = np.flatnonzero(emb_vals[cover_px[order]])
                for payload in payloads:
                    stego, report = embed(cover, payload, params)
                    stego_px = np.frombuffer(stego.pixels, dtype=np.uint8)
                    carriers = order[slots[: report.bits_embedded]]
                    changed = np.flatnonzero(stego_px != cover_px)
                    diff = np.abs(
                        stego_px.astype(np.int16) - cover_px.astype(np.int16)
                    )
                    results.append(
                        Trial(
                            kind=kind,
                            plane=plane,
                            plane_weight=table.weights[plane],
                            keyed=key is not None,
                            payload_ok=extract(stego, params) == payload,
                            untouched_ok=bool(np.isin(changed, carriers).all()),
                            max_diff=int(diff.max()),
                            changed=int(changed.size),
                            psnr_db=report.psnr_db,
                        )
                    )
    print(f"acceptance: trial sweep took {time.perf_counter() - sweep_start:.1f}s")
    return results


def test_criterion_1_table4_plane_counts():
    with criterion("1 (plane counts 8/12/15/23 at k=8)"):
        start = time.perf_counter()
        counts = [(kind.value, table_for(WeightScheme(kind)).n) for kind in SchemeKind]
        assert counts == [
            ("binary", 8),
            ("fibonacci", 12),
            ("prime", 15),
            ("natural", 23),
        ]
        assert time.perf_counter() - start < 1.0


def test_criterion_2_exhaustive_roundtrip():
    with criterion("2 (canonical digits @ weights = v for all v, all schemes)"):
        start = time.perf_counter()
        for kind in SchemeKind:
            table = build_weight_table(WeightScheme(kind), 8)
            sums = table.digits @ np.array(table.weights)
            assert sums.tolist() == list(range(256))
        assert time.perf_counter() - start < 1.0


def test_criterion_3_canonicality_oracle():
    with criterion("3 (greedy = brute-force lexicographic max, all schemes, p <= 4)"):
        start = time.perf_counter()
        for scheme in ORACLE_SCHEMES:
            table = build_weight_table(scheme, 8)
            best = canonical_masks(table)
            for v in range(256):
                assert digit_mask(table.digits[v]) == best[v], (scheme, v)
        assert time.perf_counter() - start < 60.0


def test_criterion_4_zeckendorf_uniqueness():
    with criterion("4 (exactly one gap-valid subset per value, 12 weights)"):
        start = time.perf_counter()
        table = build_weight_table(WeightScheme(SchemeKind.FIBONACCI), 8)
        assert table.n == 12
        assert count_zeck_subsets(table.weights, 255, 1) == [1] * 256
        assert time.perf_counter() - start < 1.0


def test_criterion_5_end_to_end_roundtrip(roundtrip_trials):
    with criterion("5 (payload round-trip and cover preservation, 2400 trials)"):
        # the sweep itself runs in the shared fixture; its time prints there
        assert len(roundtrip_trials) == TRIAL_PAYLOADS * 4 * 3 * 2
        assert all(t.payload_ok for t in roundtrip_trials)
        assert all(t.untouched_ok for t in roundtrip_trials)


def test_criterion_6_distortion_bound(roundtrip_trials):
    with criterion("6 (per-pixel change <= plane weight; plane-0 PSNR floor)"):
        assert all(t.max_diff <= t.plane_weight for t in roundtrip_trials)
        floor = PSNR_FLOOR_DB - 0.01
        for t in roundtrip_trials:
            if t.plane == 0 and t.changed >= 1:
                assert t.psnr_db >= floor, t


def test_criterion_7_embeddability_symmetry():
    with criterion("7 (embedding preserves embeddability, exhaustive, p <= 4)"):
        start = time.perf_counter()
        for scheme in ORACLE_SCHEMES:
            for plane in range(table_for(scheme).n):
                emb, _, embed_to = plane_luts(scheme, plane)
                assert emb[embed_to[:, emb]].all(), (scheme, plane)
        assert time.perf_counter() - start < 1.0


def test_criterion_8_pgm_roundtrip():
    with criterion("8 (50 random images survive write/read byte-exactly)"):
        rng = np.random.default_rng(50)
        for _ in range(50):
            w = int(rng.integers(1, 40))
            h = int(rng.integers(1, 40))
            img = GrayImage(w, h, rng.integers(0, 256, w * h, dtype=np.uint8).tobytes())
            data = write_pgm(img)
            assert read_pgm(data) == img
            assert write_pgm(read_pgm(data)) == data


def test_criterion_9_classical_lsb_equivalence():
    with criterion("9 (binary plane 0 = direct LSB substitution)"):
        rng = np.random.default_rng(129)
        params = StegoParams(WeightScheme(SchemeKind.BINARY), plane=0)
        for _ in range(10):
            cover_px = rng.integers(0, 256, 64 * 64, dtype=np.uint8)
            payload = rng.bytes(int(rng.integers(0, 200)))
            stego, _ = embed(GrayImage(64, 64, cover_px.tobytes()), payload, params)
            bits = frame(payload)
            direct = cover_px.copy()
            direct[: bits.size] = (direct[: bits.size] & 0xFE) | bits
            assert stego.pixels == direct.tobytes()
