import math

import numpy as np
import pytest

from planestego.image_io import GrayImage
from planestego.metrics import DistortionReport, distortion, psnr, squared_error


def flat(width, height, values):
    return GrayImage(width, height, bytes(values))


class TestMse:
    def test_identical(self):
        img = flat(2, 2, [9, 9, 9, 9])
        assert psnr(img, img).mse == 0.0

    def test_two_pixel_example(self):
        assert psnr(flat(2, 1, [0, 0]), flat(2, 1, [2, 0])).mse == 2.0

    def test_single_pixel_off_by_one_512(self):
        a = GrayImage(512, 512, bytes(512 * 512))
        b = GrayImage(512, 512, b"\x01" + bytes(512 * 512 - 1))
        assert psnr(a, b).mse == pytest.approx(1 / 262144)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        a = GrayImage(8, 8, rng.integers(0, 256, 64, dtype=np.uint8).tobytes())
        b = GrayImage(8, 8, rng.integers(0, 256, 64, dtype=np.uint8).tobytes())
        assert psnr(a, b).mse == psnr(b, a).mse

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(flat(2, 1, [0, 0]), flat(1, 2, [0, 0]))


class TestPsnr:
    def test_identical_is_infinite(self):
        img = flat(1, 1, [42])
        report = psnr(img, img)
        assert report == DistortionReport(mse=0.0, psnr_db=math.inf)

    def test_uniform_difference_of_one(self):
        a = flat(4, 4, [10] * 16)
        b = flat(4, 4, [11] * 16)
        assert psnr(a, b).psnr_db == pytest.approx(48.13, abs=0.01)

    def test_single_pixel_off_by_one_512(self):
        a = GrayImage(512, 512, bytes(512 * 512))
        b = GrayImage(512, 512, b"\x01" + bytes(512 * 512 - 1))
        assert psnr(a, b).psnr_db == pytest.approx(102.32, abs=0.01)

    def test_monotone_in_mse(self):
        base = flat(4, 1, [0, 0, 0, 0])
        one = flat(4, 1, [1, 0, 0, 0])
        two = flat(4, 1, [1, 1, 0, 0])
        assert psnr(base, two).mse > psnr(base, one).mse
        assert psnr(base, two).psnr_db < psnr(base, one).psnr_db

    def test_infinite_iff_zero_mse(self):
        a = flat(2, 1, [0, 0])
        b = flat(2, 1, [0, 1])
        report = psnr(a, b)
        assert report.mse > 0 and math.isfinite(report.psnr_db)

    def test_sum_past_int32(self):
        # 2048^2 pixels off by 255 sum to 2.7e11 squared units
        a = GrayImage(2048, 2048, bytes(2048 * 2048))
        b = GrayImage(2048, 2048, b"\xff" * (2048 * 2048))
        assert psnr(a, b) == DistortionReport(mse=65025.0, psnr_db=0.0)


class TestSquaredError:
    def test_exact_across_blocks(self):
        # differences of +255 and -255 beside random ones, over several
        # blocks and a partial last one
        rng = np.random.default_rng(23)
        size = 3 * 2**16 + 5
        a = rng.integers(0, 256, size, dtype=np.uint8)
        b = rng.integers(0, 256, size, dtype=np.uint8)
        a[::3], b[::3] = 0, 255
        a[1::3], b[1::3] = 255, 0
        want = sum((int(x) - int(y)) ** 2 for x, y in zip(a, b))
        assert squared_error(a, b) == squared_error(b, a) == want
        assert squared_error(a[:0], b[:0]) == 0


class TestDistortion:
    def test_zero_error_is_infinite(self):
        assert distortion(0, 7) == DistortionReport(mse=0.0, psnr_db=math.inf)

    def test_psnr_reports_through_it(self):
        rng = np.random.default_rng(17)
        for size in (1, 3, 1000, 65537):
            pa = rng.integers(0, 256, size, dtype=np.uint8)
            pb = rng.integers(0, 256, size, dtype=np.uint8)
            sse = sum((int(x) - int(y)) ** 2 for x, y in zip(pa, pb))
            a, b = GrayImage(size, 1, pa.tobytes()), GrayImage(size, 1, pb.tobytes())
            assert psnr(a, b) == distortion(sse, size)
            assert psnr(a, b).mse == sse / size

