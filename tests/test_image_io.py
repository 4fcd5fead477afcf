import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planestego.image_io import GrayImage, PgmError, read_pgm, write_pgm


ERROR_MESSAGES = [
    (b"P2\n1 1\n255\n0", "bad magic: b'P2' (expected P5)"),
    (b"JUNK", "bad magic: b'JUNK' (expected P5)"),
    (b"", "unexpected end of header"),
    (b"P5\n2 1", "unexpected end of header"),
    (b"P5\n1 1\n65535\n\0\0", "maxval 65535 unsupported (only 255)"),
    (b"P5\n2 2\n255\n\0\1\2", "raster holds 3 bytes, need 4"),
    (b"P5\n0 1\n255\n", "bad dimensions: 0x1"),
    (b"P5\nwide 1\n255\n\0", "bad width: b'wide'"),
    (b"P5\n2 1\n255", "missing whitespace before raster"),
    (b"P5 " + b"9" * 5000 + b" 1 255 \0", "bad width: 5000-digit number"),
    (b"P5\n1 1\n255#\0", "bad maxval: b'255#\\x00'"),
]


def images(max_side=24):
    return st.integers(1, max_side).flatmap(
        lambda w: st.integers(1, max_side).flatmap(
            lambda h: st.binary(min_size=w * h, max_size=w * h).map(
                lambda px: GrayImage(w, h, px)
            )
        )
    )


class TestReadPgm:
    def test_minimal_file(self):
        img = read_pgm(b"P5\n2 1\n255\n\x00\xff")
        assert (img.width, img.height) == (2, 1)
        assert img.pixels == b"\x00\xff"

    def test_liberal_whitespace(self):
        img = read_pgm(b"P5  \t 2\n\n1\r\n255 \x05\x06")
        assert img.pixels == b"\x05\x06"

    def test_header_comments(self):
        img = read_pgm(b"P5\n# made by hand\n2 1\n# another note\n255\n\x01\x02")
        assert img.pixels == b"\x01\x02"

    def test_bad_magic(self):
        with pytest.raises(PgmError, match="bad magic: b'P2'"):
            read_pgm(b"P2\n1 1\n255\n0")
        with pytest.raises(PgmError, match="bad magic: b'JUNK'"):
            read_pgm(b"JUNK")

    def test_unsupported_maxval(self):
        with pytest.raises(PgmError, match="maxval 65535 unsupported"):
            read_pgm(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(PgmError, match="maxval 15 unsupported"):
            read_pgm(b"P5\n1 1\n15\n\x00")

    def test_truncated_raster(self):
        with pytest.raises(PgmError, match="raster holds 3 bytes, need 4"):
            read_pgm(b"P5\n2 2\n255\n\x00\x01\x02")

    def test_zero_dimension(self):
        with pytest.raises(PgmError, match="bad dimensions: 0x1"):
            read_pgm(b"P5\n0 1\n255\n")

    def test_non_numeric_header(self):
        with pytest.raises(PgmError, match="bad width: b'wide'"):
            read_pgm(b"P5\nwide 1\n255\n\x00")

    def test_header_cut_short(self):
        with pytest.raises(PgmError, match="missing whitespace before raster"):
            read_pgm(b"P5\n2 1\n255")

    def test_buffers_decode_as_bytes(self):
        data = b"P5\n# note\n3 2\n255\n\x00\x01\x02\x03\x04\x05"
        want = read_pgm(data)
        for buf in (memoryview(data), bytearray(data), np.frombuffer(data, np.uint8)):
            assert read_pgm(buf) == want

    @pytest.mark.parametrize("data", [3, "P5\n1 1\n255\n\0"])
    def test_int_or_str_raise_type_error(self, data):
        with pytest.raises(TypeError):
            read_pgm(data)

    def test_trailing_bytes_ignored(self):
        img = read_pgm(b"P5\n1 1\n255\n\x07extra")
        assert img.pixels == b"\x07"

    def test_overlong_number(self):
        with pytest.raises(PgmError, match="bad width: 5000-digit number"):
            read_pgm(b"P5 " + b"9" * 5000 + b" 1 255 \x00")

    @pytest.mark.parametrize(
        "data, message", ERROR_MESSAGES, ids=[m for _, m in ERROR_MESSAGES]
    )
    def test_error_message(self, data, message):
        # the CLI prints these after "error: "; they are part of its output
        with pytest.raises(PgmError) as exc:
            read_pgm(data)
        assert str(exc.value) == message


def read_or_pgm_error(data: bytes) -> None:
    """read_pgm either decodes a consistent image or raises a PgmError."""
    try:
        img = read_pgm(data)
    except PgmError:
        return
    assert len(img.pixels) == img.width * img.height


SEPARATORS = st.sampled_from([b"", b" ", b"\n", b"\t\r\n", b"#c\n", b" # c", b"\x00"])
FIELDS = st.one_of(
    st.integers(0, 300).map(lambda v: b"%d" % v),
    st.sampled_from([b"P5", b"P2", b"-1", b"2.5", b"1e3", b"\xd9\xa1", b"9" * 4400]),
)


class TestReadPgmFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, data):
        read_or_pgm_error(data)

    @given(
        magic=st.sampled_from([b"P5", b"P6", b"p5", b""]),
        fields=st.lists(st.tuples(SEPARATORS, FIELDS), max_size=4),
        tail=SEPARATORS,
        raster=st.binary(max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_header_fields(self, magic, fields, tail, raster):
        read_or_pgm_error(magic + b"".join(sep + f for sep, f in fields) + tail + raster)

    @given(
        img=images(max_side=6),
        edits=st.lists(
            st.tuples(st.sampled_from(["set", "insert", "delete", "cut"]),
                      st.integers(0, 40), st.binary(min_size=1, max_size=3)),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_header(self, img, edits):
        data = bytearray(write_pgm(img))
        for op, pos, chunk in edits:
            pos = min(pos, len(data))
            if op == "set":
                data[pos : pos + len(chunk)] = chunk
            elif op == "insert":
                data[pos:pos] = chunk
            elif op == "delete":
                del data[pos : pos + len(chunk)]
            else:
                del data[pos:]
        read_or_pgm_error(bytes(data))


class TestWritePgm:
    def test_one_pixel(self):
        assert write_pgm(GrayImage(1, 1, b"\x00")) == b"P5\n1 1\n255\n\x00"

    def test_deterministic(self):
        img = GrayImage(3, 2, bytes(range(6)))
        assert write_pgm(img) == write_pgm(img)

    @given(images())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, img):
        assert read_pgm(write_pgm(img)) == img

    @given(images())
    @settings(max_examples=30, deadline=None)
    def test_double_roundtrip_bytes_equal(self, img):
        data = write_pgm(img)
        assert write_pgm(read_pgm(data)) == data


class TestGrayImage:
    def test_pixel_count_checked(self):
        with pytest.raises(ValueError):
            GrayImage(2, 2, bytes(3))

    def test_dimensions_checked(self):
        with pytest.raises(ValueError):
            GrayImage(0, 4, b"")

    def test_bytearray_normalized(self):
        img = GrayImage(1, 2, bytearray(b"\x01\x02"))
        assert isinstance(img.pixels, bytes)

    @pytest.mark.parametrize("pixels", [3, "abc"])
    def test_int_or_str_pixels_raise_type_error(self, pixels):
        # bytes(3) would be a black 3x1 image
        with pytest.raises(TypeError):
            GrayImage(3, 1, pixels)

    def test_buffers_normalized(self):
        px = np.arange(6, dtype=np.uint8)
        for pixels in (memoryview(px.tobytes()), px):
            img = GrayImage(3, 2, pixels)
            assert img.pixels == px.tobytes()

    @pytest.mark.parametrize(
        "dims", [(2.5, 2), (2.0, 2), (2, 2.0), ("2", 2)], ids=lambda d: "%rx%r" % d
    )
    def test_non_integer_dimensions_raise_type_error(self, dims):
        # 2.5 x 2 with 5 pixel bytes was once written with the header "2 2"
        width, height = dims
        pixels = bytes(int(float(width) * float(height)))
        with pytest.raises(TypeError):
            GrayImage(width, height, pixels)

    def test_integer_like_dimensions_stored_as_int(self):
        img = GrayImage(np.int64(3), np.uint8(2), bytes(6))
        assert type(img.width) is int and type(img.height) is int
        assert img == GrayImage(3, 2, bytes(6))
        assert write_pgm(img) == b"P5\n3 2\n255\n" + bytes(6)
