import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texlat import image


class TestPgmIO:
    def test_binary_pgm_maps_bytes_directly(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = image.load_image(p)
        assert img.shape == (2, 2)
        np.testing.assert_array_equal(img, [[0, 255], [128, 64]])

    def test_ascii_pgm_single_pixel(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_text("P2 1 1 255 200")
        np.testing.assert_array_equal(image.load_image(p), [[200.0]])

    def test_ascii_pgm_with_comments(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_text("P2\n# a comment\n2 1\n255\n1 2\n")
        np.testing.assert_array_equal(image.load_image(p), [[1.0, 2.0]])

    def test_truncated_header_is_unsupported(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2")
        with pytest.raises(image.FormatError, match="unsupported format"):
            image.load_image(p)

    def test_truncated_pixels_is_unsupported(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(image.FormatError, match="truncated"):
            image.load_image(p)

    def test_sixteen_bit_raster_with_trailing_byte_loads(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n65535\n" + bytes(range(32)) + b"\n")
        expect = np.frombuffer(bytes(range(32)), dtype=">u2").reshape(4, 4) * (255.0 / 65535)
        np.testing.assert_array_equal(image.load_image(p), expect)

    def test_header_without_raster_names_the_file(self, tmp_path):
        p = tmp_path / "bare.pgm"
        p.write_bytes(b"P5\n4 4\n255")
        with pytest.raises(image.FormatError, match="bare.pgm: truncated pixel data"):
            image.load_image(p)

    @pytest.mark.parametrize("sample", ["nan", "inf", "1e999", "-5", "+5", "300", "1.5"])
    def test_ascii_sample_outside_maxval_names_the_file(self, tmp_path, sample):
        p = tmp_path / "bad.pgm"
        p.write_text(f"P2 2 1 255 7 {sample}")
        with pytest.raises(image.FormatError,
                           match=r"bad.pgm: sample .* is not an integer in 0\.\.255"):
            image.load_image(p)

    @pytest.mark.parametrize("header", ["P2 1_6 1 255", "P2 16 1 +255", "P2 4 -4 255"],
                             ids=["underscore", "plus-sign", "minus-sign"])
    def test_header_field_that_is_not_ascii_digits_is_a_bad_header(self, tmp_path, header):
        p = tmp_path / "bad.pgm"
        p.write_text(header + " 7" * 16)
        with pytest.raises(image.FormatError, match="bad.pgm: bad PGM header"):
            image.load_image(p)

    @pytest.mark.parametrize("raw,expect", [
        (b"P512 1 255\n" + bytes(range(12)), [list(range(12))]),  # no separator after the magic
        (b"P5\r2\r1\r255\r\x07\x09", [[7, 9]]),
        (b"P2\t2\t1\t255\t7\t9", [[7, 9]]),
        (b"P2\n#c\n2\n#c\n1\n#c\n255\n7 9", [[7, 9]]),
        (b"P5 2 1 #c\n255\r\x07\x09", [[7, 9]]),
    ], ids=["glued-to-magic", "cr", "tab", "comment-lines", "comment-then-cr"])
    def test_header_separators_that_load(self, tmp_path, raw, expect):
        p = tmp_path / "t.pgm"
        p.write_bytes(raw)
        np.testing.assert_array_equal(image.load_image(p), expect)

    @pytest.mark.parametrize("raw", [
        b"P5 2#c\n2 255\n" + bytes(4), b"P5 2 2 255#\n" + bytes(4), b"P2 1 1 255#c",
        b"P2 1 1#c\n255 7", b"P5 12 34",
    ], ids=["comment-glued-to-width", "comment-glued-to-maxval", "comment-at-end",
            "comment-glued-to-height", "two-fields"])
    def test_comment_inside_a_field_or_a_missing_field_is_a_bad_header(self, tmp_path, raw):
        p = tmp_path / "bad.pgm"
        p.write_bytes(raw)
        with pytest.raises(image.FormatError, match="bad.pgm: bad PGM header"):
            image.load_image(p)

    def test_comment_after_the_header_is_a_bad_sample(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2 2 1 255 # trailing")
        with pytest.raises(image.FormatError,
                           match=r"bad.pgm: sample # is not an integer in 0\.\.255"):
            image.load_image(p)

    def test_binary_sample_above_maxval_names_the_file(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n2 1\n100\n" + bytes([7, 250]))
        with pytest.raises(image.FormatError,
                           match=r"bad.pgm: sample 250 is not an integer in 0\.\.100"):
            image.load_image(p)

    def test_unknown_magic_rejected(self, tmp_path):
        p = tmp_path / "t.xyz"
        p.write_bytes(b"XY nothing")
        with pytest.raises(image.FormatError, match="unsupported format"):
            image.load_image(p)

    def test_sixteen_bit_rescaled(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 1\n65535\n" + (65535).to_bytes(2, "big")
                      + (32768).to_bytes(2, "big"))
        img = image.load_image(p)
        np.testing.assert_allclose(img, [[255.0, 32768 * 255.0 / 65535]])

    def test_save_of_a_non_image_rejected_before_writing(self, tmp_path):
        p = tmp_path / "t.pgm"
        with pytest.raises(ValueError, match=r"expected a non-empty 2-D image, got shape \(5,\)"):
            image.save_image(np.zeros(5), p)
        assert not p.exists()

    def test_roundtrip_is_bit_exact_for_8bit(self, tmp_path, rng):
        data = rng.integers(0, 256, size=(17, 23)).astype(np.float64)
        p = tmp_path / "t.pgm"
        image.save_image(data, p)
        np.testing.assert_array_equal(image.load_image(p), data)

    def test_png_grayscale_read(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        arr = np.arange(16, dtype=np.uint8).reshape(4, 4) * 16
        p = tmp_path / "t.png"
        PIL.fromarray(arr, mode="L").save(p)
        np.testing.assert_array_equal(image.load_image(p), arr.astype(float))


_RASTER = bytes([0, 128, 255, 7, 64, 200])
_VALID_PGMS = [
    b"P2\n3 2\n255\n0 128 255\n7 64 200\n",
    b"P5\n3 2\n255\n" + _RASTER,
    b"P5\n# made by hand\n3 2\n# maxval\n255\n" + _RASTER,
    b"P5\r3\r2\r255\r" + _RASTER,
    b"P2\t3\t2\t255\t0\t128\t255\t7\t64\t200",
    b"P5\n2 2\n65535\n" + bytes([255, 255, 0, 1, 128, 0, 12, 34]),
    b"P2 # 16-bit\n2 1 65535 65535 300\n",
]


def _header_fields(buf):
    """(width, height, maxval) as the README grammar reads them, or None:
    three fields of ASCII digits after the magic, each behind whitespace
    or '#' comments that run to a line end."""
    fields, i = [], 2
    for _ in range(3):
        while buf[i:i + 1].isspace() or buf[i:i + 1] == b"#":
            if buf[i:i + 1] == b"#":
                ends = [j for j in (buf.find(b"\n", i), buf.find(b"\r", i)) if j >= 0]
                if not ends:
                    return None
                i = min(ends)
            i += 1
        j = i
        while j < len(buf) and not buf[j:j + 1].isspace():
            j += 1
        if not buf[i:j].isdigit():
            return None
        fields.append(int(buf[i:j]))
        i = j
    return fields


_edits = st.lists(st.tuples(st.sampled_from("rid"), st.floats(0.0, 1.0, exclude_max=True),
                            st.sampled_from(list(b" \t\r\n#0159P")) | st.integers(0, 255)),
                  min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(seed=st.sampled_from(_VALID_PGMS), edits=_edits)
def test_mutated_pgm_loads_in_range_or_names_the_file(tmp_path_factory, seed, edits):
    raw = bytearray(seed)
    for kind, where, byte in edits:
        at = int(where * len(raw))
        if kind == "i":
            raw.insert(at, byte)
        elif kind == "d":
            del raw[at]
        else:
            raw[at] = byte
    path = tmp_path_factory.getbasetemp() / "mutant.pgm"
    path.write_bytes(bytes(raw))
    try:
        img = image.load_image(path)
    except image.FormatError as exc:
        assert str(path) in str(exc)
        return
    fields = _header_fields(bytes(raw))
    assert fields is not None and img.shape == (fields[1], fields[0])
    assert np.isfinite(img).all() and img.min() >= 0 and img.max() <= 255


class TestNormalize:
    def test_two_point_example(self):
        out = image.normalize(np.array([[0.0, 2.0]]), 127.0, 40.0)
        np.testing.assert_allclose(out, [[87.0, 167.0]], atol=1e-9)

    def test_targets_hit_exactly(self, rng):
        out = image.normalize(rng.standard_normal((32, 32)) * 3 + 9, 127.0, 40.0)
        assert abs(out.mean() - 127.0) < 1e-9
        assert abs(out.std() - 40.0) < 1e-9

    def test_constant_maps_to_target_mean(self):
        out = image.normalize(np.full((4, 4), 3.0), 10.0, 5.0)
        np.testing.assert_array_equal(out, np.full((4, 4), 10.0))

    def test_idempotent(self, rng):
        once = image.normalize(rng.standard_normal((16, 16)), 127.0, 40.0)
        twice = image.normalize(once, 127.0, 40.0)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    @pytest.mark.parametrize("std", [0.0, -1.0])
    def test_nonpositive_std_rejected(self, std):
        with pytest.raises(ValueError, match="positive"):
            image.normalize(np.ones((2, 2)), 0.0, std)


class TestResize:
    def test_block_mean_2x2_to_1x1(self):
        out = image.resize_box(np.array([[0.0, 2.0], [4.0, 6.0]]), 1, 1)
        np.testing.assert_allclose(out, [[3.0]], atol=1e-12)

    def test_checkerboard_blocks_average(self):
        board = np.zeros((4, 4))
        board[::2, 1::2] = 255.0
        board[1::2, ::2] = 255.0
        out = image.resize_box(board, 2, 2)
        np.testing.assert_allclose(out, np.full((2, 2), 127.5), atol=1e-12)

    @pytest.mark.parametrize("shape,target", [((8, 8), (4, 4)), ((12, 8), (4, 2))])
    def test_divisible_preserves_mean(self, rng, shape, target):
        img = rng.uniform(0, 255, size=shape)
        out = image.resize_box(img, target[1], target[0])
        assert out.shape == target
        assert abs(out.mean() - img.mean()) < 1e-9

    @pytest.mark.parametrize("n_in,n_out", [(9, 4), (6, 4), (576, 128)])
    def test_fractional_factors_preserve_mean(self, rng, n_in, n_out):
        img = rng.uniform(0, 255, size=(n_in, n_in))
        out = image.resize_box(img, n_out, n_out)
        assert out.shape == (n_out, n_out)
        assert abs(out.mean() - img.mean()) < 1e-9

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            image.resize_box(np.ones((4, 4)), 0, 2)
