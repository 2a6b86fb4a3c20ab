import numpy as np
import pytest

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
