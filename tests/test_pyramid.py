import numpy as np
import pytest

from texlat import pyramid as P


def recursive_analysis(img, n_scales, n_orientations):
    """Level-by-level reference analysis, independent of TransferStack.

    Each level filters its own grid with L/2 and the oriented bands, then
    halves the spectrum by a central crop scaled by 1/4; returns the
    complex bands per scale and the real low-pass residual.
    """
    size = img.shape[0]
    r0, _ = P._freq_grid(size)
    cur = P.radial_lowpass(r0 / 2.0) / 2.0 * np.fft.fftshift(np.fft.fft2(img))
    bands = []
    for n in range(n_scales):
        r, th = P._freq_grid(size >> n)
        bands.append([np.fft.ifft2(np.fft.ifftshift(
            P.radial_highpass(r) * P.angular_gain(k, n_orientations, th) * cur))
            for k in range(n_orientations)])
        q = cur.shape[0] // 4
        cur = (P.radial_lowpass(r) / 2.0 * cur)[q:3 * q, q:3 * q] * 0.25
    return bands, np.fft.ifft2(np.fft.ifftshift(cur)).real


class TestRadialFilters:
    def test_lowpass_branch_values(self):
        assert P.radial_lowpass(np.pi / 4) == 2.0
        assert P.radial_lowpass(np.pi / 2) == 0.0
        assert P.radial_lowpass(0.0) == 2.0
        # log2(4r/pi) = 1/2 at r = pi/(2 sqrt(2)), so the gain is 2 cos(pi/4)
        np.testing.assert_allclose(P.radial_lowpass(np.pi / (2 * np.sqrt(2))),
                                   np.sqrt(2), atol=1e-12)

    def test_highpass_branch_values_continuous(self):
        np.testing.assert_allclose(P.radial_highpass(np.pi / 4), 0.0, atol=1e-12)
        np.testing.assert_allclose(P.radial_highpass(np.pi / 2), 1.0, atol=1e-12)
        assert P.radial_highpass(3.0) == 1.0
        assert P.radial_highpass(0.1) == 0.0

    def test_ranges(self):
        r = np.linspace(0, np.pi * np.sqrt(2), 2001)
        low, high = P.radial_lowpass(r), P.radial_highpass(r)
        assert (low >= 0).all() and (low <= 2).all()
        assert (high >= 0).all() and (high <= 1).all()

    def test_complementarity_on_dense_grid(self):
        r = np.linspace(0, np.pi * np.sqrt(2), 10_000)
        ident = P.radial_highpass(r) ** 2 + (P.radial_lowpass(r) / 2) ** 2
        assert np.abs(ident - 1).max() <= 1e-12


class TestAngularFilters:
    def test_alpha_values(self):
        np.testing.assert_allclose(P.angular_alpha(4), 2 / np.sqrt(5), atol=1e-12)
        assert P.angular_alpha(1) == 1.0

    def test_peak_value_is_alpha(self):
        for k_count in (1, 2, 4, 6):
            for k in range(k_count):
                peak = P.angular_gain(k, k_count, np.pi * k / k_count)
                np.testing.assert_allclose(peak, P.angular_alpha(k_count), atol=1e-12)
        assert P.angular_gain(0, 1, 0.0) == 1.0

    @pytest.mark.parametrize("k_count", [1, 2, 4, 6])
    def test_hermitian_tiling(self, k_count):
        theta = np.linspace(-np.pi, np.pi, 10_000)
        total = sum(P.angular_gain(k, k_count, theta) ** 2
                    + P.angular_gain(k, k_count, theta + np.pi) ** 2
                    for k in range(k_count))
        assert np.abs(total - 1).max() <= 1e-10

    def test_bad_orientation_index(self):
        with pytest.raises(ValueError):
            P.angular_gain(4, 4, 0.0)


class TestBuild:
    def test_grid_sizes_follow_halving(self, rng):
        img = rng.standard_normal((64, 64))
        pyr = P.build_pyramid(img, P.PyramidParams(3, 4))
        sizes = [level[0].shape[0] for level in pyr.bands]
        assert sizes == [64, 32, 16]
        assert pyr.lowpass_residual.shape == (8, 8)
        assert pyr.highpass_residual.shape == (64, 64)
        assert all(b.dtype == np.complex128 for lv in pyr.bands for b in lv)

    def test_constant_routes_to_lowpass(self):
        pyr = P.build_pyramid(np.full((64, 64), 5.5), P.PyramidParams(3, 4))
        assert max(np.abs(b).max() for lv in pyr.bands for b in lv) <= 1e-10
        np.testing.assert_allclose(pyr.lowpass_residual.mean(), 5.5, atol=1e-9)
        np.testing.assert_allclose(P.collapse(pyr), np.full((64, 64), 5.5), atol=1e-9)

    def test_impulse_response_matches_composite_transfer(self):
        size = 32
        img = np.zeros((size, size))
        img[0, 0] = 1.0  # unit spectrum: bands equal their transfer kernels
        pyr = P.build_pyramid(img, P.PyramidParams(2, 2))
        reference, _ = recursive_analysis(img, 2, 2)
        for n in range(1, 3):
            for k in range(2):
                np.testing.assert_allclose(pyr.bands[n - 1][k], reference[n - 1][k],
                                           atol=1e-12)

    def test_geometry_errors(self, rng):
        params = P.PyramidParams(2, 4)
        with pytest.raises(ValueError, match="square"):
            P.build_pyramid(rng.standard_normal((32, 64)), params)
        with pytest.raises(ValueError, match="power of two"):
            P.build_pyramid(rng.standard_normal((48, 48)), params)
        with pytest.raises(ValueError, match="residual"):
            P.build_pyramid(rng.standard_normal((32, 32)), P.PyramidParams(4, 4))


class TestPerfectReconstruction:
    def test_roundtrip_random_images(self, rng):
        params = P.PyramidParams(4, 4)
        for _ in range(5):
            img = rng.standard_normal((128, 128)) * 40 + 127
            rec = P.collapse(P.build_pyramid(img, params))
            assert np.linalg.norm(rec - img) / np.linalg.norm(img) <= 1e-8

    @pytest.mark.parametrize("size,n,k", [(32, 2, 1), (64, 3, 6), (16, 2, 2)])
    def test_roundtrip_parameter_sweep(self, rng, size, n, k):
        img = rng.standard_normal((size, size))
        rec = P.collapse(P.build_pyramid(img, P.PyramidParams(n, k)))
        assert np.linalg.norm(rec - img) / np.linalg.norm(img) <= 1e-8

    def test_collapse_is_linear(self, rng):
        params = P.PyramidParams(2, 3)
        p1 = P.build_pyramid(rng.standard_normal((32, 32)), params)
        p2 = P.build_pyramid(rng.standard_normal((32, 32)), params)
        mix = P.Pyramid(
            params, 32,
            [[2.0 * a + 3.0 * b for a, b in zip(la, lb)]
             for la, lb in zip(p1.bands, p2.bands)],
            2.0 * p1.lowpass_residual + 3.0 * p2.lowpass_residual,
            2.0 * p1.highpass_residual + 3.0 * p2.highpass_residual)
        np.testing.assert_allclose(
            P.collapse(mix), 2.0 * P.collapse(p1) + 3.0 * P.collapse(p2), atol=1e-10)

    def test_tampered_sizes_rejected(self, rng):
        pyr = P.build_pyramid(rng.standard_normal((32, 32)), P.PyramidParams(2, 2))
        pyr.bands[1][0] = pyr.bands[1][0][:4, :4]
        with pytest.raises(ValueError):
            P.collapse(pyr)


class TestBandReconstruction:
    def test_band_sum_recovers_image(self, rng):
        img = rng.standard_normal((64, 64)) * 30 + 100
        params = P.PyramidParams(3, 4)
        pyr = P.build_pyramid(img, params)
        total = P.reconstruct_lowpass(pyr) + P.reconstruct_highpass(pyr)
        for n in range(1, 4):
            for k in range(4):
                total = total + P.reconstruct_band(pyr, n, k)
        assert np.linalg.norm(total - img) / np.linalg.norm(img) <= 1e-8

    def test_zeroed_band_reconstructs_to_zero(self, rng):
        pyr = P.build_pyramid(rng.standard_normal((32, 32)), P.PyramidParams(2, 2))
        pyr.bands[0][1] = np.zeros_like(pyr.bands[0][1])
        assert np.abs(P.reconstruct_band(pyr, 1, 1)).max() == 0.0

    def test_single_orientation_passband_sinusoid_recovered(self):
        # with one orientation the band gain is exactly 1 on its tiling,
        # so a pure on-grid sinusoid at r = pi/2 comes back unchanged
        size = 32
        x = np.arange(size)
        img = np.tile(np.cos(np.pi / 2 * x), (size, 1))
        pyr = P.build_pyramid(img, P.PyramidParams(1, 1))
        rec = P.reconstruct_band(pyr, 1, 0)
        assert np.linalg.norm(rec - img) / np.linalg.norm(img) <= 1e-6

    def test_index_errors(self, rng):
        pyr = P.build_pyramid(rng.standard_normal((32, 32)), P.PyramidParams(2, 2))
        with pytest.raises(IndexError):
            P.reconstruct_band(pyr, 3, 0)
        with pytest.raises(IndexError):
            P.reconstruct_band(pyr, 1, 2)


class TestCovariance:
    def test_full_resolution_shift_covariance(self, rng):
        img = rng.standard_normal((64, 64))
        params = P.PyramidParams(2, 4)
        base = P.build_pyramid(img, params)
        shifted = P.build_pyramid(np.roll(img, (5, 3), axis=(0, 1)), params)
        for k in range(4):
            moved = np.roll(np.abs(base.bands[0][k]), (5, 3), axis=(0, 1))
            assert np.abs(np.abs(shifted.bands[0][k]) - moved).max() <= 1e-8

    @pytest.mark.parametrize("k_count,perm", [(2, [1, 0]), (4, [2, 3, 0, 1])])
    def test_quarter_turn_permutes_orientation_energy(self, rng, k_count, perm):
        img = rng.standard_normal((64, 64))
        params = P.PyramidParams(2, k_count)
        base = P.build_pyramid(img, params)
        rot = P.build_pyramid(np.rot90(img), params)
        for n in range(2):
            energy = np.array([np.sum(np.abs(b) ** 2) for b in base.bands[n]])
            energy_rot = np.array([np.sum(np.abs(b) ** 2) for b in rot.bands[n]])
            np.testing.assert_allclose(energy_rot, energy[perm], rtol=0.02)


class TestTransferStack:
    def test_transfers_tile_to_identity(self):
        stack = P.transfer_stack(64, 3, 4)
        total = stack.high_recon + stack.low_recon
        for t in stack.corr_recon[:3 * 4]:
            total = total + t
        assert np.abs(total - 1.0).max() <= 1e-12

    def test_band_grid_matches_recursive_build(self, rng):
        img = rng.standard_normal((64, 64))
        bands, low = recursive_analysis(img, 3, 4)
        stack = P.transfer_stack(64, 3, 4)
        spec = np.fft.fftshift(np.fft.fft2(img))
        for n in range(1, 4):
            for k in range(4):
                np.testing.assert_allclose(stack.band_grid(spec, n, k),
                                           bands[n - 1][k], atol=1e-10)
        np.testing.assert_allclose(stack.low_grid(spec), low, atol=1e-10)

    def test_filter_image_matches_band_reconstruction(self, rng):
        img = rng.standard_normal((32, 32))
        pyr = P.build_pyramid(img, P.PyramidParams(2, 2))
        stack = P.transfer_stack(32, 2, 2)
        np.testing.assert_allclose(
            stack.filter_image(img, stack.corr_recon[2]),  # scale 2, orientation 0
            P.reconstruct_band(pyr, 2, 0), atol=1e-10)
        np.testing.assert_allclose(
            stack.filter_image(img, stack.low_recon),
            P.reconstruct_lowpass(pyr), atol=1e-10)

    def test_band_grid_adjoint_is_true_adjoint(self, rng):
        # <w, A x> must equal <A* w, x> for the real-linear pairing
        stack = P.transfer_stack(32, 2, 2)
        x = rng.standard_normal((32, 32))
        spec = np.fft.fftshift(np.fft.fft2(x))
        for scale in (1, 2):
            w = (rng.standard_normal((32 >> (scale - 1),) * 2)
                 + 1j * rng.standard_normal((32 >> (scale - 1),) * 2))
            ax = stack.band_grid(spec, scale, 1)
            lhs = np.sum(w.real * ax.real + w.imag * ax.imag)
            rhs = np.sum(stack.band_grid_adjoint(w, scale, 1) * x)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
        w = rng.standard_normal((8, 8))
        lhs = np.sum(w * stack.low_grid(spec))
        np.testing.assert_allclose(lhs, np.sum(stack.low_grid_adjoint(w) * x), rtol=1e-12)
