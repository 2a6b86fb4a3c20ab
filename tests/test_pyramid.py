import numpy as np
import pytest

from conftest import pad
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


def isolate(pyr, band=None, low=False, high=False):
    """Copy of pyr with every band and residual zeroed but the (0-based
    scale, orientation) `band` and the residuals flagged."""
    keep = lambda a, flag: a if flag else np.zeros_like(a)
    bands = [[keep(b, (n, k) == band) for k, b in enumerate(level)]
             for n, level in enumerate(pyr.bands)]
    return P.Pyramid(pyr.params, pyr.size, bands, keep(pyr.lowpass_residual, low),
                     keep(pyr.highpass_residual, high))


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
        img = rng.standard_normal((32, 32))
        for tamper, reason in [
                (lambda p: p.bands[1].__setitem__(0, p.bands[1][0][:4, :4]),
                 r"band \(2,0\) shape"),
                (lambda p: p.bands.pop(), "has 1 scales"),
                (lambda p: p.bands[0].pop(), "scale 1 has 1 bands"),
                (lambda p: setattr(p, "highpass_residual", p.highpass_residual[:16]),
                 "high-pass residual shape"),
                (lambda p: setattr(p, "lowpass_residual", p.lowpass_residual[:4, :4]),
                 "low-pass residual shape")]:
            pyr = P.build_pyramid(img, P.PyramidParams(2, 2))
            tamper(pyr)
            with pytest.raises(ValueError, match=reason):
                P.collapse(pyr)


class TestBandReconstruction:
    def test_band_sum_recovers_image(self, rng):
        img = rng.standard_normal((64, 64)) * 30 + 100
        params = P.PyramidParams(3, 4)
        pyr = P.build_pyramid(img, params)
        total = P.collapse(isolate(pyr, low=True)) + P.collapse(isolate(pyr, high=True))
        for n in range(3):
            for k in range(4):
                total = total + P.collapse(isolate(pyr, band=(n, k)))
        assert np.linalg.norm(total - img) / np.linalg.norm(img) <= 1e-8

    def test_zeroed_band_reconstructs_to_zero(self, rng):
        pyr = P.build_pyramid(rng.standard_normal((32, 32)), P.PyramidParams(2, 2))
        pyr.bands[0][1] = np.zeros_like(pyr.bands[0][1])
        assert np.abs(P.collapse(isolate(pyr, band=(0, 1)))).max() == 0.0

    def test_single_orientation_passband_sinusoid_recovered(self):
        # with one orientation the band gain is exactly 1 on its tiling,
        # so a pure on-grid sinusoid at r = pi/2 comes back unchanged
        size = 32
        x = np.arange(size)
        img = np.tile(np.cos(np.pi / 2 * x), (size, 1))
        pyr = P.build_pyramid(img, P.PyramidParams(1, 1))
        rec = P.collapse(isolate(pyr, band=(0, 0)))
        assert np.linalg.norm(rec - img) / np.linalg.norm(img) <= 1e-6


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
        total = stack.high_recon + pad(stack.low_recon, 64)
        for level in stack.corr_recon[:3]:
            total = total + pad(level[-4:], 64).sum(axis=0)
        assert np.abs(total - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("size,n,k", [(8, 1, 1), (16, 2, 3), (64, 3, 4), (128, 4, 6),
                                          (256, 4, 4)])
    def test_dc_gains_are_exactly_zero_or_one(self, size, n, k):
        # the statistic's C9 rests on this: every band, scale and high-pass
        # round trip drops the mean, the low-pass one keeps it unscaled
        stack = P.transfer_stack(size, n, k)
        dc = lambda t: t[..., t.shape[-1] // 2, t.shape[-1] // 2]
        zeros = [dc(t) for t in (*stack.corr_recon[:n], stack.corr_recon[n][:-k],
                                 *stack.scale_recon, stack.high_recon)]
        for z in zeros:
            assert np.array_equal(z, np.zeros_like(z)) and not np.signbit(z).any()
        assert dc(stack.low_recon) == 1.0

    def test_band_grid_matches_recursive_build(self, rng):
        img = rng.standard_normal((64, 64))
        bands, low = recursive_analysis(img, 3, 4)
        stack = P.transfer_stack(64, 3, 4)
        spec = np.fft.fftshift(np.fft.fft2(img))
        for n in range(1, 4):
            for k in range(4):
                np.testing.assert_allclose(stack.band_grid(spec, n)[k],
                                           bands[n - 1][k], atol=1e-10)
        np.testing.assert_allclose(stack.low_grid(spec), low, atol=1e-10)

    def test_recon_transfers_match_isolated_collapse(self, rng):
        # the statistic's round-trip transfers filter the image the way
        # analysis, then synthesis of one band or residual, does
        img = rng.standard_normal((32, 32))
        pyr = P.build_pyramid(img, P.PyramidParams(2, 2))
        stack = P.transfer_stack(32, 2, 2)
        spec = np.fft.fftshift(np.fft.fft2(img))
        # corr_recon[1][2] is scale 2, orientation 0, on its 16 px crop
        for t, part in [(stack.corr_recon[1][2], isolate(pyr, band=(1, 0))),
                        (stack.low_recon, isolate(pyr, low=True))]:
            np.testing.assert_allclose(P.collapse(part), P._ifft(pad(t, 32) * spec).real,
                                       atol=1e-10)

    def test_band_grid_adjoint_is_true_adjoint(self, rng):
        # <w, A x> must equal <A* w, x> for the real-linear pairing
        stack = P.transfer_stack(32, 2, 2)
        x = rng.standard_normal((32, 32))
        spec = np.fft.fftshift(np.fft.fft2(x))
        # the adjoints return spectra; the pixel cotangent is the real part
        # of their zero-padded inverse FFT
        back = lambda s: P._ifft(pad(s, 32)).real
        for scale in (1, 2):
            shape = (2,) + (32 >> (scale - 1),) * 2  # all K orientations at once
            w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            ax = stack.band_grid(spec, scale)
            lhs = np.sum(w.real * ax.real + w.imag * ax.imag)
            rhs = np.sum(back(stack.band_grid_adjoint(w, scale)) * x)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
        w = rng.standard_normal((8, 8))
        lhs = np.sum(w * stack.low_grid(spec))
        np.testing.assert_allclose(lhs, np.sum(back(stack.low_grid_adjoint(w)) * x),
                                   rtol=1e-12)



def crop_pairs(stack, size, n_scales, n_orientations):
    """Per level: (side, [(stored crop, full-resolution formula)], own rows).

    The formulas come from radial_*/angular_gain alone; G_k at the negated
    frequency is taken by index, as Hermitian completion of the half-plane
    bands folds it. `own` is the level's band (or oriented low-pass) rows.
    """
    r, th = P._freq_grid(size)
    g = np.stack([P.angular_gain(k, n_orientations, th) for k in range(n_orientations)])
    gn = np.roll(g[:, ::-1, ::-1], 1, axis=(1, 2))
    chain = P.radial_lowpass(r / 2.0) / 2.0
    out = []
    for n in range(n_scales):
        h = P.radial_highpass(r * 2.0 ** n)
        scale = chain ** 2 * h ** 2
        own = scale * (g ** 2 + gn ** 2)
        out.append((size >> n, [
            (np.fft.fftshift(stack.band_analysis[n], axes=(1, 2)), chain * h * g * 0.25 ** n),
            (stack.scale_recon[n], scale),
            (stack.acorr_power[n], np.concatenate([own, scale[None]]) ** 2)], own))
        chain = chain * (P.radial_lowpass(r * 2.0 ** n) / 2.0)
    low = chain ** 2
    out.append((size >> n_scales, [(stack.low_analysis, chain), (stack.low_recon, low),
                                   (stack.acorr_power[n_scales], low[None] ** 2)],
                (g + gn) / 2.0 * low))
    return out


CROP_GEOMETRIES = [(size, n, k) for size in (8, 16, 32, 64, 128, 256)
                   for n, k in [(1, 1), (1, 4), (2, 3), (3, 4), (4, 4), (4, 6)]
                   if size >> n >= P.MIN_COARSE_SIZE]


@pytest.mark.parametrize("size,n_scales,n_orientations", CROP_GEOMETRIES)
def test_cropped_transfers_pad_to_full_formula_zero_outside_crop(size, n_scales,
                                                                 n_orientations):
    stack = P.TransferStack(size, P.PyramidParams(n_scales, n_orientations))
    levels = crop_pairs(stack, size, n_scales, n_orientations)
    k = n_orientations
    for lev, (side, pairs, own) in enumerate(levels):
        q = (size - side) // 2
        inner = np.zeros((size, size), dtype=bool)
        inner[q + 1:q + side, q + 1:q + side] = True  # the crop minus its first row and column
        for crop, full in pairs + [(stack.corr_recon[lev][-k:], own)]:
            assert crop.shape[-1] == side and crop.flags.c_contiguous
            assert np.array_equal(pad(crop, size), full)
            assert not full[..., ~inner].any()
        # the finer levels' rows of the Gram stack are cropped to this level
        for j, (_, _, finer) in enumerate(levels[:lev]):
            assert np.array_equal(stack.corr_recon[lev][j * k:(j + 1) * k], P._crop(finer, side))


def nyquist_images(size, rng):
    """Noise plus patterns with all their energy on the Nyquist row, column and corner."""
    y, x = np.mgrid[:size, :size]
    return np.stack([rng.standard_normal((size, size)), (-1.0) ** x, (-1.0) ** y,
                     (-1.0) ** (x + y) + 0.5 * (-1.0) ** x * np.cos(2 * np.pi * y / size)])


@pytest.mark.parametrize("size", [8, 16, 64, 256])
def test_real_fft_helpers_match_centered_complex_fft(rng, size):
    imgs = nyquist_images(size, rng)
    ref = np.fft.fftshift(np.fft.fft2(imgs), axes=(-2, -1))
    tol = 1e-12 * np.abs(ref).max()
    for x, full in [(imgs, ref), (imgs[0], ref[0]), (imgs[3], ref[3])]:
        assert np.abs(P._rfft(x) - full).max() <= tol
        for side in (size // 2, 4):
            assert np.abs(P._rfft(x, side) - P._crop(full, side)).max() <= tol
        assert np.abs(P._irfft(full, size) - x).max() <= 1e-12 * np.abs(x).max()
    # a Hermitian crop whose first row and column are 0, zero-padded to size
    side = size // 2
    crop = P._crop(ref, side).copy()
    crop[:, 0, :] = crop[:, :, 0] = 0.0
    expect = np.fft.ifft2(np.fft.ifftshift(pad(crop, size), axes=(-2, -1))).real
    assert np.abs(P._irfft(crop, size) - expect).max() <= 1e-12 * np.abs(expect).max()
