import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pad
from texlat import pss, pyramid
from texlat.pss import PssParams, PssVector


def extract(img, n=3, k=4, m=7):
    return pss.extract_pss(img, PssParams(n, k, m))


class TestDimensions:
    def test_default_parameters_give_1784(self):
        assert pss.pss_dim(PssParams(4, 4, 7)) == 1784

    def test_group_sizes_at_default_parameters(self):
        sizes = pss.group_sizes(PssParams(4, 4, 7))
        assert sizes[2] == 784   # N K M^2
        assert sizes[6] == 320   # K^2 N(N+1)
        assert sizes == (6, 10, 784, 245, 64, 80, 320, 256, 18, 1)

    def test_small_parameters_sum(self):
        # 6 + 4 + 9 + 18 + 1 + 2 + 2 + 1 + 3 + 1, straight from the
        # closed-form group sizes
        assert pss.pss_dim(PssParams(1, 1, 3)) == 47

    @pytest.mark.parametrize("n,k,m", [(1, 1, 3), (2, 3, 5), (3, 2, 7),
                                       (1, 4, 5), (2, 2, 3), (3, 1, 5),
                                       (1, 2, 7), (2, 4, 5), (3, 3, 3),
                                       (1, 3, 9)])
    def test_realized_vector_length_matches(self, rng, n, k, m):
        img = rng.standard_normal((32, 32)) * 20 + 100
        v = pss.extract_pss(img, PssParams(n, k, m))
        assert v.values.size == pss.pss_dim(PssParams(n, k, m))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PssParams(0, 4, 7)
        with pytest.raises(ValueError):
            PssParams(4, 4, 4)
        with pytest.raises(ValueError):
            PssParams(4, 4, 1)


class TestLayout:
    def test_group_views_partition_the_vector(self, rng):
        v = extract(rng.standard_normal((32, 32)), 2, 2, 3)
        pieces = [v.group(g) for g in range(1, 11)]
        assert [p.size for p in pieces] == list(pss.group_sizes(v.params))
        np.testing.assert_array_equal(np.concatenate(pieces), v.values)

    def test_group_view_bad_index(self, rng):
        v = extract(rng.standard_normal((32, 32)), 2, 2, 3)
        with pytest.raises(IndexError):
            v.group(11)
        with pytest.raises(IndexError):
            v.group(0)

    def test_vector_length_must_match_layout(self):
        params = PssParams(1, 1, 3)
        assert pss.pss_dim(params) == 47
        with pytest.raises(ValueError):
            PssVector(np.zeros(10), params)

    def test_column_names_match_layout(self):
        params = PssParams(4, 4, 7)
        names = pss.column_names(params)
        assert len(names) == 1784
        assert names[0] == "C1.mean"
        assert names[-1] == "C10.hr.var"
        assert "C3.s2.o1.dy-3.dx2" in names
        idx = names.index("C3.s2.o1.dy-3.dx2")
        start = params.group_slice(3).start
        # scale 2, orientation 1, lag (-3, 2) inside the 7x7 window
        assert idx == start + ((2 - 1) * 4 + 1) * 49 + (-3 + 3) * 7 + (2 + 3)


class TestStatisticValues:
    def test_constant_image(self):
        v = extract(np.full((32, 32), 9.0), 2, 2, 3)
        np.testing.assert_array_equal(v.group(1), [9.0, 0, 0, 0, 9.0, 9.0])
        for g in (3, 4, 5, 6, 7, 8):
            assert np.abs(v.group(g)).max() == 0.0
        np.testing.assert_array_equal(v.group(10), [0.0])
        np.testing.assert_array_equal(v.group(2), np.zeros(pss.group_sizes(v.params)[1]))

    @pytest.mark.parametrize("img", [np.full((64, 64), 9.0), np.zeros((64, 64)),
                                     127 + 40 * (-1.0) ** np.indices((64, 64))[1]],
                             ids=["constant", "zero", "nyquist-stripes"])
    def test_flat_statistics_and_their_gradient_are_zero(self, img):
        # every band and level of these images is flat, so each normalized
        # statistic is 0, and so is its derivative
        params = PssParams(4, 4, 7)
        values, cache = pss._forward(img, params)
        span = slice(params.group_slice(2).start, params.group_slice(8).stop)
        assert not values[span].any()
        cot = np.zeros_like(values)
        cot[span] = np.random.default_rng(0).standard_normal(span.stop - span.start)
        grad = pss._backward(cache, cot)
        assert np.isfinite(grad).all() and not grad.any()

    def test_gaussian_noise_moments(self):
        noise = np.random.default_rng(11).standard_normal((128, 128))
        v = pss.extract_pss(noise, PssParams(4, 4, 7))
        mean, var, skew, kurt, *_ = v.group(1)
        assert abs(var - 1.0) < 0.05
        assert abs(skew) < 0.1
        assert abs(kurt - 3.0) < 0.3

    def test_c1_affine_covariance(self, rng):
        img = rng.standard_normal((32, 32)) * 5 + 40
        a, b = 2.5, -7.0
        c1 = extract(img, 2, 2, 3).group(1)
        c1t = extract(a * img + b, 2, 2, 3).group(1)
        np.testing.assert_allclose(c1t[0], a * c1[0] + b, atol=1e-9)
        np.testing.assert_allclose(c1t[1], a * a * c1[1], rtol=1e-9)
        np.testing.assert_allclose(c1t[2:4], c1[2:4], atol=1e-9)
        np.testing.assert_allclose(c1t[4], a * c1[4] + b, atol=1e-9)
        np.testing.assert_allclose(c1t[5], a * c1[5] + b, atol=1e-9)

    def test_zero_lag_autocorrelation_is_one(self, rng):
        v = extract(rng.standard_normal((32, 32)), 2, 2, 3)
        m = 3
        center = (m * m - 1) // 2
        for g, count in ((3, 2 * 2), (4, 3)):
            block = v.group(g).reshape(count, m * m)
            np.testing.assert_array_equal(block[:, center], np.ones(count))

    def test_correlation_diagonals_are_one(self, rng):
        v = extract(rng.standard_normal((32, 32)) * 30 + 127, 2, 2, 3)
        k = 2
        c6 = v.group(6).reshape(-1, k, k)
        for mat in c6:
            np.testing.assert_allclose(np.diag(mat), 1.0, atol=1e-12)

    def test_c8_blocks_are_transpose_consistent(self, rng):
        n, k = 3, 2
        v = extract(rng.standard_normal((64, 64)) * 20 + 90, n, k, 3)
        c8 = v.group(8).reshape(n, n, k, k)
        for a in range(n):
            for b in range(n):
                np.testing.assert_array_equal(c8[a, b], c8[b, a].T)

    def test_c5_is_the_diagonal_of_c8(self, rng):
        n, k = 3, 2
        v = extract(rng.standard_normal((64, 64)) * 20 + 90, n, k, 3)
        c5 = v.group(5).reshape(n, k, k)
        c8 = v.group(8).reshape(n, n, k, k)
        for s in range(n):
            np.testing.assert_array_equal(c5[s], c8[s, s])

    def test_c6_is_the_same_level_block_of_c7(self, rng):
        n, k = 3, 2
        v = extract(rng.standard_normal((64, 64)) * 20 + 90, n, k, 3)
        c6 = v.group(6).reshape(n + 1, k, k)
        c7 = v.group(7).reshape(n, n + 1, k, k)
        for lev in range(n):
            np.testing.assert_array_equal(c6[lev], c7[lev, lev])

    def test_determinism_is_bitwise(self, rng):
        img = rng.standard_normal((32, 32))
        v1 = extract(img, 2, 2, 3).values
        v2 = extract(img, 2, 2, 3).values
        np.testing.assert_array_equal(v1, v2)

    def test_non_finite_input_rejected(self):
        img = np.ones((32, 32))
        img[3, 3] = np.inf
        with pytest.raises(pss.NumericError):
            extract(img, 2, 2, 3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_rejected(self, rng):
        params = PssParams(2, 2, 3)
        _, cache = pss._forward(rng.standard_normal((32, 32)) * 30 + 127, params)
        with pytest.raises(pss.NumericError, match="non-finite statistic gradient"):
            pss._backward(cache, np.full(pss.pss_dim(params), np.inf))


class TestLevelPlan:
    def test_plan_is_cached_per_size_and_parameters(self):
        assert pss._level_plan(64, PssParams(3, 4, 7)) is pss._level_plan(64, PssParams(3, 4, 7))

    def test_plan_arrays_are_read_only(self):
        for _, rows, _, cos, sin in pss._level_plan(32, PssParams(2, 3, 5)):
            for arr in (rows, cos, sin):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0

    @pytest.mark.parametrize("size,n,k,m", [(16, 1, 1, 3), (64, 3, 4, 7), (128, 4, 4, 7),
                                            (256, 2, 6, 9)])
    def test_level_basis_is_the_column_crop_of_the_full_size_basis(self, size, n, k, m):
        # lags -h..h times the full spectrum's fftshifted frequencies, bit for bit
        h = m // 2
        phase = np.outer(np.arange(-h, h + 1),
                         2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(size)))
        plan = pss._level_plan(size, PssParams(n, k, m))
        assert [side for side, *_ in plan] == [size >> lev for lev in range(n + 1)]
        for side, _, _, cos, sin in plan:
            cols = slice((size - side) // 2, (size + side) // 2)
            assert np.array_equal(cos, np.cos(phase)[:, cols])
            assert np.array_equal(sin, np.sin(phase)[:, cols])


def upsample(img, size):
    """Band-limited interpolation onto a finer grid: zero-padded spectrum."""
    small = img.shape[0]
    spec = np.zeros((size, size), dtype=complex)
    spec[(size - small) // 2:(size + small) // 2, (size - small) // 2:(size + small) // 2] = (
        np.fft.fftshift(np.fft.fft2(img)) * (size / small) ** 2)
    return np.fft.ifft2(np.fft.ifftshift(spec)).real


def spatial_reference(img, n_sc, n_or, m):
    """C3 to C10 computed from filtered images and magnitude grids in space."""
    size = img.shape[0]
    stack = pyramid.transfer_stack(size, n_sc, n_or)

    def filt(transfer):
        """Complex FFT filtering by a zero-padded transfer crop; keeps the real part."""
        spec = np.fft.ifftshift(pad(transfer, size)) * np.fft.fft2(img)
        return np.fft.ifft2(spec).real

    bands = [filt(t) for level in stack.corr_recon[:n_sc] for t in level[-n_or:]]
    levels = [filt(t) for t in (*stack.scale_recon, stack.low_recon)]
    # the real part of the one-sided oriented low-pass
    _, theta = pyramid._freq_grid(size)
    oriented = [filt(pyramid.angular_gain(k, n_or, theta) * pad(stack.low_recon, size))
                for k in range(n_or)]
    high = filt(stack.high_recon)
    h = (m - 1) // 2

    def acorr(im):
        c = im - im.mean()
        return [np.sum(c * np.roll(c, (-dy, -dx), axis=(0, 1))) / np.sum(c * c)
                for dy in range(-h, h + 1) for dx in range(-h, h + 1)]

    rho = np.corrcoef(np.stack([im.ravel() for im in bands + oriented]))
    block = [slice(lev * n_or, (lev + 1) * n_or) for lev in range(n_sc + 1)]
    # C8: each coarser scale's magnitudes interpolated onto the finer grid
    mags = [np.abs(level) for level in pyramid.build_pyramid(img, n_sc, n_or).bands]

    def mag_corr(sa, sb):
        side = img.shape[0] >> min(sa, sb)
        rows = [upsample(mg, side).ravel() for mg in [*mags[sa], *mags[sb]]]
        return np.corrcoef(np.stack(rows))[:n_or, n_or:]
    return {
        3: np.concatenate([acorr(im) for im in bands]),
        4: np.concatenate([acorr(im) for im in levels]),
        5: np.concatenate([mag_corr(sc, sc).ravel() for sc in range(n_sc)]),
        6: np.concatenate([rho[b, b].ravel() for b in block]),
        7: np.concatenate([rho[a, b].ravel() for a in block[:n_sc] for b in block]),
        8: np.concatenate([mag_corr(sa, sb).ravel() for sa in range(n_sc) for sb in range(n_sc)]),
        9: np.array([im.mean() for im in bands] + [levels[-1].mean(), high.mean()]),
        10: np.array([high.var()]),
    }


@pytest.mark.parametrize("n,k,m,size", [(2, 2, 3, 32), (3, 3, 5, 32), (4, 4, 7, 64)])
def test_spectral_groups_match_spatial_reference(rng, n, k, m, size):
    img = rng.standard_normal((size, size)) * 30 + 120
    img += 40 * np.sin(np.arange(size) / 3.0)[None, :]
    v = extract(img, n, k, m)
    for g, ref in spatial_reference(img, n, k, m).items():
        scale = np.abs(ref).max()
        assert np.abs(v.group(g) - ref).max() <= 1e-10 * scale, g


class TestShiftInvariance:
    def test_aligned_shifts_leave_all_groups(self, rng):
        # shifts divisible by 2^(N-1) keep every band grid on-sample
        img = rng.standard_normal((64, 64)) * 40 + 127
        v1 = extract(img, 3, 4, 7)
        v2 = extract(np.roll(img, (8, 4), axis=(0, 1)), 3, 4, 7)
        assert np.abs(v1.values - v2.values).max() <= 1e-6

    def test_arbitrary_shifts_leave_full_resolution_groups(self, rng):
        # magnitude grids at coarse scales resample under odd shifts, so
        # only the groups built from full-resolution images are checked
        img = rng.standard_normal((64, 64)) * 40 + 127
        v1 = extract(img, 3, 4, 7)
        v2 = extract(np.roll(img, (5, 3), axis=(0, 1)), 3, 4, 7)
        for g in (1, 2, 3, 4, 6, 7, 9, 10):
            assert np.abs(v1.group(g) - v2.group(g)).max() <= 1e-6, g


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dy=st.integers(0, 63), dx=st.integers(0, 63),
       aligned=st.booleans())
def test_circular_shift_invariance_property(seed, dy, dx, aligned):
    # N = 3: shifts that are multiples of 2^(N-1) = 4 keep every band grid on-sample
    if aligned:
        dy, dx = 4 * (dy // 4), 4 * (dx // 4)
    img = np.random.default_rng(seed).standard_normal((64, 64)) * 40 + 127
    v1 = extract(img, 3, 4, 7)
    v2 = extract(np.roll(img, (dy, dx), axis=(0, 1)), 3, 4, 7)
    groups = range(1, 11) if aligned else (1, 2, 3, 4, 6, 7, 9, 10)
    for g in groups:
        assert np.abs(v1.group(g) - v2.group(g)).max() <= 1e-6, g


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), side=st.sampled_from([32, 64, 128]),
       n=st.integers(1, 3), k=st.sampled_from([2, 4, 6]))
def test_transposition_permutes_orientations_and_transposes_lags(seed, side, n, k):
    # transposing the image reflects every frequency angle t to pi/2 - t, so for
    # an even K orientation o becomes (K/2 - o) mod K and lag (dy, dx) becomes (dx, dy)
    m = 7
    img = np.random.default_rng(seed).standard_normal((side, side)) * 40 + 127
    v, vt = extract(img, n, k, m), extract(img.T, n, k, m)
    o = (k // 2 - np.arange(k)) % k
    expect = {3: v.group(3).reshape(n, k, m, m)[:, o].transpose(0, 1, 3, 2),
              4: v.group(4).reshape(n + 1, m, m).transpose(0, 2, 1),
              5: v.group(5).reshape(n, k, k)[:, o][:, :, o],
              6: v.group(6).reshape(n + 1, k, k)[:, o][:, :, o],
              7: v.group(7).reshape(n, n + 1, k, k)[:, :, o][:, :, :, o],
              8: v.group(8).reshape(n, n, k, k)[:, :, o][:, :, :, o]}
    for g in range(1, 11):
        want = expect[g].ravel() if g in expect else v.group(g)  # C1, C2, C9, C10 stay
        assert np.abs(vt.group(g) - want).max() <= 1e-12 * np.abs(want).max(), g



@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), side=st.sampled_from([32, 64]),
       a=st.floats(0.1, 10), b=st.floats(-100, 100))
def test_gain_and_offset_map_every_group_as_the_math_says(seed, side, a, b):
    # under x -> a x + b (a > 0): C2-C8 are normalized, so they stay; C1's mean,
    # min and max map to a v + b, its variance to a^2 v, skew and kurtosis stay;
    # C9 scales by a but for the low-pass mean, a v + b; C10 scales by a^2
    img = np.random.default_rng(seed).uniform(0, 255, (side, side))
    v, vt = extract(img, 3, 4, 7), extract(a * img + b, 3, 4, 7)
    expect = {g: v.group(g) for g in range(2, 9)}
    expect[1] = v.group(1) * [a, a * a, 1, 1, a, a] + [b, 0, 0, 0, b, b]
    expect[9] = a * v.group(9)
    expect[9][-2] += b
    expect[10] = a * a * v.group(10)
    for g, want in expect.items():
        assert np.abs(vt.group(g) - want).max() <= 1e-12 * np.abs(want).max(), g
