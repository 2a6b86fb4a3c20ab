"""Frequency-domain steerable filter pyramid.

A square power-of-two image is split by a radial high-pass/low-pass pair
at full resolution, then decomposed into K oriented complex band-pass
grids per scale, scale n+1 sampled at side/2^n. `TransferStack` holds every
filter as one composite transfer (the product of the per-level filters),
kept only on the central crop outside which it is 0, so each band is that
transfer times the same crop of the image spectrum. The filters form a
tight frame, so synthesis is a weighted adjoint of analysis: `collapse`
sums the weighted adjoints of every band and residual as one spectrum and
so inverts `build_pyramid` to floating-point precision. A `Pyramid` is
its arrays alone, one (K, side, side) band stack per scale and the two
residuals, and `collapse` reads N, K and the side from their shapes.

Transfer functions (polar frequency coordinates, r in radians):

    lowpass  L(r)  = 2                          r <= pi/4
                     2 cos((pi/2) log2(4r/pi))  pi/4 < r < pi/2
                     0                          r >= pi/2
    highpass H(r)  = 0                          r <= pi/4
                     cos((pi/2) log2(2r/pi))    pi/4 < r < pi/2
                     1                          r >= pi/2
    angular  G_k(t) = alpha_K cos(t - pi k/K)^(K-1) on a half-open
                      half-plane window, 0 elsewhere
    band     B_k(r, t) = H(r) G_k(t)
    L0(r) = L(r/2)/2,  H0(r) = H(r/2)

The high-pass constant branches are the unique continuous completion of
the cosine segment; they make H(r)^2 + (L(r)/2)^2 = 1 hold identically,
which is what perfect reconstruction rests on.

Conventions: forward FFT unscaled, inverse scaled by 1/(s*s); spectra are
centered (fftshift layout), real images transformed by rfft2/irfft2 in that
layout; reaching scale n+1 crops the central 1/2^n of the spectrum (with a
1/4^n scale so it equals ideal decimation of band-limited content); each
filter grid is stored on its level's crop, the band analysis transfers in
natural order with that scale folded in; the DC sample routes entirely to
the low-pass path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MIN_COARSE_SIZE = 4  # smallest usable low-pass residual grid


@dataclass
class Pyramid:
    """Complete decomposition of one image; the arrays fix its geometry.

    bands[n] is the (K, side/2^n, side/2^n) stack of complex spatial
    coefficients of scale n+1, so bands[n][k] is orientation k. The
    residuals are real images: the low-pass at side/2^N and the high-pass
    at full resolution, which gives the side.
    """

    bands: list[np.ndarray]
    lowpass_residual: np.ndarray
    highpass_residual: np.ndarray


def radial_lowpass(r):
    """Low-pass radial gain, range [0, 2]."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    out[r <= np.pi / 4] = 2.0
    mid = (r > np.pi / 4) & (r < np.pi / 2)
    out[mid] = 2.0 * np.cos(np.pi / 2 * np.log2(4.0 * r[mid] / np.pi))
    return out


def radial_highpass(r):
    """High-pass radial gain, range [0, 1]; satisfies H^2 + (L/2)^2 = 1."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    out[r >= np.pi / 2] = 1.0
    mid = (r > np.pi / 4) & (r < np.pi / 2)
    out[mid] = np.cos(np.pi / 2 * np.log2(2.0 * r[mid] / np.pi))
    return out


def angular_alpha(n_orientations: int) -> float:
    """Normalization making the oriented gains tile the angle axis."""
    k = n_orientations
    return 2.0 ** (k - 1) * math.factorial(k - 1) / math.sqrt(k * math.factorial(2 * (k - 1)))


def angular_gain(k: int, n_orientations: int, theta):
    """Oriented angular gain for orientation k of n_orientations.

    Nonzero on the half-open window -pi/2 <= wrap(theta - pi k/K) < pi/2;
    the half-open convention keeps the Hermitian tiling identity
    sum_k G_k(t)^2 + G_k(t+pi)^2 = 1 exact at window edges.
    """
    kk = n_orientations
    if not 0 <= k < kk:
        raise ValueError(f"orientation index {k} out of range for K={kk}")
    theta = np.asarray(theta, dtype=np.float64)
    d = np.mod(theta - np.pi * k / kk + np.pi, 2.0 * np.pi) - np.pi
    out = np.zeros_like(d)
    sel = (d >= -np.pi / 2) & (d < np.pi / 2)
    out[sel] = angular_alpha(kk) * np.cos(d[sel]) ** (kk - 1)
    return out


def _freq_grid(size: int):
    """(radius, angle) grids in fftshift layout; angle at DC is 0."""
    w = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(size))
    wy, wx = np.meshgrid(w, w, indexing="ij")
    return np.hypot(wx, wy), np.arctan2(wy, wx)


def _validate_counts(n_scales: int, n_orientations: int) -> None:
    if n_scales < 1:
        raise ValueError(f"n_scales must be >= 1, got {n_scales}")
    if n_orientations < 1:
        raise ValueError(f"n_orientations must be >= 1, got {n_orientations}")


def _validate_geometry(size: int, n_scales: int) -> None:
    if size < 2 or size & (size - 1):
        raise ValueError(f"image side must be a power of two, got {size}")
    if size >> n_scales < MIN_COARSE_SIZE:
        raise ValueError(
            f"{n_scales} scales leave a {size >> n_scales} px residual for a "
            f"{size} px image; need at least {MIN_COARSE_SIZE} px")


def _crop(spec: np.ndarray, small: int) -> np.ndarray:
    """Central small x small block of an fftshifted spectrum, or of each of a stack."""
    q = (spec.shape[-1] - small) // 2
    return spec[..., q:q + small, q:q + small]


def _rfft(img: np.ndarray, side: int | None = None) -> np.ndarray:
    """Central side x side block (default: all) of fftshift(fft2(img)) of a real image or stack."""
    size = img.shape[-1]
    h = (side or size) // 2
    r = np.fft.rfft2(img)
    out = np.empty(img.shape[:-2] + (2 * h, 2 * h), dtype=complex)
    out[..., h:, h:] = r[..., :h, :h]
    out[..., :h, h:] = r[..., size - h:, :h]
    np.conjugate(r[..., h::-1, h:0:-1], out=out[..., :h + 1, :h])
    np.conjugate(r[..., :size - h:-1, h:0:-1], out=out[..., h + 1:, :h])
    return out


def _irfft(spec: np.ndarray, size: int) -> np.ndarray:
    """Real size x size image whose centered spectrum is `spec` zero-padded about its
    center; only kx >= 0 is read, so that must be Hermitian (a crop's first row/column 0)."""
    h = spec.shape[-1] // 2
    half = np.zeros(spec.shape[:-2] + (size, size // 2 + 1), dtype=complex)
    half[..., :h, :h + 1] = spec[..., h:, np.r_[h:2 * h, 0]]
    half[..., size - h:, :h + 1] = spec[..., :h, np.r_[h:2 * h, 0]]
    return np.fft.irfft2(half, s=(size, size))


def _ifft(spec: np.ndarray) -> np.ndarray:
    return np.fft.ifft2(np.fft.ifftshift(spec, axes=(-2, -1)))


def build_pyramid(img, n_scales: int, n_orientations: int) -> Pyramid:
    """Decompose a square power-of-two image into oriented band grids."""
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"pyramid input must be square, got shape {a.shape}")
    stack = transfer_stack(a.shape[0], n_scales, n_orientations)
    spec = _rfft(a)
    bands = [stack.band_grid(spec, n) for n in range(1, n_scales + 1)]
    return Pyramid(bands, stack.low_grid(spec), _irfft(stack.highpass0 * spec, a.shape[0]))


def collapse(pyr: Pyramid) -> np.ndarray:
    """Exact synthesis back to the source resolution.

    Synthesis is the analysis adjoint weighted by 4^n for scale n+1 and by
    4^N for the low-pass (undoing the decimation scales), and by 2 more
    for the bands (the adjoint keeps the real part, half of the Hermitian
    completion of the half-plane band); the weighted adjoints add up in
    one centered spectrum that one inverse FFT brings back to pixels.
    """
    # the side from the high-pass residual, N and K from the band stacks
    size, n_sc = pyr.highpass_residual.shape[-1], len(pyr.bands)
    n_or = len(pyr.bands[0]) if n_sc else 0
    expected = [("high-pass residual", pyr.highpass_residual, (size, size)),
                ("low-pass residual", pyr.lowpass_residual, (size >> n_sc,) * 2)]
    expected += [(f"scale {n + 1} band stack", b, (n_or,) + (size >> n,) * 2)
                 for n, b in enumerate(pyr.bands)]
    for what, arr, shape in expected:
        if arr.shape != shape:
            raise ValueError(f"{what} shape {arr.shape} does not match {shape}")
    stack = transfer_stack(size, n_sc, n_or)
    spec = stack.highpass0 * _rfft(pyr.highpass_residual)
    _crop(spec, size >> n_sc)[...] += 4.0 ** n_sc * stack.low_grid_adjoint(pyr.lowpass_residual)
    for n, bands in enumerate(pyr.bands):
        _crop(spec, size >> n)[...] += 2.0 * 4.0 ** n * stack.band_grid_adjoint(bands, n + 1)
    return _ifft(spec).real


class TransferStack:
    """Composite transfer functions for one decomposition, each on its crop.

    Every real image the statistics consume is the source image passed
    through one circular filter with a real, even transfer; this object
    holds those transfers plus the single-pass analysis transfers that
    produce the complex band coefficients. Because the transfers are real,
    each filtering map is self-adjoint, which is what the analytic gradient
    of the statistics relies on.

    The transfers of level L (scale L+1; the low-pass at L = N) are 0
    outside the central (size >> L) square of the spectrum and on its first
    row and column, so each is kept only on that crop, contiguous:
    `band_analysis[n]` is scale n+1's (K, side, side) analysis in natural
    order with its 0.25^n decimation folded in; `scale_recon[n]`,
    `low_recon` and `low_analysis` are centered crops; `acorr_power[L]`
    holds level L's squared band, then scale (or low-pass) round trips,
    and `corr_recon[L]` the band round trips (at L = N the oriented
    low-pass split) of every level <= L on crop L, L's own K rows last.
    `highpass0` and `high_recon` are full size and centered. The analysis
    adjoints return centered spectrum crops, so `collapse` and the statistic
    gradient both add them into one spectrum before one inverse FFT.
    """

    def __init__(self, size: int, n_scales: int, n_orientations: int):
        _validate_counts(n_scales, n_orientations)
        _validate_geometry(size, n_scales)
        self.size = size
        n_sc, n_or = n_scales, n_orientations
        r_full, th_full = _freq_grid(size)
        self.highpass0 = radial_highpass(r_full / 2.0)
        self.high_recon = self.highpass0 ** 2

        g_full = np.stack([angular_gain(k, n_or, th_full) for k in range(n_or)])
        # G_k at the negated frequency, taken by index so it folds exactly
        # the way Hermitian completion of the half-plane bands does
        gn_full = np.roll(g_full[:, ::-1, ::-1], 1, axis=(1, 2))

        chain = radial_lowpass(r_full / 2.0) / 2.0  # L0, then each scale's low-pass
        self.band_analysis, self.scale_recon, own, self.acorr_power = [], [], [], []
        for n in range(n_sc):
            side = size >> n
            r, chain, g, gn = (_crop(a, side) for a in (r_full, chain, g_full, gn_full))
            h = radial_highpass(r * 2.0 ** n)
            self.band_analysis.append(
                np.fft.ifftshift(chain * h * g, axes=(1, 2)) * 0.25 ** n)
            self.scale_recon.append(chain ** 2 * h ** 2)
            own.append(self.scale_recon[n] * (g ** 2 + gn ** 2))  # band round trips
            self.acorr_power.append(np.concatenate([own[n], self.scale_recon[n][None]]) ** 2)
            chain = chain * (radial_lowpass(r * 2.0 ** n) / 2.0)
        side = size >> n_sc
        self.low_analysis = _crop(chain, side).copy()
        self.low_recon = self.low_analysis ** 2
        self.acorr_power.append(self.low_recon[None] ** 2)
        # the real part of an image filtered by G_k applies (G_k(w) + G_k(-w))/2
        own.append(_crop(g_full + gn_full, side) / 2.0 * self.low_recon)
        self.corr_recon = [np.concatenate([_crop(t, size >> lev) for t in own[:lev + 1]])
                           for lev in range(n_sc + 1)]
        # instances are cached and shared; freeze every grid
        for arr in (self.highpass0, self.high_recon, self.low_analysis, self.low_recon,
                    *self.band_analysis, *self.scale_recon, *self.acorr_power, *self.corr_recon):
            arr.flags.writeable = False

    def band_grid(self, spec: np.ndarray, scale: int) -> np.ndarray:
        """(K, side, side) complex band coefficients at the scale's own resolution,
        from the fftshifted source spectrum: the nested crops collapse into one."""
        side = self.size >> (scale - 1)
        return np.fft.ifft2(self.band_analysis[scale - 1] * np.fft.ifftshift(_crop(spec, side)))

    def band_grid_adjoint(self, cot: np.ndarray, scale: int) -> np.ndarray:
        """Adjoint of band_grid for (K, side, side) complex cotangent grids: the
        centered side x side spectrum they add to the source's (whose inverse
        FFT's real part is the pixel cotangent)."""
        z = (self.band_analysis[scale - 1] * np.fft.fft2(cot)).sum(axis=0)
        return 4.0 ** (scale - 1) * np.fft.fftshift(z)

    def low_grid(self, spec: np.ndarray) -> np.ndarray:
        """Real low-pass residual at the coarsest resolution, one crop as in band_grid."""
        side, n_sc = self.low_analysis.shape[0], len(self.band_analysis)
        return 0.25 ** n_sc * _irfft(self.low_analysis * _crop(spec, side), side)

    def low_grid_adjoint(self, cot: np.ndarray) -> np.ndarray:
        """Adjoint of low_grid for a real cotangent grid, as a centered spectrum crop."""
        return self.low_analysis * _rfft(cot)


@lru_cache(maxsize=16)
def transfer_stack(size: int, n_scales: int, n_orientations: int) -> TransferStack:
    return TransferStack(size, n_scales, n_orientations)
