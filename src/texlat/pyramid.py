"""Frequency-domain steerable filter pyramid.

A square power-of-two image is split by a radial high-pass/low-pass pair
at full resolution, then decomposed into K oriented complex band-pass
grids per scale, scale n+1 sampled at side/2^n. `TransferStack` holds every
filter as one full-resolution transfer (the product of the per-level
filters), so each band is that transfer times the image spectrum followed
by one central crop. The filters form a tight frame, so synthesis is a
weighted adjoint of analysis and `collapse` inverts `build_pyramid` to
floating-point precision.

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

Conventions: forward FFT unscaled, inverse scaled by 1/(s*s); all filter
grids are stored in fftshift layout; reaching scale n+1 crops the central
1/2^n of the spectrum (with a 1/4^n scale so it equals ideal decimation of
band-limited content); the DC sample routes entirely to the low-pass path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MIN_COARSE_SIZE = 4  # smallest usable low-pass residual grid


@dataclass(frozen=True)
class PyramidParams:
    """Decomposition depth and orientation count."""

    n_scales: int
    n_orientations: int

    def __post_init__(self):
        if self.n_scales < 1:
            raise ValueError(f"n_scales must be >= 1, got {self.n_scales}")
        if self.n_orientations < 1:
            raise ValueError(f"n_orientations must be >= 1, got {self.n_orientations}")


@dataclass
class Pyramid:
    """Complete decomposition of one image.

    bands[n][k] holds the complex spatial coefficients of scale n+1,
    orientation k, sampled at side/2^n. The residuals are real images:
    the low-pass at side/2^N and the high-pass at full resolution.
    """

    params: PyramidParams
    size: int
    bands: list[list[np.ndarray]]
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


def _validate_geometry(size: int, n_scales: int) -> None:
    if size < 2 or size & (size - 1):
        raise ValueError(f"image side must be a power of two, got {size}")
    if size >> n_scales < MIN_COARSE_SIZE:
        raise ValueError(
            f"{n_scales} scales leave a {size >> n_scales} px residual for a "
            f"{size} px image; need at least {MIN_COARSE_SIZE} px")


def _crop(spec: np.ndarray, small: int) -> np.ndarray:
    """Central small x small block of an fftshifted spectrum."""
    q = (spec.shape[0] - small) // 2
    return spec[q:q + small, q:q + small]


def _pad(spec: np.ndarray, size: int) -> np.ndarray:
    """Zero-pad an fftshifted spectrum about its center to size x size."""
    small = spec.shape[0]
    if small == size:
        return spec
    out = np.zeros((size, size), dtype=spec.dtype)
    _crop(out, small)[...] = spec
    return out


def _fft(img: np.ndarray) -> np.ndarray:
    """Centered 2-D spectrum of an image, or of each image of a stack."""
    return np.fft.fftshift(np.fft.fft2(img), axes=(-2, -1))


def _ifft(spec: np.ndarray) -> np.ndarray:
    return np.fft.ifft2(np.fft.ifftshift(spec, axes=(-2, -1)))


def build_pyramid(img, params: PyramidParams) -> Pyramid:
    """Decompose a square power-of-two image into oriented band grids."""
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"pyramid input must be square, got shape {a.shape}")
    stack = transfer_stack(a.shape[0], params.n_scales, params.n_orientations)
    spec = _fft(a)
    bands = [[stack.band_grid(spec, n, k) for k in range(params.n_orientations)]
             for n in range(1, params.n_scales + 1)]
    return Pyramid(params, a.shape[0], bands, stack.low_grid(spec),
                   _ifft(stack.highpass0 * spec).real)


def collapse(pyr: Pyramid) -> np.ndarray:
    """Exact synthesis back to the source resolution."""
    params = pyr.params
    expect = pyr.size >> params.n_scales
    if pyr.lowpass_residual.shape != (expect, expect):
        raise ValueError(
            f"low-pass residual shape {pyr.lowpass_residual.shape} does not "
            f"match {expect}x{expect}")
    out = reconstruct_lowpass(pyr) + reconstruct_highpass(pyr)
    for n in range(params.n_scales):
        level = pyr.size >> n
        for k, band in enumerate(pyr.bands[n]):
            if band.shape != (level, level):
                raise ValueError(
                    f"band ({n + 1},{k}) shape {band.shape} does not match "
                    f"{level}x{level}")
            out += reconstruct_band(pyr, n + 1, k)
    return out


def reconstruct_band(pyr: Pyramid, scale: int, orientation: int) -> np.ndarray:
    """Back-project one band through the synthesis path, others zeroed.

    `scale` is 1-based (1 = finest); returns a real full-resolution image.
    Synthesis is the analysis adjoint weighted by 2 (the adjoint keeps the
    real part, half of the Hermitian completion of the half-plane band)
    and by 4^(scale-1) (undoing the decimation scale of band_grid).
    """
    params = pyr.params
    if not 1 <= scale <= params.n_scales:
        raise IndexError(f"scale {scale} out of range 1..{params.n_scales}")
    if not 0 <= orientation < params.n_orientations:
        raise IndexError(
            f"orientation {orientation} out of range 0..{params.n_orientations - 1}")
    stack = transfer_stack(pyr.size, params.n_scales, params.n_orientations)
    band = pyr.bands[scale - 1][orientation]
    return 2.0 * 4.0 ** (scale - 1) * stack.band_grid_adjoint(band, scale, orientation)


def reconstruct_lowpass(pyr: Pyramid) -> np.ndarray:
    """Back-project the low-pass residual to full resolution."""
    stack = transfer_stack(pyr.size, pyr.params.n_scales, pyr.params.n_orientations)
    return 4.0 ** pyr.params.n_scales * stack.low_grid_adjoint(pyr.lowpass_residual)


def reconstruct_highpass(pyr: Pyramid) -> np.ndarray:
    """Back-project the high-pass residual to full resolution."""
    stack = transfer_stack(pyr.size, pyr.params.n_scales, pyr.params.n_orientations)
    return stack.filter_image(pyr.highpass_residual, stack.highpass0)


class TransferStack:
    """Full-resolution composite transfer functions for one decomposition.

    Every real image the statistics consume is the source image passed
    through one circular filter with a real transfer; this object holds
    those transfers plus the single-pass analysis transfers that produce
    the complex band coefficients. Because the transfers are real, each
    filtering map is self-adjoint, which is what the analytic gradient
    of the statistics relies on.
    """

    def __init__(self, size: int, params: PyramidParams):
        _validate_geometry(size, params.n_scales)
        self.size = size
        self.params = params
        n_sc, n_or = params.n_scales, params.n_orientations
        r, th = _freq_grid(size)
        self.highpass0 = radial_highpass(r / 2.0)
        self.high_recon = self.highpass0 ** 2
        self.angular = [angular_gain(k, n_or, th) for k in range(n_or)]
        # G_k at the negated frequency, taken by index so it folds exactly
        # the way Hermitian completion of the half-plane bands does
        negated = [np.roll(g[::-1, ::-1], 1, axis=(0, 1)) for g in self.angular]

        chain = radial_lowpass(r / 2.0) / 2.0  # L0, then each scale's low-pass
        self.band_analysis = []  # [n][k], single analysis pass
        band_recon = []          # analysis+synthesis round trips, (n, k) order
        self.scale_recon = []    # [n], sum of the scale's band round trips
        for n in range(n_sc):
            h = radial_highpass(r * 2.0 ** n)
            self.band_analysis.append([chain * h * g for g in self.angular])
            band_recon += [chain ** 2 * h ** 2 * (g ** 2 + gn ** 2)
                           for g, gn in zip(self.angular, negated)]
            self.scale_recon.append(chain ** 2 * h ** 2)
            chain = chain * (radial_lowpass(r * 2.0 ** n) / 2.0)
        self.low_analysis = chain
        self.low_recon = chain ** 2
        # the real part of an image filtered by G_k applies (G_k(w) + G_k(-w))/2
        oriented = [(g + gn) / 2.0 * self.low_recon for g, gn in zip(self.angular, negated)]
        # stacked transfers of the quadratic statistics: C6/C7 correlate the
        # band and oriented low-pass reconstructions, C3/C4 autocorrelate the
        # band, scale and low-pass reconstructions (squared: power gains)
        self.corr_recon = np.stack(band_recon + oriented)
        self.acorr_power = np.stack(band_recon + self.scale_recon + [self.low_recon]) ** 2
        # instances are cached and shared; freeze every grid
        for arr in (self.highpass0, self.high_recon,
                    self.low_analysis, self.low_recon, *self.angular,
                    *self.scale_recon, self.corr_recon, self.acorr_power,
                    *(t for lv in self.band_analysis for t in lv)):
            arr.flags.writeable = False

    def filter_image(self, img: np.ndarray, transfer: np.ndarray) -> np.ndarray:
        """Apply a real transfer; also the adjoint of the same map."""
        return _ifft(transfer * _fft(img)).real

    def band_grid(self, spec: np.ndarray, scale: int, orientation: int) -> np.ndarray:
        """Complex band coefficients at the scale's own resolution.

        `spec` is the fftshifted spectrum of the source image; nesting of
        the per-level central crops collapses into one crop here.
        """
        n = scale - 1
        side = self.size >> n
        z = _crop(self.band_analysis[n][orientation], side) * _crop(spec, side)
        z *= 0.25 ** n
        return _ifft(z)

    def band_grid_adjoint(self, cot: np.ndarray, scale: int, orientation: int) -> np.ndarray:
        """Adjoint of band_grid for a complex cotangent grid."""
        spec = _pad(_fft(cot), self.size)
        return _ifft(self.band_analysis[scale - 1][orientation] * spec).real

    def low_grid(self, spec: np.ndarray) -> np.ndarray:
        """Real low-pass residual at the coarsest resolution, one crop as in band_grid."""
        n = self.params.n_scales
        z = _crop(self.low_analysis * spec, self.size >> n)
        z *= 0.25 ** n
        return _ifft(z).real

    def low_grid_adjoint(self, cot: np.ndarray) -> np.ndarray:
        """Adjoint of low_grid for a real cotangent grid."""
        return _ifft(self.low_analysis * _pad(_fft(cot), self.size)).real


@lru_cache(maxsize=16)
def transfer_stack(size: int, n_scales: int, n_orientations: int) -> TransferStack:
    return TransferStack(size, PyramidParams(n_scales, n_orientations))
