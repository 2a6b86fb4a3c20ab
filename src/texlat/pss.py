"""The pyramid texture statistic: ten groups flattened into one vector.

Group contents (N scales, K orientations, M-neighborhood, population
moment conventions throughout):

    C1   mean, variance, skewness, kurtosis, min, max of the input    (6)
    C2   skewness + kurtosis of per-scale reconstructions and of the
         low-pass reconstruction                                 (2(N+1))
    C3   MxM circular autocorrelation of every oriented band
         reconstruction                                         (N K M^2)
    C4   the same autocorrelation of per-scale reconstructions and the
         low-pass reconstruction                               (M^2(N+1))
    C5   correlations of band coefficient magnitudes within a scale
                                                                  (N K^2)
    C6   correlations of oriented reconstructions within each scale,
         plus an oriented split of the low-pass reconstruction (K^2(N+1))
    C7   correlations of oriented reconstructions across every
         (scale, level) pair, low-pass level included        (K^2 N(N+1))
    C8   magnitude correlations across all scale pairs, coarser grids
         interpolated onto the finer grid                       (N^2 K^2)
    C9   means of band reconstructions, then of the low-pass and
         high-pass reconstructions                                (NK+2)
    C10  variance of the high-pass reconstruction                     (1)

At the default parameters (4, 4, 7) the vector has 1784 entries.
`_group_shapes` gives each group's array shape, outermost axis first; the
sizes, the slices, the column names and the group views `_forward` writes
into and `_backward` reads from all derive from it.

Every "reconstruction" is the input passed through one real transfer of
`pyramid.TransferStack`. C3, C4, C6, C7, C9 and C10 are quadratic (C9:
linear) in such images, so by Wiener-Khinchin they are weighted sums over
the power spectrum |X|^2 of the centered input: a lag window of a cosine
transform for C3/C4, a transfer-weighted Gram matrix for C6/C7, the DC
bin for C9, whose transfers' DC gains are 0 or 1. No filtered image is
formed for them, and the C3/C4/C6/C7 sums of level L run over the central
size/2^L crop of the spectrum, outside which its transfers are exactly
zero. The C5 and C8 magnitude correlations are, by Parseval, inner
products of the magnitude grids' spectra, whose zeroed DC bins remove the
grid means: across scales, the coarser grid's spectrum with its Nyquist
row and column split in two is the spectrum of its band-limited
interpolation onto the finer grid. Only C1 and the C2 moments of the N+1
level images are computed in space.

Every statistic is a smooth function of the input (plus min/max and
magnitudes), so the module also provides the exact reverse-mode
derivative of any weighting of the statistics with respect to the input
pixels; `_forward` returns the cache `_backward` consumes. The gradient
of all quadratic groups is one real weight w on the power spectrum; the
level and band cotangents join it in the same spectrum, which one
inverse FFT brings back to pixels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from . import pyramid
from .pyramid import _crop, _ifft, _irfft, _rfft

VAR_EPS = 1e-12  # below this population variance, normalized stats are 0


class NumericError(ArithmeticError):
    """Raised when a statistic or gradient turns out non-finite."""


@dataclass(frozen=True)
class PssParams:
    """Decomposition depth, orientation count and autocorrelation window: the
    statistic's ten group sizes, and so its layout, follow from these alone."""

    n_scales: int = 4
    n_orientations: int = 4
    neighborhood: int = 7

    def __post_init__(self):
        pyramid._validate_counts(self.n_scales, self.n_orientations)
        m = self.neighborhood
        if m < 3 or m % 2 == 0:
            raise ValueError(f"neighborhood must be odd and >= 3, got {m}")

    def group_slice(self, group: int) -> slice:
        """Slice of group 1..10 in the flat vector."""
        if not 1 <= group <= 10:
            raise IndexError(f"group index {group} out of range 1..10")
        sizes = group_sizes(self)
        start = sum(sizes[:group - 1])
        return slice(start, start + sizes[group - 1])


def _group_shapes(params: PssParams) -> tuple[tuple[int, ...], ...]:
    """Array shape of each group, outermost axis first (scale, level, orientation, lag)."""
    n, k, m = params.n_scales, params.n_orientations, params.neighborhood
    return ((6,), (n + 1, 2), (n, k, m * m), (n + 1, m * m), (n, k, k),
            (n + 1, k, k), (n, n + 1, k, k), (n, n, k, k), (n * k + 2,), (1,))


def group_sizes(params: PssParams) -> tuple[int, ...]:
    return tuple(math.prod(shape) for shape in _group_shapes(params))


def _group_views(vec: np.ndarray, params: PssParams) -> list[np.ndarray]:
    """The ten groups of a flat statistic vector as views of their shapes."""
    ends = [0, *itertools.accumulate(group_sizes(params))]
    return [vec[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], _group_shapes(params))]


@dataclass
class PssVector:
    """A statistic vector together with the parameters that fix its layout."""

    values: np.ndarray
    params: PssParams

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        dim = pss_dim(self.params)
        if self.values.shape != (dim,):
            raise ValueError(f"values have length {self.values.size}, layout says {dim}")

    def group(self, group: int) -> np.ndarray:
        return self.values[self.params.group_slice(group)]


def pss_dim(params: PssParams) -> int:
    """Total statistic dimension for the given parameters."""
    return sum(group_sizes(params))


def column_names(params: PssParams) -> list[str]:
    """Stable per-coordinate names, e.g. C3.s2.o1.dy-3.dx2: each group's axis
    labels, in the order of its `_group_shapes` axes."""
    n, k, m = params.n_scales, params.n_orientations, params.neighborhood
    h = (m - 1) // 2
    sc = [f"s{i}" for i in range(1, n + 1)]
    lev, ori = sc + ["lr"], [f"o{i}" for i in range(k)]
    lags = [f"dy{dy}.dx{dx}" for dy in range(-h, h + 1) for dx in range(-h, h + 1)]
    axes = ([["mean", "var", "skew", "kurt", "min", "max"]], [lev, ["skew", "kurt"]],
            [sc, ori, lags], [lev, lags], [sc, ori, ori], [lev, ori, ori],
            [sc, lev, ori, ori], [sc, sc, ori, ori],
            [[f"{s}.{o}" for s in sc for o in ori] + ["lr", "hr"]], [["hr.var"]])
    return [".".join((f"C{g}", *label)) for g, labels in enumerate(axes, 1)
            for label in itertools.product(*labels)]


# --------------------------------------------------------------------------
# statistic primitives (population conventions, variance-guarded)

def _flat_safe(x, den, ok):
    """x / den where ok, else 0, with no quotient (and no warning) outside ok.
    The flat rule: a statistic normalized by a variance below VAR_EPS is 0,
    and so is its derivative."""
    return np.divide(x, den, out=np.zeros(np.broadcast(x, den).shape), where=ok)


def _skew_kurt(img):
    """(skewness, kurtosis, aux) of one image."""
    c = img - img.mean()
    c2 = c * c
    var = np.mean(c2)
    m3 = np.mean(c2 * c)
    m4 = np.mean(c2 * c2)
    ok = var >= VAR_EPS
    skew, kurt = _flat_safe(m3, var ** 1.5, ok), _flat_safe(m4, var ** 2, ok)
    return skew, kurt, (c, var, m3, skew, kurt)


def _skew_kurt_backward(aux, g_skew, g_kurt):
    c, var, m3, skew, kurt = aux
    if var < VAR_EPS:
        return np.zeros_like(c)
    n = c.size
    c2 = c * c
    cot = g_skew * (3.0 / n) * ((c2 - var) / var ** 1.5 - skew * c / var)
    cot += g_kurt * (4.0 / n) * ((c2 * c - m3) / var ** 2 - kurt * c / var)
    return cot


def _cov_to_corr(cov, vara, varb):
    """Pearson matrix from a covariance matrix."""
    ok = np.outer(vara >= VAR_EPS, varb >= VAR_EPS)
    return _flat_safe(cov, np.sqrt(np.outer(vara, varb)), ok)


def _corr_weights(vara, varb, rho, g):
    """(w, da, db) for sum(g * rho) with rho = _cov_to_corr(cov, ...).

    w is its derivative by cov; -da/2 and -db/2 are those by vara and varb.
    """
    oka, okb = vara >= VAR_EPS, varb >= VAR_EPS
    gr = g * rho
    return (_flat_safe(g, np.outer(np.sqrt(vara), np.sqrt(varb)), np.outer(oka, okb)),
            _flat_safe(gr.sum(axis=1), vara, oka), _flat_safe(gr.sum(axis=0), varb, okb))


@lru_cache(maxsize=16)
def _level_plan(size, params: PssParams):
    """(crop side, lag rows, Gram rows, cos, sin) of each level 0..N.

    Level L < N holds the scale-(L+1) band and scale transfers, level N the
    low-pass ones; `TransferStack` keeps level L's transfers on its size >> L crop.
    cos, sin: (M, side), of lags -h..h times the crop's frequencies k/size, fftshifted; frozen.
    """
    n_sc, n_or, h = params.n_scales, params.n_orientations, params.neighborhood // 2
    plan = []
    for lev in range(n_sc + 1):
        side = size >> lev
        bands = range(lev * n_or, (lev + 1) * n_or) if lev < n_sc else ()
        phase = np.outer(np.arange(-h, h + 1),
                         2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(side, size / side)))
        rows, cos, sin = np.array([*bands, n_sc * n_or + lev]), np.cos(phase), np.sin(phase)
        for arr in (rows, cos, sin):
            arr.flags.writeable = False
        plan.append((side, rows, slice(lev * n_or, (lev + 1) * n_or), cos, sin))
    return tuple(plan)


def _interp_spectra(spec):
    """Band-limited interpolation spectra of (K, s, s) DC-free grid spectra.

    On a finer grid of side f the real interpolant has f^2 times this
    (K, s+1, s+1) block as the center of its spectrum. The Nyquist row
    and column split evenly between -s/2 and +s/2, but the corner
    coefficient goes half to (-s/2, -s/2) and half to (+s/2, +s/2), and
    the corners (-s/2, +s/2) and (+s/2, -s/2) get nothing, so a quarter
    turn of the grid does not turn its interpolant.
    """
    k, s = spec.shape[:2]
    e = np.zeros((k, s + 1, s + 1), dtype=complex)
    e[:, :s, :s] = spec
    return (e + np.conj(e[:, ::-1, ::-1])) / (2.0 * s * s)


def _ri(z):
    """Complex rows as interleaved (re, im) real rows: numpy's real matmuls
    are far faster than its complex or mixed ones."""
    return np.ascontiguousarray(z).view(np.float64)


# --------------------------------------------------------------------------
# forward pass

def check_shape(shape, params: PssParams) -> None:
    """Raise ValueError unless an image of this shape has these statistics."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"statistic input must be square, got shape {shape}")
    pyramid._validate_geometry(shape[0], params.n_scales)
    if params.neighborhood > shape[0]:
        raise ValueError(f"neighborhood {params.neighborhood} exceeds image side {shape[0]}")


def _forward(img, params: PssParams):
    a = np.asarray(img, dtype=np.float64)
    check_shape(a.shape, params)
    if not np.isfinite(a).all():
        raise NumericError("statistic input contains non-finite pixels")
    size = a.shape[0]
    n_sc, n_or, m = params.n_scales, params.n_orientations, params.neighborhood
    stack = pyramid.transfer_stack(size, n_sc, n_or)
    npix, dc = size * size, size // 2

    # everything the backward pass needs from one forward evaluation
    cc = SimpleNamespace(params=params, size=size, stack=stack, img=a)
    cc.spec = spec = _rfft(a)
    # power spectrum of the centered image: every quadratic group is a
    # weighted sum over it (Wiener-Khinchin), so no filtered image is formed
    power = spec.real ** 2 + spec.imag ** 2
    power[dc, dc] = 0.0
    cc.bands = [stack.band_grid(spec, n + 1) for n in range(n_sc)]
    cc.mags = [np.abs(b) for b in cc.bands]

    out = np.empty(pss_dim(params))
    at = _group_views(out, params)

    skew, kurt, cc.aux1 = _skew_kurt(a)
    at[0][:] = a.mean(), cc.aux1[1], skew, kurt, a.min(), a.max()

    cc.aux2 = []
    for i, t in enumerate((*stack.scale_recon, stack.low_recon)):
        at[1][i, 0], at[1][i, 1], aux = _skew_kurt(_irfft(t * _crop(spec, t.shape[0]), size))
        cc.aux2.append(aux)

    # C3 + C4 lag maps of the power-weighted transfers and the C6 + C7
    # covariances (the Gram block "levels <= L by level L"), each on crop L
    lag = np.empty((n_sc * n_or + n_sc + 1, m, m))
    cov = np.empty(((n_sc + 1) * n_or,) * 2)
    for i, (side, rows, lev, cs, sn) in enumerate(_level_plan(size, params)):
        pw = _crop(power, side)
        weighted = stack.acorr_power[i] * pw
        lag[rows] = (cs @ weighted @ cs.T - sn @ weighted @ sn.T) / npix
        t = stack.corr_recon[i].reshape(lev.stop, -1)
        cov[:lev.stop, lev] = (t * pw.ravel()) @ t[lev].T / npix ** 2
        cov[lev, :lev.stop] = cov[:lev.stop, lev].T

    # C3 + C4, adjacent in the vector: each lag map normalized by its lag 0
    c0 = lag[:, m // 2, m // 2]
    ok = c0 / npix >= VAR_EPS
    cc.lag_scale = _flat_safe(npix, c0, ok)
    cc.acorr = _flat_safe(lag, c0[:, None, None], ok[:, None, None])
    out[params.group_slice(3).start:params.group_slice(4).stop] = cc.acorr.ravel()

    # C5 + C8: magnitude correlations, C5 the diagonal blocks of C8. By Parseval
    # each covariance is an inner product of two grids' spectra; the zeroed DC
    # bin removes each grid's mean
    cc.mag_spec, cc.mag_var = [_rfft(mg) for mg in cc.mags], []
    cc.c8 = np.empty((n_sc, n_sc, n_or, n_or))
    for n, ms in enumerate(cc.mag_spec):
        side = size >> n
        ms[:, side // 2, side // 2] = 0.0
        r = _ri(ms.reshape(n_or, -1))
        cov5 = r @ r.T / side ** 4
        cc.mag_var.append(np.diag(cov5).copy())
        cc.c8[n, n] = _cov_to_corr(cov5, cc.mag_var[n], cc.mag_var[n])

    # across scales: coarser magnitudes interpolated onto the finer grid, an inner product
    # over the interpolant's (sc+1)-square block: the (sc+2) crop less its first row and column
    cc.interp = {}
    for coarse in range(1, n_sc):
        u = _interp_spectra(cc.mag_spec[coarse]).reshape(n_or, -1)
        cc.interp[coarse] = u, np.sum(_ri(u) ** 2, axis=1)
        for fine in range(coarse):
            a = _crop(cc.mag_spec[fine], (size >> coarse) + 2)[:, 1:, 1:].reshape(n_or, -1)
            cc.c8[fine, coarse] = _cov_to_corr(_ri(a) @ _ri(u).T / (size >> fine) ** 2,
                                               cc.mag_var[fine], cc.interp[coarse][1])
            cc.c8[coarse, fine] = cc.c8[fine, coarse].T
    at[4][:] = cc.c8[range(n_sc), range(n_sc)]
    at[7][:] = cc.c8

    # C6 + C7: correlations of the oriented reconstructions, rho20 row lev*K + k
    # being orientation k at level lev, the oriented low-pass split level N
    cc.var20 = np.diag(cov).copy()
    cc.rho20 = _cov_to_corr(cov, cc.var20, cc.var20)
    r4 = cc.rho20.reshape(n_sc + 1, n_or, n_sc + 1, n_or)
    at[5][:] = r4[range(n_sc + 1), :, range(n_sc + 1)]
    at[6][:] = r4[:n_sc].transpose(0, 2, 1, 3)

    # C9: a filtered image's mean is its transfer's DC gain times the input
    # mean, and that gain is 0 for bands and high-pass, 1 for the low-pass
    # (0.0 * mean, not 0.0: a zero gain keeps the sign of a negative mean)
    mean = spec[dc, dc].real / npix
    at[8][:] = 0.0 * mean
    at[8][-2] = mean

    at[9][0] = np.sum(stack.high_recon ** 2 * power) / npix ** 2

    if not np.isfinite(out).all():
        bad = int(np.flatnonzero(~np.isfinite(out))[0])
        raise NumericError(f"non-finite statistic at flat index {bad}")
    return out, cc


def extract_pss(img, params: PssParams = PssParams()) -> PssVector:
    """Compute the full statistic vector of one image."""
    values, _ = _forward(img, params)
    return PssVector(values, params)


# --------------------------------------------------------------------------
# backward pass

def _backward(cc, dvalues: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. input pixels of sum(dvalues * statistics)."""
    params, size, stack = cc.params, cc.size, cc.stack
    n_sc, n_or, m = params.n_scales, params.n_orientations, params.neighborhood
    g = _group_views(dvalues, params)
    npix, dc = size * size, size // 2

    # C1 raw-pixel moments and extrema; the C1 mean and the low-pass C9 mean
    # (DC gain 1, the other C9 gains are 0) are linear
    grad = np.full((size, size), (g[0][0] + g[8][-2]) / npix)
    grad += g[0][1] * (2.0 / npix) * cc.aux1[0]
    grad += _skew_kurt_backward(cc.aux1, g[0][2], g[0][3])
    flat = grad.ravel()
    flat[np.argmin(cc.img)] += g[0][4]
    flat[np.argmax(cc.img)] += g[0][5]

    # C3, C4, C6, C7 and C10 are (1/npix^2) sum(w * power); collect one w,
    # the terms of each level on its crop
    g34 = dvalues[params.group_slice(3).start:params.group_slice(4).stop]
    gl = g34.reshape(-1, m, m) * cc.lag_scale[:, None, None]
    g0 = (gl * cc.acorr).sum(axis=(1, 2))[:, None, None]
    g20 = np.zeros_like(cc.rho20)
    g4 = g20.reshape(n_sc + 1, n_or, n_sc + 1, n_or)  # the forward's C6 then C7 views
    g4[range(n_sc + 1), :, range(n_sc + 1)] += g[5]
    g4[:n_sc] += g[6].transpose(0, 2, 1, 3)
    mix, da, db = _corr_weights(cc.var20, cc.var20, cc.rho20, g20)
    mix[np.diag_indices_from(mix)] -= (da + db) / 2.0
    weight = g[9][0] * stack.high_recon ** 2
    for i, (side, rows, lev, cs, sn) in enumerate(_level_plan(size, params)):
        kernel = cs.T @ gl[rows] @ cs - sn.T @ gl[rows] @ sn - g0[rows]
        part = np.einsum("jyx,jyx->yx", stack.acorr_power[i], kernel)
        # sum(mix_ij t_i t_j) over the pairs whose coarser level is L
        coef = mix[:lev.stop, lev] + mix[lev, :lev.stop].T
        coef[lev] = mix[lev, lev]
        t = stack.corr_recon[i].reshape(lev.stop, -1)
        part += ((coef.T @ t) * t[lev]).sum(axis=0).reshape(part.shape)
        _crop(weight, side)[...] += part
    weight[dc, dc] = 0.0
    spec_cot = (2.0 / npix) * weight * cc.spec

    # C2: per-level moments through the level transfers
    for t, aux, (gs, gk) in zip((*stack.scale_recon, stack.low_recon), cc.aux2, g[1]):
        _crop(spec_cot, t.shape[0])[...] += t * _rfft(_skew_kurt_backward(aux, gs, gk), t.shape[0])

    # cross-scale C8 entries: the forward's spectral inner products,
    # differentiated; each grid's spectral cotangent is summed first
    cot_spec = [np.zeros_like(ms) for ms in cc.mag_spec]
    dvar = [0.0] * n_sc
    for coarse in range(1, n_sc):
        u, varb = cc.interp[coarse]
        for fine in range(coarse):
            w, da, db = _corr_weights(cc.mag_var[fine], varb, cc.c8[fine, coarse],
                                      g[7][fine, coarse] + g[7][coarse, fine].T)
            dvar[fine] = dvar[fine] + da
            a = _crop(cc.mag_spec[fine], (size >> coarse) + 2)[:, 1:, 1:]
            _crop(cot_spec[fine], (size >> coarse) + 2)[:, 1:, 1:] += (
                w @ _ri(u)).view(complex).reshape(a.shape)
            u_cot = (w.T @ _ri(a.reshape(n_or, -1))).view(complex) / (size >> fine) ** 2
            u_cot -= db[:, None] * u
            cot_spec[coarse] += u_cot.reshape(a.shape)[:, :-1, :-1]

    # C5 + same-scale C8 entries join the same spectral cotangents; then
    # magnitude cotangents -> complex band cotangents -> analysis adjoint,
    # whose zero-padded band spectrum only fills the central crop
    for n, (ms, var) in enumerate(zip(cc.mag_spec, cc.mag_var)):
        w, da, db = _corr_weights(var, var, cc.c8[n, n], g[4][n] + g[7][n, n])
        side, mg = size >> n, cc.mags[n]
        mix = (w + w.T - np.diag(da + db + dvar[n])) / side ** 2
        cot_spec[n] += (mix @ _ri(ms.reshape(n_or, -1))).view(complex).reshape(ms.shape)
        unit = _flat_safe(1.0, mg, mg > VAR_EPS)
        _crop(spec_cot, side)[...] += stack.band_grid_adjoint(
            _ifft(cot_spec[n]).real * unit * cc.bands[n], n + 1)

    grad += _ifft(spec_cot).real
    if not np.isfinite(grad).all():
        raise NumericError("non-finite statistic gradient")
    return grad
