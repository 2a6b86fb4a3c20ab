"""Texture synthesis by statistic matching, and the similarity score.

Synthesis minimizes a weighted squared distance between the statistics
of the evolving image and a target statistic vector by L-BFGS (Liu &
Nocedal 1989) from moment-matched Gaussian noise. The full L-BFGS step
nearly always passes the Armijo test, so an iteration costs about one
statistic forward and one backward. The per-group weights are always the
target's defaults, the inverse squared magnitude of each group, so every
group starts with an O(1) contribution. One private objective gives the
distance and its cotangent to synthesis and to pss_gradient alike.

The similarity score between a synthesized sample patch and a source
texture is the maximum cosine similarity between the raw sample pixel
vector and every stride-1 patch of the source. The dot products with all
patches are one FFT cross-correlation of the sample against the source
spectrum, and the patch norms are computed once per scoring call (fast
normalized cross-correlation, Lewis 1995).

Evaluation extracts each image's statistic once and scores it against
every model of a sweep, so a sweep over d costs one source statistic per
image, not one per image and d. At zero iterations the sample is the
seeded noise itself, so evaluation computes no statistic of it, and one
scoring call per image, with one correlation per tile, serves every
swept model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import hppca as hppca_mod
from . import pss as pss_mod
from .pss import NumericError, PssVector

WEIGHT_FLOOR = 1e-8
INITIAL_STEP = 1.0   # steepest-descent trial step per unit gradient RMS
STEP_SHRINK = 0.5
ARMIJO = 1e-4
MAX_BACKTRACKS = 30
MEMORY = 10          # (step, gradient change) pairs L-BFGS keeps
CURVATURE = 1e-12    # a pair is kept only when y's > CURVATURE * |s| |y|


@dataclass
class SynthesisConfig:
    iterations: int = 50
    seed: int = 0
    size: int = 128

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")


def default_weights(target: PssVector) -> np.ndarray:
    """One weight per group: 1 / max(|target group|^2, floor)."""
    return np.array([1.0 / max(float(target.group(i) @ target.group(i)), WEIGHT_FLOOR)
                     for i in range(1, 11)])


def _coordinate_weights(target: PssVector, weights=None) -> np.ndarray:
    """Each coordinate's group weight; None takes default_weights(target)."""
    gw = default_weights(target) if weights is None else np.asarray(weights, dtype=np.float64)
    return np.repeat(gw, pss_mod.group_sizes(target.params))


def _objective(img, target: PssVector, wvec):
    """The weighted distance of img's statistics from the target, the forward
    cache, and the distance's cotangent 2 w (values - target) that the
    backward pass turns into the pixel gradient."""
    values, cache = pss_mod._forward(img, target.params)
    diff = values - target.values
    return float(wvec @ (diff * diff)), cache, 2.0 * wvec * diff


def pss_distance(a: PssVector, b: PssVector, weights=None) -> float:
    """Sum over groups of weight * squared Euclidean group distance."""
    if a.params != b.params:
        raise ValueError("statistic vectors have different layouts")
    diff = a.values - b.values
    return float(_coordinate_weights(b, weights) @ (diff * diff))


def pss_gradient(img, target: PssVector, weights=None) -> np.ndarray:
    """Pixel gradient of pss_distance(statistics(img), target)."""
    _, cache, cot = _objective(img, target, _coordinate_weights(target, weights))
    return pss_mod._backward(cache, cot)


def _dot(a, b) -> float:
    """Dot product of two image-length vectors, by einsum rather than BLAS:
    OpenBLAS splits a dot this long across threads, and waking them for
    each of the ~45 dots of an L-BFGS iteration cost a 128 px synth about
    20 ms more on two shared cores."""
    return float(np.einsum("i,i->", a, b))


def _lbfgs_direction(g, pairs) -> np.ndarray:
    """-H g by the two-loop recursion (Nocedal 1980), H the inverse-Hessian
    estimate from the (s, y, 1 / (y's)) pairs, newest first, starting from
    (s'y / y'y of the newest pair) times I."""
    q = g.copy()
    alphas = []
    for s, y, rho in pairs:
        a = rho * _dot(s, q)
        q -= a * y
        alphas.append(a)
    _, newest, rho = pairs[0]
    q *= 1.0 / (rho * _dot(newest, newest))
    for (s, y, rho), a in zip(reversed(pairs), reversed(alphas)):
        q += (a - rho * _dot(y, q)) * s
    return -q


def _unit_noise(cfg: SynthesisConfig) -> np.ndarray:
    return np.random.default_rng(cfg.seed).standard_normal((cfg.size, cfg.size))


def initial_image(target: PssVector, cfg: SynthesisConfig) -> np.ndarray:
    """Seeded Gaussian noise of side cfg.size with the target's C1 mean and
    variance: where synthesis starts, and the sample eval scores at zero
    iterations."""
    mean, std = _noise_moments(target)
    return mean + std * _unit_noise(cfg)


def _noise_moments(target: PssVector):
    """The target's C1 mean and standard deviation, which initial_image gives the noise."""
    mean, var = target.group(1)[:2]
    return mean, np.sqrt(max(var, 0.0))


def synthesize(target: PssVector, cfg: SynthesisConfig):
    """Match the target statistic by L-BFGS from seeded noise.

    With no stored pairs, or no descent along the L-BFGS direction, the
    step is steepest descent of INITIAL_STEP per unit gradient RMS. A
    failed line search clears the memory; a zero gradient or a failed
    steepest-descent search would recur in every later iteration, so
    the run stops there and the trace repeats its last value.

    Returns (image, trace) where trace holds the distance before the
    first step and after each of cfg.iterations iterations; it never
    rises, since a step is taken only on sufficient decrease. Fixed
    seeds give bit-identical output. Raises NumericError when the
    target or the starting distance is not finite.
    """
    pss_mod.check_shape((cfg.size, cfg.size), target.params)  # the draw takes any side
    if not np.isfinite(target.values).all():
        raise NumericError("target statistic holds non-finite values")
    wvec = _coordinate_weights(target)

    x = initial_image(target, cfg)
    fval, cache, cot = _objective(x, target, wvec)
    if not np.isfinite(fval):
        raise NumericError(f"starting distance is {fval}")
    trace = [fval]
    pairs = deque(maxlen=MEMORY)  # (s, y, 1 / (y's)), newest first
    grad = step = prev_grad = None
    for it in range(cfg.iterations):
        if grad is None:  # the image moved: take the gradient where it is now
            try:
                grad = pss_mod._backward(cache, cot).ravel()
            except NumericError as exc:
                raise NumericError(f"iteration {it}: {exc}") from exc
            if step is not None:
                y = grad - prev_grad
                sy = _dot(step, y)
                if sy > CURVATURE * np.sqrt(_dot(step, step) * _dot(y, y)):
                    pairs.appendleft((step, y, 1.0 / sy))
        d = _lbfgs_direction(grad, pairs) if pairs else None
        if d is None or not _dot(grad, d) < 0:
            pairs.clear()
            gn2 = _dot(grad, grad)
            if gn2 <= 1e-300:
                break
            d = grad * (-INITIAL_STEP / np.sqrt(gn2 / x.size))
        slope = _dot(grad, d)
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            cand = x + t * d.reshape(x.shape)
            try:
                cf, ccache, ccot = _objective(cand, target, wvec)
            except NumericError:
                cf = np.inf
            if cf <= fval + ARMIJO * t * slope:
                break
            t *= STEP_SHRINK
        else:
            if not pairs:  # steepest descent failed; every later iteration would too
                break
            pairs.clear()
            trace.append(fval)
            continue
        step, prev_grad, grad = t * d, grad, None
        x, cache, cot, fval = cand, ccache, ccot, cf
        trace.append(fval)
    trace += [fval] * (cfg.iterations + 1 - len(trace))
    return x, np.asarray(trace)


@dataclass
class TssReport:
    tss: float
    patch_size: int
    candidates: int
    location: tuple[int, int]  # top-left of the best-matching source patch


def _check_patch(p: int, shape=None) -> None:
    if p < 1:
        raise ValueError(f"patch size must be >= 1, got {p}")
    if shape is not None and (len(shape) != 2 or min(shape) < p):
        raise ValueError(f"source {shape} is smaller than the {p}x{p} sample")


def _source_terms(source, patch_size: int):
    """What every p x p sample needs of one source: its shape, its spectrum
    and each window's inverse norm (0 for a zero window)."""
    x = np.asarray(source, dtype=np.float64)
    _check_patch(patch_size, x.shape)
    # sums of squares: sliding sums down columns, then along rows
    cols = sliding_window_view(np.square(x), patch_size, axis=0).sum(-1)
    norms = np.sqrt(sliding_window_view(cols, patch_size, axis=1).sum(-1))
    return x.shape, np.fft.rfft2(x), np.divide(1.0, norms, out=np.zeros_like(norms),
                                               where=norms > 0)


def _correlate(s, terms) -> np.ndarray:
    """s's dot with each source window times its inverse norm; no offset wraps."""
    shape, spec, inv_norms = terms
    dots = np.fft.irfft2(np.conj(np.fft.rfft2(s, s=shape)) * spec, s=shape)
    return dots[:inv_norms.shape[0], :inv_norms.shape[1]] * inv_norms


def _cosine(q, s) -> float:
    """The best of the correlations q of sample s over its norm; 0 for a zero sample.
    Clipped to [-1, 1], which rounding can overstep; NaN stays NaN."""
    sn = float(np.linalg.norm(s))
    return float(np.clip(q.max() / sn, -1.0, 1.0)) if sn > 0 else 0.0


def tss(sample, source) -> TssReport:
    """Maximum cosine similarity between the sample and all source patches.

    Raw pixel vectors, no mean removal; zero-norm vectors contribute a
    similarity of 0. The sample must be square and the source at least
    as large.
    """
    s = np.asarray(sample, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
        raise ValueError(f"sample must be a square patch, got shape {s.shape}")
    q = _correlate(s, _source_terms(source, s.shape[0]))
    loc = np.unravel_index(int(np.argmax(q)), q.shape)
    return TssReport(_cosine(q, s), s.shape[0], q.size, (int(loc[0]), int(loc[1])))


def sample_grid_tss(image, source, patch_size: int, moments=None):
    """Mean of per-sample maxima over a centered non-overlapping grid.

    The image is cut into as many whole patch_size x patch_size tiles as
    fit, centered; each tile is scored against every patch of the source
    image, whose spectrum and norms are computed once for all tiles.
    Returns (score, tiles), or given (mean, std) `moments`, ([score of
    mean + std * image per pair], tiles) from one correlation per tile,
    which is linear in the tile: the mean's part is each window's sum,
    correlated once for all tiles.
    """
    terms = _source_terms(source, patch_size)
    a = np.asarray(image, dtype=np.float64)
    ny, nx = a.shape[0] // patch_size, a.shape[1] // patch_size
    if ny < 1 or nx < 1:
        raise ValueError(f"image {a.shape} holds no {patch_size}px sample")
    oy = (a.shape[0] - ny * patch_size) // 2
    ox = (a.shape[1] - nx * patch_size) // 2
    sums = None if moments is None else _correlate(np.ones((patch_size,) * 2), terms)
    scores = []  # one row per tile, one column per pair
    for iy in range(ny):
        for ix in range(nx):
            y0, x0 = oy + iy * patch_size, ox + ix * patch_size
            tile = a[y0:y0 + patch_size, x0:x0 + patch_size]
            q = _correlate(tile, terms)
            scores.append([_cosine(q, tile)] if moments is None else
                          [_cosine(m * sums + sd * q, m + sd * tile) for m, sd in moments])
    means = [float(np.mean(col)) for col in zip(*scores)]
    return (means[0] if moments is None else means), len(scores)


def evaluate_image(models, cfg: SynthesisConfig, patch_size: int, index, image_id, image):
    """Score image `index` of a set, named image_id in errors, against each model.

    The image's statistic is extracted once; for each model it is encoded,
    decoded, resynthesized with seed cfg.seed + index at the image's own
    size and scored against the image, so a report is independent of any
    parallel scheduling. At zero iterations the sample is initial_image of
    the decoded statistic, with no statistic computed of it, and one
    sample_grid_tss call scores every model's sample. Returns (tss,
    rel_err): float64 arrays with one entry per model, in model order, of
    the sample's TSS and the decoded statistic's relative error
    |decoded - v| / |v|. Raises NumericError when a decoded statistic, a
    relative error or a score is not finite.
    """
    a = np.asarray(image, dtype=np.float64)
    run_cfg = replace(cfg, seed=cfg.seed + index, size=a.shape[0])
    v = pss_mod.extract_pss(a, models[0].params)
    decoded = [hppca_mod.decode(m, hppca_mod.encode(m, v)) for m in models]
    rel_err = (np.array([np.linalg.norm(d.values - v.values) for d in decoded])
               / max(np.linalg.norm(v.values), 1e-300))
    for rel in rel_err:  # also catches every non-finite decoded value
        if not np.isfinite(rel):
            raise NumericError(f"image {image_id}: decoded statistic has relative error {rel}")
    if cfg.iterations == 0:
        tss = np.array(sample_grid_tss(_unit_noise(run_cfg), a, patch_size,
                                       [_noise_moments(d) for d in decoded])[0])
    else:
        tss = np.array([sample_grid_tss(synthesize(d, run_cfg)[0], a, patch_size)[0]
                        for d in decoded])
    for score in tss:
        if not np.isfinite(score):
            raise NumericError(f"image {image_id}: TSS is {score}")
    return tss, rel_err
