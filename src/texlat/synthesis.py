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
spectrum, and the patch norms are computed once per source (fast
normalized cross-correlation, Lewis 1995).

Evaluation extracts each image's statistic and builds its source terms
(spectrum and window norms) once, and scores it against every model of a
sweep, so a sweep over d costs one source statistic and one set of source
terms per image, not one per image and d. At zero iterations the sample is
the seeded noise itself, so evaluation computes no statistic of it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

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
            raise ValueError("iterations must be >= 0")


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


def initial_image(target: PssVector, cfg: SynthesisConfig,
                  noise: np.ndarray | None = None) -> np.ndarray:
    """Seeded Gaussian noise of side cfg.size with the target's C1 mean and
    variance: where synthesis starts, and the sample eval scores at zero
    iterations. `noise` is _unit_noise(cfg) when given, so that one draw
    serves every target of one seed."""
    z = _unit_noise(cfg) if noise is None else noise
    mean, var = target.group(1)[0], max(target.group(1)[1], 0.0)
    return mean + np.sqrt(var) * z


def synthesize(target: PssVector, cfg: SynthesisConfig,
               init_image: np.ndarray | None = None):
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
    if init_image is None:  # before the draw, which takes any side
        pss_mod.check_size(cfg.size, target.params)
    if not np.isfinite(target.values).all():
        raise NumericError("target statistic holds non-finite values")
    wvec = _coordinate_weights(target)

    x = (initial_image(target, cfg) if init_image is None
         else np.asarray(init_image, dtype=np.float64).copy())
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


class SourceTerms:
    """What every p x p sample needs of one source: its spectrum and the
    inverse norm of each window (0 for a zero window). Each is computed at
    its first use, inside the scoring call that needs it, and then kept
    for every later sample scored against the same source."""

    def __init__(self, source, patch_size: int):
        p = patch_size
        if p < 1:
            raise ValueError(f"patch size must be >= 1, got {p}")
        x = np.asarray(source, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < p or x.shape[1] < p:
            raise ValueError(f"source {x.shape} is smaller than the {p}x{p} sample")
        self.source, self.patch_size = x, p

    @cached_property
    def spec(self) -> np.ndarray:
        return np.fft.rfft2(self.source)

    @cached_property
    def inv_norms(self) -> np.ndarray:
        p = self.patch_size
        windows = sliding_window_view(self.source, (p, p))
        norms = np.sqrt(np.einsum("ijkl,ijkl->ij", windows, windows))
        return np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)


def _best_match(s, terms: SourceTerms) -> TssReport:
    # correlation with every window at once; offsets up to shape - p never wrap
    shape, inv_norms = terms.source.shape, terms.inv_norms
    dots = np.fft.irfft2(np.conj(np.fft.rfft2(s, s=shape)) * terms.spec, s=shape)
    sn = float(np.linalg.norm(s))
    ny, nx = inv_norms.shape
    sims = dots[:ny, :nx] * inv_norms / sn if sn > 0 else np.zeros_like(inv_norms)
    best = int(np.argmax(sims))
    loc = np.unravel_index(best, sims.shape)
    return TssReport(float(sims.flat[best]), s.shape[0], sims.size, (int(loc[0]), int(loc[1])))


def tss(sample, source) -> TssReport:
    """Maximum cosine similarity between the sample and all source patches.

    Raw pixel vectors, no mean removal; zero-norm vectors contribute a
    similarity of 0. The sample must be square and the source at least
    as large.
    """
    s = np.asarray(sample, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
        raise ValueError(f"sample must be a square patch, got shape {s.shape}")
    return _best_match(s, SourceTerms(source, s.shape[0]))


def sample_grid_tss(image, source, patch_size: int) -> tuple[float, int]:
    """Mean of per-sample maxima over a centered non-overlapping grid.

    The image is cut into as many whole patch_size x patch_size tiles as
    fit, centered; each tile is scored against every source patch, whose
    norms are computed once for all tiles. `source` is an image, or the
    SourceTerms of one built for patch_size, so that callers scoring many
    images against one source build them once.
    """
    if not isinstance(source, SourceTerms):
        source = SourceTerms(source, patch_size)
    elif source.patch_size != patch_size:
        raise ValueError(f"source terms are for {source.patch_size}px samples, "
                         f"not {patch_size}px")
    a = np.asarray(image, dtype=np.float64)
    ny, nx = a.shape[0] // patch_size, a.shape[1] // patch_size
    if ny < 1 or nx < 1:
        raise ValueError(f"image {a.shape} holds no {patch_size}px sample")
    oy = (a.shape[0] - ny * patch_size) // 2
    ox = (a.shape[1] - nx * patch_size) // 2
    scores = []
    for iy in range(ny):
        for ix in range(nx):
            y0, x0 = oy + iy * patch_size, ox + ix * patch_size
            tile = a[y0:y0 + patch_size, x0:x0 + patch_size]
            scores.append(_best_match(tile, source).tss)
    return float(np.mean(scores)), len(scores)


@dataclass
class EvalRow:
    image_id: str
    tss: float
    pss_rel_err: float
    samples: int


def evaluate_image(models, cfg: SynthesisConfig, patch_size: int, task) -> list[EvalRow]:
    """Score image `index` of a set against each model, one row per model.

    The image's statistic and source terms are built once; for each model
    the statistic is encoded, decoded, resynthesized with seed
    cfg.seed + index at the image's own size and scored against the image,
    so a report is independent of any parallel scheduling. At zero
    iterations the sample is initial_image of the decoded statistic, with
    no statistic computed of it. Raises NumericError when a decoded
    statistic, a relative error or a score is not finite.
    """
    index, (image_id, img) = task
    a = np.asarray(img, dtype=np.float64)
    params = models[0].params
    run_cfg = replace(cfg, seed=cfg.seed + index, size=a.shape[0])
    v = pss_mod.extract_pss(a, params)
    terms = SourceTerms(a, patch_size)
    noise = _unit_noise(run_cfg)
    rows = []
    for model in models:
        decoded = hppca_mod.decode(model, hppca_mod.encode(model, v))
        rel = float(np.linalg.norm(decoded.values - v.values)
                    / max(np.linalg.norm(v.values), 1e-300))
        if not np.isfinite(rel):  # also catches every non-finite decoded value
            raise NumericError(f"{image_id}: decoded statistic has relative error {rel}")
        synth = initial_image(decoded, run_cfg, noise)
        if cfg.iterations > 0:
            synth, _ = synthesize(decoded, run_cfg, synth)
        score, count = sample_grid_tss(synth, terms, patch_size)
        if not np.isfinite(score):
            raise NumericError(f"{image_id}: TSS is {score}")
        rows.append(EvalRow(image_id, score, rel, count))
    return rows


def evaluate_model(model, images: Iterable[tuple[str, np.ndarray]],
                   cfg: SynthesisConfig, patch_size: int = 19) -> list[EvalRow]:
    """Extract, encode, decode, synthesize and score each image."""
    rows = [evaluate_image([model], cfg, patch_size, task)[0] for task in enumerate(images)]
    if not rows:
        raise ValueError("empty image set")
    return rows
