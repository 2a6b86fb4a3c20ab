"""Texture synthesis by statistic matching, and the similarity score.

Synthesis runs backtracking-line-search gradient descent on a weighted
squared distance between the statistics of the evolving image and a
target statistic vector, starting from moment-matched Gaussian noise.
The per-group weights default to the inverse squared magnitude of the
target's groups so every group starts with an O(1) contribution.

The similarity score between a synthesized sample patch and a source
texture is the maximum cosine similarity between the raw sample pixel
vector and every stride-1 patch of the source. The dot products with all
patches are one FFT cross-correlation of the sample against the source
spectrum, and the patch norms are computed once per source (fast
normalized cross-correlation, Lewis 1995).

Evaluation extracts each image's statistic once and scores it against
every model of a sweep, so a sweep over d costs one source statistic per
image, not one per image and d.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import hppca as hppca_mod
from . import pss as pss_mod
from .pss import NumericError, PssVector

WEIGHT_FLOOR = 1e-8
INITIAL_STEP = 1.0   # first trial step per unit gradient RMS
STEP_GROWTH = 2.0
STEP_SHRINK = 0.5
ARMIJO = 1e-4
MAX_BACKTRACKS = 30


@dataclass
class SynthesisConfig:
    iterations: int = 50
    seed: int = 0
    size: int = 128
    weights: np.ndarray | None = None  # ten group weights; None = from target

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (10,) or not np.isfinite(w).all() or (w < 0).any() \
                    or not w.any():
                raise ValueError("weights must be 10 finite non-negative reals, not all zero")
            self.weights = w


def default_weights(target: PssVector) -> np.ndarray:
    """One weight per group: 1 / max(|target group|^2, floor)."""
    return np.array([1.0 / max(float(target.group(i) @ target.group(i)), WEIGHT_FLOOR)
                     for i in range(1, 11)])


def _coordinate_weights(layout, group_weights) -> np.ndarray:
    w = np.empty(layout.dim)
    for gi in range(1, 11):
        w[layout.group_slice(gi)] = group_weights[gi - 1]
    return w


def pss_distance(a: PssVector, b: PssVector, weights=None) -> float:
    """Sum over groups of weight * squared Euclidean group distance."""
    if a.layout != b.layout:
        raise ValueError("statistic vectors have different layouts")
    gw = default_weights(b) if weights is None else np.asarray(weights, dtype=np.float64)
    diff = a.values - b.values
    return float(_coordinate_weights(a.layout, gw) @ (diff * diff))


def pss_gradient(img, target: PssVector, weights=None) -> np.ndarray:
    """Pixel gradient of pss_distance(statistics(img), target)."""
    params = target.params
    if params is None:
        raise ValueError("target must carry a parameter-derived layout")
    gw = default_weights(target) if weights is None else np.asarray(weights, dtype=np.float64)
    wvec = _coordinate_weights(target.layout, gw)
    values, cache = pss_mod._forward(img, params)
    return pss_mod._backward(cache, 2.0 * wvec * (values - target.values))


def synthesize(target: PssVector, cfg: SynthesisConfig,
               init_image: np.ndarray | None = None):
    """Descend on the statistic distance from seeded noise.

    Returns (image, trace) where trace holds the distance before the
    first step and after each of cfg.iterations iterations; the trace is
    non-increasing because steps are only taken when the line search
    achieves sufficient decrease. Fixed seeds give bit-identical output.
    """
    params = target.params
    if params is None:
        raise ValueError("target must carry a parameter-derived layout")
    gw = cfg.weights if cfg.weights is not None else default_weights(target)
    wvec = _coordinate_weights(target.layout, gw)

    if init_image is not None:
        x = np.asarray(init_image, dtype=np.float64).copy()
    else:
        rng = np.random.default_rng(cfg.seed)
        mean, var = target.group(1)[0], max(target.group(1)[1], 0.0)
        x = mean + np.sqrt(var) * rng.standard_normal((cfg.size, cfg.size))

    def objective(vals):
        d = vals - target.values
        return float(wvec @ (d * d))

    values, cache = pss_mod._forward(x, params)
    fval = objective(values)
    trace = [fval]
    step = None
    for it in range(cfg.iterations):
        try:
            grad = pss_mod._backward(cache, 2.0 * wvec * (values - target.values))
        except NumericError as exc:
            raise NumericError(f"iteration {it}: {exc}") from exc
        gn2 = float(grad.ravel() @ grad.ravel())
        if gn2 <= 1e-300:
            trace.append(fval)
            continue
        if step is None:
            step = INITIAL_STEP / np.sqrt(gn2 / x.size)
        else:
            step *= STEP_GROWTH
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = x - step * grad
            try:
                cvals, ccache = pss_mod._forward(cand, params)
                cf = objective(cvals)
            except NumericError:
                cf = np.inf
            if cf <= fval - ARMIJO * step * gn2:
                accepted = True
                break
            step *= STEP_SHRINK
        if accepted:
            x, values, cache, fval = cand, cvals, ccache, cf
        trace.append(fval)
    return x, np.asarray(trace)


@dataclass
class TssReport:
    tss: float
    patch_size: int
    candidates: int
    location: tuple[int, int]  # top-left of the best-matching source patch


def _source_spectrum(source, p: int):
    """What every p x p sample needs of the source: its spectrum, its
    shape and the inverse norm of each window (0 for a zero window)."""
    x = np.asarray(source, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < p or x.shape[1] < p:
        raise ValueError(f"source {x.shape} is smaller than the {p}x{p} sample")
    windows = sliding_window_view(x, (p, p))
    norms = np.sqrt(np.einsum("ijkl,ijkl->ij", windows, windows))
    inv_norms = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return np.fft.rfft2(x), x.shape, inv_norms


def _best_match(s, spec, shape, inv_norms) -> TssReport:
    # correlation with every window at once; offsets up to shape - p never wrap
    dots = np.fft.irfft2(np.conj(np.fft.rfft2(s, s=shape)) * spec, s=shape)
    sn = float(np.linalg.norm(s))
    ny, nx = inv_norms.shape
    sims = dots[:ny, :nx] * inv_norms / sn if sn > 0 else np.zeros_like(inv_norms)
    best = int(np.argmax(sims))
    loc = np.unravel_index(best, sims.shape)
    return TssReport(float(sims.flat[best]), s.shape[0], sims.size, (int(loc[0]), int(loc[1])))


def tss(sample, source, patch_size: int | None = None) -> TssReport:
    """Maximum cosine similarity between the sample and all source patches.

    Raw pixel vectors, no mean removal; zero-norm vectors contribute a
    similarity of 0. The sample must be square and the source at least
    as large.
    """
    s = np.asarray(sample, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
        raise ValueError(f"sample must be a square patch, got shape {s.shape}")
    p = s.shape[0]
    if patch_size is not None and patch_size != p:
        raise ValueError(f"sample is {p}x{p} but patch size {patch_size} was requested")
    return _best_match(s, *_source_spectrum(source, p))


def sample_grid_tss(image, source, patch_size: int) -> tuple[float, int]:
    """Mean of per-sample maxima over a centered non-overlapping grid.

    The image is cut into as many whole patch_size x patch_size tiles as
    fit, centered; each tile is scored against every source patch, whose
    norms are computed once for all tiles.
    """
    if patch_size < 1:
        raise ValueError(f"patch size must be >= 1, got {patch_size}")
    a = np.asarray(image, dtype=np.float64)
    ny, nx = a.shape[0] // patch_size, a.shape[1] // patch_size
    if ny < 1 or nx < 1:
        raise ValueError(f"image {a.shape} holds no {patch_size}px sample")
    oy = (a.shape[0] - ny * patch_size) // 2
    ox = (a.shape[1] - nx * patch_size) // 2
    source_terms = _source_spectrum(source, patch_size)
    scores = []
    for iy in range(ny):
        for ix in range(nx):
            y0, x0 = oy + iy * patch_size, ox + ix * patch_size
            tile = a[y0:y0 + patch_size, x0:x0 + patch_size]
            scores.append(_best_match(tile, *source_terms).tss)
    return float(np.mean(scores)), len(scores)


@dataclass
class EvalRow:
    image_id: str
    tss: float
    pss_rel_err: float
    samples: int


def evaluate_image(models, cfg: SynthesisConfig, patch_size: int, task) -> list[EvalRow]:
    """Score image `index` of a set against each model, one row per model.

    The image's statistic is extracted once; for each model it is
    encoded, decoded, resynthesized with seed cfg.seed + index at the
    image's own size and scored against the image, so a report is
    independent of any parallel scheduling.
    """
    index, (image_id, img) = task
    a = np.asarray(img, dtype=np.float64)
    params = models[0].params
    if params is None:
        raise ValueError("model must carry a parameter-derived layout")
    run_cfg = replace(cfg, seed=cfg.seed + index, size=a.shape[0])
    v = pss_mod.extract_pss(a, params)
    rows = []
    for model in models:
        decoded = hppca_mod.decode(model, hppca_mod.encode(model, v))
        rel = float(np.linalg.norm(decoded.values - v.values)
                    / max(np.linalg.norm(v.values), 1e-300))
        synth, _ = synthesize(decoded, run_cfg)
        score, count = sample_grid_tss(synth, a, patch_size)
        rows.append(EvalRow(image_id, score, rel, count))
    return rows


def evaluate_model(model, images: Iterable[tuple[str, np.ndarray]],
                   cfg: SynthesisConfig, patch_size: int = 19) -> list[EvalRow]:
    """Extract, encode, decode, synthesize and score each image."""
    rows = [evaluate_image([model], cfg, patch_size, task)[0] for task in enumerate(images)]
    if not rows:
        raise ValueError("empty image set")
    return rows
