"""Probabilistic PCA with the closed-form maximum-likelihood solution.

The model is x = W z + mu + noise with isotropic Gaussian noise of
variance sigma^2. Fitting eigendecomposes the population covariance
(via the n x n Gram matrix when samples are scarcer than dimensions),
sets sigma^2 to the mean of the discarded eigenvalues and scales the
leading eigenvectors into the loading matrix. The rotation ambiguity is
fixed to the identity and eigenvector signs are pinned, so fits are
reproducible and serializable.

The loadings are scaled orthogonal eigenvectors, so W'W is diagonal and
encoding and decoding are one scaling per latent, g = diag(W'W): the
posterior mean is W'(x - mu) / (g + sigma^2), and decoding rescales by
(g + sigma^2) / g before W z + mu, so decode(encode(x)) is the orthogonal
projection of x onto the principal subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PpcaModel:
    mean: np.ndarray       # (dim,)
    loadings: np.ndarray   # (dim, q)
    noise_var: float
    eigenvalues: np.ndarray  # (dim,), non-increasing
    q: int

    @property
    def dim(self) -> int:
        return self.mean.size


def _sample_eig(data: np.ndarray):
    """Mean, full eigenvalue spectrum and leading eigenvectors of the covariance.

    Eigenvalues come back non-increasing and full length, padded with
    zeros past the data rank. Eigenvectors are rank-sized, min(n, dim)
    columns, and _model_from_eig zero-pads the loadings only up to q.
    Both routes treat eigenvalues at or below max(lambda_0, 1) n eps as
    rounding noise of a zero (with a zero eigenvector), so a group that
    is constant up to rounding has an all-zero spectrum. Signs are fixed
    so each eigenvector's largest-magnitude entry is positive.
    """
    n, dim = data.shape
    mu = data.mean(axis=0)
    centered = data - mu
    gram = dim > n
    w, v = np.linalg.eigh(centered @ centered.T / n if gram else centered.T @ centered / n)
    order = np.argsort(w)[::-1]
    vals, v = np.maximum(w[order], 0.0), v[:, order]
    keep = vals > max(vals[0], 1.0) * n * np.finfo(float).eps
    eigvals, vecs = np.zeros(dim), np.zeros((dim, vals.size))
    eigvals[:vals.size][keep] = vals[keep]
    vecs[:, keep] = centered.T @ (v[:, keep] / np.sqrt(n * vals[keep])) if gram else v[:, keep]
    signs = np.where(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vals.size)] < 0, -1.0, 1.0)
    return mu, eigvals, vecs * signs


def _model_from_eig(mu, eigvals, vecs, q: int) -> PpcaModel:
    sigma2 = max(float(eigvals[q:].mean()), 0.0) if q < mu.size else 0.0
    scale = np.sqrt(np.maximum(eigvals[:q] - sigma2, 0.0))
    w = np.pad(vecs[:, :q], ((0, 0), (0, max(q - vecs.shape[1], 0))))
    return PpcaModel(mu, w * scale, sigma2, eigvals, q)


def fit(data, q: int) -> PpcaModel:
    """Maximum-likelihood fit with q latent dimensions.

    Requires n >= 2 samples and 1 <= q <= dim; when q exceeds the data
    rank the extra latent directions carry zero loadings.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"need a 2-D data matrix with n >= 2, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("data contains non-finite entries")
    if not 1 <= q <= x.shape[1]:
        raise ValueError(f"latent dimension {q} out of range 1..{x.shape[1]}")
    return _model_from_eig(*_sample_eig(x), q)


def encode(model: PpcaModel, x) -> np.ndarray:
    """Posterior mean of the latent: W'(x - mu) / (g + sigma^2), g = diag(W'W)."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.shape[-1] != model.dim:
        raise ValueError(f"input dimension {xv.shape[-1]} != model dimension {model.dim}")
    w = model.loadings
    den = np.einsum("ij,ij->j", w, w) + model.noise_var
    return ((xv - model.mean) @ w) / np.where(den > 0, den, np.inf)  # 0 at den = 0


def decode(model: PpcaModel, z) -> np.ndarray:
    """Undo the posterior shrinkage, so decode(encode(x)) projects onto the subspace."""
    zv = np.asarray(z, dtype=np.float64)
    if zv.shape[-1] != model.q:
        raise ValueError(f"latent dimension {zv.shape[-1]} != model q {model.q}")
    w = model.loadings
    g = np.einsum("ij,ij->j", w, w)
    return (zv * ((g + model.noise_var) / np.where(g > 0, g, np.inf))) @ w.T + model.mean


def cumulative_contribution(eigenvalues) -> np.ndarray:
    """Running fraction of total eigenvalue mass; ends at exactly 1."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigenvalues must be a non-empty 1-D vector")
    if (lam < 0).any():
        raise ValueError("eigenvalues must be non-negative")
    if (np.diff(lam) > 0).any():
        raise ValueError("eigenvalues must be sorted non-increasing")
    total = lam.sum()
    if total <= 0:
        raise ValueError("eigenvalue spectrum is identically zero")
    ccr = np.cumsum(lam)
    return ccr / ccr[-1]


def _check_threshold(threshold: float) -> None:
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")


def choose_dim(eigenvalues, threshold: float) -> int:
    """Smallest q whose cumulative contribution reaches the threshold."""
    _check_threshold(threshold)
    ccr = cumulative_contribution(eigenvalues)
    return int(np.argmax(ccr >= threshold)) + 1
