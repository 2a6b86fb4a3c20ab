"""Two-stage grouped PPCA over statistic vectors.

Stage one fits an independent PPCA per statistic group, with each
latent dimension picked from that group's own eigenvalue spectrum by a
shared cumulative-contribution threshold. The group latents are
concatenated into an intermediate vector; stage two fits one more PPCA
on those intermediates to produce the final low-dimensional code.

Groups with no variance keep a single always-zero latent so the
intermediate layout stays static across refits and serialization. The
group eigendecompositions (rank-sized; loadings are zero-padded only up to
q) depend on neither threshold nor code length, so a GroupSpectra keeps them.
`texlat.archive` writes and reads a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ppca
from .ppca import PpcaModel
from .pss import PssParams, PssVector, column_names, pss_dim


@dataclass
class HppcaModel:
    group_models: list[PpcaModel]  # one per statistic group, in order
    final_model: PpcaModel         # over the concatenated group latents
    params: PssParams
    intermediate_threshold: float

    @property
    def intermediate_dim(self) -> int:
        return self.final_model.dim

    @property
    def output_dim(self) -> int:
        return self.final_model.q

    @property
    def group_dims(self) -> tuple[int, ...]:
        return tuple(m.q for m in self.group_models)


class GroupSpectra:
    """The ten group eigendecompositions of a matrix whose rows are statistic
    vectors of `params`, made at the first fit and then kept."""

    def __init__(self, matrix, params: PssParams):
        x, dim = np.asarray(matrix, dtype=np.float64), pss_dim(params)
        if x.ndim != 2 or x.shape[1] != dim:
            raise ValueError(f"data shape {x.shape} does not match layout dim {dim}")
        if x.shape[0] < 2:
            raise ValueError(f"need at least 2 samples, got {x.shape[0]}")
        self.params, self.blocks = params, [x[:, params.group_slice(gi)] for gi in range(1, 11)]

    @cached_property
    def groups(self) -> list[tuple]:
        out = []
        for gi, block in enumerate(self.blocks, 1):
            try:
                out.append(ppca._sample_eig(block))
            except np.linalg.LinAlgError as exc:
                r, c = np.unravel_index(np.argmax(np.abs(block)), block.shape)
                name = column_names(self.params)[self.params.group_slice(gi).start + c]
                raise ValueError(f"group C{gi}: {exc}; its largest-magnitude entry is "
                                 f"{float(block[r, c])}, record {r}, column {name}") from exc
        return out


def _check_output_dim(output_dim: int) -> None:
    if output_dim < 1:
        raise ValueError(f"output dimension must be >= 1, got {output_dim}")


def fit_hierarchy(spectra: GroupSpectra, threshold: float, output_dim: int) -> HppcaModel:
    """Fit the grouped stage and the final stage on the statistic vectors of
    `spectra`; `threshold` is the cumulative-contribution ratio used for every
    group, and `output_dim` the final code length, at most the achieved
    intermediate dimension."""
    ppca._check_threshold(threshold)
    _check_output_dim(output_dim)

    groups = []
    for mu, eigvals, vecs in spectra.groups:
        # a degenerate group keeps one latent that is always zero
        q = ppca.choose_dim(eigvals, threshold) if eigvals.sum() > 0 else 1
        groups.append(ppca._model_from_eig(mu, eigvals, vecs, q))

    intermediate = _group_latents(groups, spectra.blocks)
    if output_dim > intermediate.shape[1]:
        raise ValueError(
            f"output dimension {output_dim} exceeds the {intermediate.shape[1]}"
            f"-dimensional intermediate representation")
    final = ppca.fit(intermediate, output_dim)
    return HppcaModel(groups, final, spectra.params, threshold)


def _group_latents(groups: list[PpcaModel], blocks) -> np.ndarray:
    """The intermediate vectors, which the final stage is fit on and encodes."""
    return np.hstack([ppca.encode(g, block) for g, block in zip(groups, blocks)])


def encode_batch(model: HppcaModel, matrix: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    blocks = [x[:, model.params.group_slice(gi)] for gi in range(1, 11)]
    return ppca.encode(model.final_model, _group_latents(model.group_models, blocks))


def decode_batch(model: HppcaModel, codes: np.ndarray) -> np.ndarray:
    z = np.atleast_2d(np.asarray(codes, dtype=np.float64))
    inter = ppca.decode(model.final_model, z)
    parts = np.split(inter, np.cumsum(model.group_dims)[:-1], axis=1)
    return np.hstack([ppca.decode(g, part) for g, part in zip(model.group_models, parts)])


def encode(model: HppcaModel, v: PssVector) -> np.ndarray:
    """Group-wise encode, concatenate, final encode."""
    if v.params != model.params:
        raise ValueError("vector layout does not match the model")
    return encode_batch(model, v.values[None, :])[0]


def decode(model: HppcaModel, code) -> PssVector:
    """Final decode, split by group widths, group decodes, concatenate."""
    z = np.asarray(code, dtype=np.float64)
    if z.shape != (model.output_dim,):
        raise ValueError(f"code length {z.shape} != model output {model.output_dim}")
    return PssVector(decode_batch(model, z[None, :])[0], model.params)


def reduction_rate(model: HppcaModel) -> float:
    """Fraction of statistic dimensions removed by the final code."""
    return 1.0 - model.output_dim / pss_dim(model.params)
