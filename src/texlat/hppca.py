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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import ppca
from .ppca import PpcaModel
from .pss import (PssParams, PssVector, column_names, group_sizes, pack_container,
                  pss_dim, read_container)

MODEL_MAGIC = b"HPCA"
MODEL_VERSION = 1


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


def fit_hierarchy(matrix, threshold: float, output_dim: int, params: PssParams) -> HppcaModel:
    """Fit the grouped stage and the final stage.

    `matrix` holds one statistic vector of `params` per row, or is their
    GroupSpectra; `threshold` is the cumulative-contribution ratio used
    for every group, and `output_dim` the final code length. An
    output_dim above the achieved intermediate dimension is an error.
    """
    spectra = matrix if isinstance(matrix, GroupSpectra) else GroupSpectra(matrix, params)
    if spectra.params != params:
        raise ValueError(f"group spectra are for {spectra.params}, not {params}")
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if output_dim < 1:
        raise ValueError(f"output dimension must be >= 1, got {output_dim}")

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
    return HppcaModel(groups, final, params, threshold)


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


# --------------------------------------------------------------------------
# container serialization

def _pack_block(m: PpcaModel) -> bytes:
    head = struct.pack("<IId", m.dim, m.q, m.noise_var)
    return (head + m.mean.astype("<f8").tobytes()
            + np.ascontiguousarray(m.loadings).astype("<f8").tobytes()
            + m.eigenvalues.astype("<f8").tobytes())


def _unpack_block(buf: bytes, pos: int) -> tuple[PpcaModel, int]:
    if pos + 16 > len(buf):
        raise ValueError("corrupt container: truncated model block")
    dim, q, sigma2 = struct.unpack_from("<IId", buf, pos)
    pos += 16
    need = 8 * (dim + dim * q + dim)
    if pos + need > len(buf):
        raise ValueError("corrupt container: truncated model block")
    mean = np.frombuffer(buf, "<f8", dim, pos).astype(np.float64)
    pos += 8 * dim
    w = np.frombuffer(buf, "<f8", dim * q, pos).astype(np.float64).reshape(dim, q)
    pos += 8 * dim * q
    lam = np.frombuffer(buf, "<f8", dim, pos).astype(np.float64)
    pos += 8 * dim
    return PpcaModel(mean, w, float(sigma2), lam, int(q)), pos


def save_model(model: HppcaModel, path) -> None:
    """Write the full two-stage model; load_model restores it bit-exactly."""
    blocks = b"".join(_pack_block(m) for m in [*model.group_models, model.final_model])
    Path(path).write_bytes(pack_container(
        MODEL_MAGIC, MODEL_VERSION, model.params, "dII",
        [model.intermediate_threshold, model.output_dim, pss_dim(model.params)], blocks))


def load_model(path) -> HppcaModel:
    buf, params, (thr, d, dim), pos = read_container(path, MODEL_MAGIC, MODEL_VERSION,
                                                     "dII", "model file")
    if pss_dim(params) != dim:
        raise ValueError("corrupt container: dimension header mismatch")
    groups = []
    for size in group_sizes(params):
        block, pos = _unpack_block(buf, pos)
        if block.dim != size:
            raise ValueError("corrupt container: group block size mismatch")
        groups.append(block)
    final, pos = _unpack_block(buf, pos)
    if pos != len(buf):
        raise ValueError("corrupt container: trailing bytes")
    if final.dim != sum(g.q for g in groups) or final.q != d:
        raise ValueError("corrupt container: final block inconsistent")
    return HppcaModel(groups, final, params, float(thr))
