"""texlat's binary files: feature archives and models.

Both containers share one header: a 4-byte magic, then u32 version, N, K
and M, then the fields of the container's kind, then its body. An archive's
fixed-size records are read with one structured view, and each of a
model's eleven PPCA blocks with one float64 read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hppca import HppcaModel
from .ppca import PpcaModel
from .pss import PssParams, group_sizes, pss_dim

ARCHIVE_MAGIC, ARCHIVE_VERSION = b"PSSA", 1
MODEL_MAGIC, MODEL_VERSION = b"HPCA", 1
_ID_BYTES = 96


def _pack_container(magic: bytes, version: int, params: PssParams, kind: str,
                    fields, body: bytes) -> bytes:
    """Header plus body; `kind` is the struct format of the kind fields."""
    return magic + struct.pack(f"<4I{kind}", version, params.n_scales,
                               params.n_orientations, params.neighborhood,
                               *fields) + body


def _read_container(path, magic: bytes, version: int, kind: str, what: str, dim_at: int):
    """Check magic, header length, version and the statistic dimension, which
    is kind field `dim_at`; return (bytes, params, fields, body offset)."""
    buf = Path(path).read_bytes()
    if buf[:4] != magic:
        raise ValueError(f"corrupt container: {path} is not a {what}")
    head = struct.Struct(f"<4I{kind}")
    if len(buf) < 4 + head.size:
        raise ValueError(f"corrupt container: {path} has a truncated header")
    ver, n, k, m, *fields = head.unpack_from(buf, 4)
    if ver != version:
        raise ValueError(f"{path}: version mismatch: file has {ver}, this build reads {version}")
    params = PssParams(n, k, m)
    if fields[dim_at] != pss_dim(params):
        raise ValueError(f"corrupt container: dimension header mismatch in {path}")
    return buf, params, fields, 4 + head.size


@dataclass
class FeatureArchive:
    params: PssParams
    classes: list[str]
    labels: np.ndarray      # (n,) int32 indices into classes
    ids: list[str]
    features: np.ndarray    # (n, D)

    @property
    def layout(self) -> PssParams:
        # the parameters are the layout; this alias stays only because the
        # benchmark's reference check (bench/run.py) slices groups through it
        return self.params


def _record_dtype(dim: int) -> np.dtype:
    """Packed archive record: class index, NUL-padded UTF-8 id, features."""
    return np.dtype([("label", "<u4"), ("id", f"S{_ID_BYTES}"), ("features", "<f8", (dim,))])


def _stored_id(ident: str) -> str:
    """The id as load_archive returns it: cut to _ID_BYTES on a character boundary."""
    return ident.encode("utf-8")[:_ID_BYTES].decode("utf-8", "ignore").rstrip("\0")


def _text(raw: bytes, path, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"corrupt container: {path}: {what} {raw!r} is not UTF-8") from None


def save_archive(arch: FeatureArchive, path) -> None:
    p = arch.params
    n, dim = arch.features.shape
    if dim != pss_dim(p):
        raise ValueError(f"feature width {dim} does not match parameters")
    labels = np.asarray(arch.labels)
    if labels.size and (labels.min() < 0 or labels.max() >= len(arch.classes)):
        raise ValueError("labels must index the class list")
    cut = [_stored_id(ident) for ident in arch.ids]
    owner = {}
    for ident, key in zip(arch.ids, cut):
        first = owner.setdefault(key, ident)
        if first != ident:
            raise ValueError(f"image ids {first!r} and {ident!r} collide when cut "
                             f"to {_ID_BYTES} UTF-8 bytes")
    names = [name.encode("utf-8") for name in arch.classes]
    recs = np.zeros(n, _record_dtype(dim))
    recs["label"] = labels
    recs["id"] = [key.encode("utf-8") for key in cut]
    recs["features"] = arch.features
    body = b"".join(struct.pack("<H", len(enc)) + enc for enc in names) + recs.tobytes()
    Path(path).write_bytes(_pack_container(ARCHIVE_MAGIC, ARCHIVE_VERSION, p, "III",
                                           [dim, n, len(names)], body))


def load_archive(path) -> FeatureArchive:
    buf, params, (dim, count, n_classes), pos = _read_container(
        path, ARCHIVE_MAGIC, ARCHIVE_VERSION, "III", "feature archive", 0)
    classes = []
    for _ in range(n_classes):
        # a u16 length, then the name; a cut inside the length also ends past the file
        end = pos + 2 + int.from_bytes(buf[pos:pos + 2], "little")
        if end > len(buf):
            raise ValueError(f"corrupt container: {path} has a truncated class list")
        classes.append(_text(buf[pos + 2:end], path, "class name"))
        pos = end
    rec = _record_dtype(dim)
    if len(buf) != pos + rec.itemsize * count:
        raise ValueError(f"corrupt container: expected {count} records in {path}")
    recs = np.frombuffer(buf, rec, count, pos)
    if count and recs["label"].max() >= len(classes):
        raise ValueError(f"corrupt container: label out of range in {path}")
    return FeatureArchive(params, classes, recs["label"].astype(np.int32),
                          [_text(b, path, "image id") for b in recs["id"].tolist()],
                          recs["features"].astype(np.float64))


def _pack_block(m: PpcaModel) -> bytes:
    """u32 dim and q, then float64 noise variance, mean, loadings and spectrum."""
    values = np.concatenate([[m.noise_var], m.mean, np.ravel(m.loadings), m.eigenvalues])
    return struct.pack("<II", m.dim, m.q) + values.astype("<f8").tobytes()


def _unpack_block(buf: bytes, pos: int, where: str) -> tuple[PpcaModel, int]:
    # a cut inside dim or q also ends past the file
    dim, q = (int.from_bytes(buf[at:at + 4], "little") for at in (pos, pos + 4))
    end = pos + 16 + 8 * dim * (q + 2)
    if end > len(buf):
        raise ValueError(f"corrupt container: truncated model block in {where}")
    values = np.frombuffer(buf, "<f8", 1 + dim * (q + 2), pos + 8).astype(np.float64)
    # the fits never write a non-finite mean or loading, and encode and decode use both
    if not np.isfinite(values[1:1 + dim * (q + 1)]).all():
        raise ValueError(f"corrupt container: {where} holds a non-finite mean or loading")
    if not 0 <= values[0] < np.inf:  # fits write a mean of eigenvalues; encode divides by it
        raise ValueError(f"corrupt container: {where} holds noise variance {values[0]}, "
                         "not a finite value >= 0")
    mean, w, lam = np.split(values[1:], [dim, dim * (q + 1)])
    return PpcaModel(mean, w.reshape(dim, q), float(values[0]), lam, q), end


def save_model(model: HppcaModel, path) -> None:
    """Write the full two-stage model; load_model restores it bit-exactly."""
    blocks = b"".join(_pack_block(m) for m in [*model.group_models, model.final_model])
    Path(path).write_bytes(_pack_container(
        MODEL_MAGIC, MODEL_VERSION, model.params, "dII",
        [model.intermediate_threshold, model.output_dim, pss_dim(model.params)], blocks))


def load_model(path) -> HppcaModel:
    buf, params, (thr, d, _), pos = _read_container(path, MODEL_MAGIC, MODEL_VERSION,
                                                    "dII", "model file", 2)
    groups = []
    for gi, size in enumerate(group_sizes(params), 1):
        block, pos = _unpack_block(buf, pos, f"{path} block C{gi}")
        if block.dim != size:
            raise ValueError(f"corrupt container: group block size mismatch in {path} block C{gi}")
        groups.append(block)
    final, pos = _unpack_block(buf, pos, f"{path} final block")
    if pos != len(buf):
        raise ValueError(f"corrupt container: trailing bytes in {path}")
    if final.dim != sum(g.q for g in groups) or final.q != d:
        raise ValueError(f"corrupt container: final block inconsistent in {path}")
    return HppcaModel(groups, final, params, float(thr))
