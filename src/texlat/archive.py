"""Feature archive files and class-folder dataset handling.

An archive stores one statistic vector per image as fixed-size records
behind the shared container header and the class list, so the records
can be read with one structured view. Datasets follow the
one-directory-per-class convention; an optional JSON manifest can
override the root, the class list and the per-class train/eval split
counts. Preprocessing is fixed but for the command line's --size, so a
manifest that sets it is rejected.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pss import PssParams, pack_container, pss_dim, read_container

ARCHIVE_MAGIC = b"PSSA"
ARCHIVE_VERSION = 1
_ID_BYTES = 96

_IMAGE_SUFFIXES = (".pgm", ".png")


@dataclass
class DatasetManifest:
    root: Path
    classes: list[str]
    train_count: int = 0   # 0 means "all available"
    eval_count: int = 0

    def images(self, cls: str) -> list[Path]:
        return sorted(p for p in (self.root / cls).iterdir()
                      if p.suffix.lower() in _IMAGE_SUFFIXES)

    def split(self, cls: str, which: str) -> list[Path]:
        """Deterministic split: the first train_count files train, the
        next eval_count evaluate."""
        files = self.images(cls)
        train_n = self.train_count or len(files)
        if which == "train":
            return files[:train_n]
        if which == "eval":
            eval_n = self.eval_count or max(len(files) - train_n, 0)
            return files[train_n:train_n + eval_n]
        if which == "all":
            return files
        raise ValueError(f"unknown split {which!r}")


def _manifest_count(spec: dict, key: str, default: int) -> int:
    value = spec.get(key, default)
    if type(value) is not int or value < 0:
        raise ValueError(f"manifest {key!r} must be a non-negative integer, got {value!r}")
    return value


def discover_dataset(root, manifest_path=None, train_count: int = 0,
                     eval_count: int = 0) -> DatasetManifest:
    """Build a manifest by scanning class folders, or from a JSON file."""
    if manifest_path is not None:
        spec = json.loads(Path(manifest_path).read_text())
        if not isinstance(spec, dict):
            raise ValueError(f"manifest {manifest_path} must be a JSON object")
        if "preprocess" in spec:
            raise ValueError("manifest 'preprocess' is not supported; use --size")
        classes = spec.get("classes")
        if (not isinstance(classes, list) or not all(isinstance(c, str) for c in classes)
                or len(set(classes)) != len(classes)):
            raise ValueError(f"manifest 'classes' must be a list of distinct names, "
                             f"got {classes!r}")
        mroot = spec.get("root", root)
        if not isinstance(mroot, (str, Path)):
            raise ValueError(f"manifest 'root' must be a path, got {mroot!r}")
        return DatasetManifest(Path(mroot), classes,
                               _manifest_count(spec, "train_count", train_count),
                               _manifest_count(spec, "eval_count", eval_count))
    rootp = Path(root)
    if not rootp.is_dir():
        raise FileNotFoundError(f"dataset root {rootp} is not a directory")
    classes = sorted(p.name for p in rootp.iterdir() if p.is_dir())
    if not classes:
        raise ValueError(f"dataset root {rootp} contains no class directories")
    return DatasetManifest(rootp, classes, train_count, eval_count)


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
    Path(path).write_bytes(pack_container(ARCHIVE_MAGIC, ARCHIVE_VERSION, p, "III",
                                          [dim, n, len(names)], body))


def load_archive(path) -> FeatureArchive:
    buf, params, (dim, count, n_classes), pos = read_container(
        path, ARCHIVE_MAGIC, ARCHIVE_VERSION, "III", "feature archive")
    if dim != pss_dim(params):
        raise ValueError("corrupt container: dimension header mismatch")
    classes = []
    for _ in range(n_classes):
        if pos + 2 > len(buf):
            raise ValueError(f"corrupt container: {path} has a truncated class list")
        (ln,) = struct.unpack_from("<H", buf, pos)
        pos += 2
        if pos + ln > len(buf):
            raise ValueError(f"corrupt container: {path} has a truncated class list")
        classes.append(buf[pos:pos + ln].decode("utf-8"))
        pos += ln
    rec = _record_dtype(dim)
    if len(buf) != pos + rec.itemsize * count:
        raise ValueError(f"corrupt container: expected {count} records")
    recs = np.frombuffer(buf, rec, count, pos)
    if count and recs["label"].max() >= len(classes):
        raise ValueError("corrupt container: label out of range")
    return FeatureArchive(params, classes, recs["label"].astype(np.int32),
                          [b.decode("utf-8") for b in recs["id"]],
                          recs["features"].astype(np.float64))
