"""Grayscale image I/O and preprocessing.

Images are 2-D float64 numpy arrays (rows = y, columns = x). File I/O is
8-bit at the boundary; everything internal is double precision. Pixel
values are nominally in [0, 255] after loading but unconstrained once the
processing pipeline starts.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np


class FormatError(ValueError):
    """Raised for unreadable or malformed image files."""


def _as_image(arr) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-D image, got shape {a.shape}")
    return a


_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n\r]*[\n\r])*(\S+)")


def _pgm_tokens(buf: bytes, count: int, pos: int) -> tuple[list[bytes], int]:
    """Read whitespace/comment-separated header tokens starting at pos."""
    out = []
    while len(out) < count:
        m = _PGM_TOKEN.match(buf, pos)
        if m is None:
            raise FormatError("unsupported format: truncated PGM header")
        tok = m.group(1)
        if tok.startswith(b"#"):  # comment token glued to EOF
            raise FormatError("unsupported format: truncated PGM header")
        out.append(tok)
        pos = m.end()
    return out, pos


def _load_pgm(buf: bytes, path) -> np.ndarray:
    magic = buf[:2]
    try:
        (w_tok, h_tok, max_tok), pos = _pgm_tokens(buf, 3, 2)
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except (FormatError, ValueError) as exc:
        raise FormatError(f"unsupported format in {path}: bad PGM header") from exc
    if width < 1 or height < 1 or maxval < 1 or maxval > 65535:
        raise FormatError(f"unsupported format in {path}: bad PGM dimensions/maxval")

    if magic == b"P2":
        tokens = buf[pos:].split()[: width * height]
        bad = next((t for t in tokens if not t.isdigit()), None)
        if bad is not None:
            raise FormatError(f"unsupported format in {path}: sample "
                              f"{bad.decode(errors='replace')} is not an integer in 0..{maxval}")
        data = np.array(tokens, dtype=np.float64)
    else:  # P5: a single whitespace byte separates header and raster
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        raster = buf[pos + 1:pos + 1 + width * height * dtype.itemsize]
        data = np.frombuffer(raster, dtype=dtype, count=len(raster) // dtype.itemsize)
        data = data.astype(np.float64)
    if data.size != width * height:
        raise FormatError(f"unsupported format in {path}: truncated pixel data")
    if data.max() > maxval:
        raise FormatError(f"unsupported format in {path}: sample {data.max():g} "
                          f"is not an integer in 0..{maxval}")
    if maxval > 255:
        data *= 255.0 / maxval
    return data.reshape(height, width)


def _load_png(path) -> np.ndarray:
    try:
        from PIL import Image as PilImage
    except ImportError as exc:  # pragma: no cover - environment dependent
        raise FormatError("PNG support requires the optional Pillow dependency") from exc
    with PilImage.open(path) as im:
        if im.mode in ("I;16", "I;16B", "I;16L", "I"):
            arr = np.asarray(im, dtype=np.float64)
            return arr * (255.0 / 65535.0)
        if im.mode != "L":
            im = im.convert("L")
        return np.asarray(im, dtype=np.float64)


def load_image(path) -> np.ndarray:
    """Load a PGM (P2/P5) or grayscale PNG file as a float64 array.

    8-bit samples map directly to [0, 255]; 16-bit samples are rescaled
    into the same range.
    """
    p = Path(path)
    buf = p.read_bytes()
    if len(buf) < 2:
        raise FormatError(f"unsupported format: {p} is empty or too short")
    if buf[:2] in (b"P2", b"P5"):
        return _load_pgm(buf, p)
    if buf[:8] == b"\x89PNG\r\n\x1a\n":
        return _load_png(p)
    raise FormatError(f"unsupported format: {p} is not PGM or PNG")


def save_image(img, path) -> None:
    """Write an image as binary 8-bit PGM (P5), clipping to [0, 255]."""
    a = _as_image(img)
    data = np.clip(np.rint(a), 0, 255).astype(np.uint8)
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


def normalize(img, target_mean: float, target_std: float) -> np.ndarray:
    """Affinely map an image to an exact sample mean and population std.

    Constant inputs (population std below 1e-12) map to a constant image
    at target_mean.
    """
    if target_std <= 0:
        raise ValueError(f"target_std must be positive, got {target_std}")
    a = _as_image(img)
    mu = a.mean()
    sd = a.std()
    if sd < 1e-12:
        return np.full_like(a, float(target_mean))
    return (a - mu) * (target_std / sd) + target_mean


def resize_box(img, new_w: int, new_h: int) -> np.ndarray:
    """Area-average resampling to new_w x new_h.

    Each output pixel is the mean of its source rectangle. For integer
    decimation factors the rectangles are exact pixel blocks; for
    fractional factors boundary pixels contribute with their covered
    area, so the global mean is preserved either way.
    """
    a = _as_image(img)
    if new_w < 1 or new_h < 1:
        raise ValueError(f"target size must be positive, got {new_w}x{new_h}")
    return _area_weights(a.shape[0], new_h) @ a @ _area_weights(a.shape[1], new_w).T


def _area_weights(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic matrix averaging n_in samples into n_out intervals."""
    scale = n_in / n_out
    w = np.zeros((n_out, n_in))
    for j in range(n_out):
        lo, hi = j * scale, (j + 1) * scale
        i0, i1 = int(np.floor(lo)), int(np.ceil(hi))
        for i in range(i0, min(i1, n_in)):
            w[j, i] = min(hi, i + 1) - max(lo, i)
    return w / scale
