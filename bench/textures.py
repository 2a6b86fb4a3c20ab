"""Seeded procedural textures for the benchmark, written as 8-bit PGM files.

The four families (grate, rings, checks, blobs) follow the synthetic
corpus of the test suite: continuous per-image orientations, frequencies
and band edges, plus a shared background noise. The program under test
only ever sees the PGM files written here.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

FAMILIES = ("grate", "rings", "checks", "blobs")


def _oriented_grating(size, angle, cycles, phase=0.0, contrast=40.0, mean=127.0):
    y, x = np.mgrid[:size, :size]
    t = 2 * np.pi * cycles / size * (np.cos(angle) * x + np.sin(angle) * y)
    return mean + contrast * np.cos(t + phase)


def _filtered_noise(size, seed, lo, hi, std=40.0, mean=127.0):
    rng = np.random.default_rng(seed)
    spec = np.fft.fftshift(np.fft.fft2(rng.standard_normal((size, size))))
    w = 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(size))
    wy, wx = np.meshgrid(w, w, indexing="ij")
    r = np.hypot(wx, wy)
    spec *= (r >= lo) & (r <= hi)
    img = np.fft.ifft2(np.fft.ifftshift(spec)).real
    sd = img.std()
    return mean + std * (img - img.mean()) / (sd if sd > 1e-9 else 1.0)


def _checker_noise(size, seed, cell, contrast, mean, noise):
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[:size, :size]
    board = ((y // cell + x // cell) % 2) * 2.0 - 1.0
    return mean + contrast * board + noise * rng.standard_normal((size, size))


def _grate(size, r):
    return sum(_oriented_grating(size, r.uniform(0, np.pi), r.uniform(3, 9),
                                 phase=r.uniform(0, 2 * np.pi),
                                 contrast=r.uniform(25, 40), mean=63.5)
               for _ in range(2))


def _rings(size, r):
    lo = r.uniform(0.2, 0.8)
    return (_filtered_noise(size, r.integers(1 << 30), lo, lo + r.uniform(0.2, 0.8),
                            std=r.uniform(25, 40), mean=63.5)
            + _oriented_grating(size, r.uniform(0, np.pi), r.uniform(2, 5),
                                contrast=r.uniform(15, 30), mean=63.5))


def _checks(size, r):
    return (_checker_noise(size, r.integers(1 << 30), cell=int(r.integers(3, 8)),
                           contrast=r.uniform(30, 50), mean=63.5, noise=10)
            + _oriented_grating(size, r.uniform(0, np.pi), r.uniform(6, 12),
                                contrast=r.uniform(10, 25), mean=63.5))


def _blobs(size, r):
    return (_filtered_noise(size, r.integers(1 << 30), 0.0, r.uniform(0.3, 0.7),
                            std=r.uniform(25, 40), mean=63.5)
            + _filtered_noise(size, r.integers(1 << 30), r.uniform(1.2, 1.8), 3.2,
                              std=r.uniform(10, 25), mean=63.5))


_BUILDERS = {"grate": _grate, "rings": _rings, "checks": _checks, "blobs": _blobs}


def texture(family: str, size: int, seed: int, index: int) -> np.ndarray:
    """One 8-bit-range texture; the same (family, size, seed, index) gives
    the same pixels."""
    fam = FAMILIES.index(family)
    r = np.random.default_rng([seed, fam, index])
    bg = np.random.default_rng([seed, fam, index, 1])
    img = _BUILDERS[family](size, r) + 4.0 * bg.standard_normal((size, size))
    return np.clip(np.rint(img), 0, 255)


def write_pgm(img: np.ndarray, path) -> None:
    """Binary 8-bit PGM (P5)."""
    data = np.asarray(img).astype(np.uint8)
    header = f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read back a binary 8-bit PGM written by any P5 writer."""
    buf = Path(path).read_bytes()
    fields, pos = [], 2
    if buf[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    while len(fields) < 3:
        while buf[pos:pos + 1].isspace():
            pos += 1
        end = pos
        while not buf[end:end + 1].isspace():
            end += 1
        fields.append(int(buf[pos:end]))
        pos = end
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: expected 8-bit samples, maxval {maxval}")
    data = np.frombuffer(buf, np.uint8, w * h, pos + 1)
    return data.reshape(h, w).astype(np.float64)


def write_dataset(root, size: int, seed: int, per_family: int,
                  first_index: int = 0) -> list[Path]:
    """Class-folder dataset: root/<family>/<index>.pgm for each family.

    File names sort in index order, so a `--train-count` split takes the
    lowest indices."""
    paths = []
    for family in FAMILIES:
        d = Path(root) / family
        d.mkdir(parents=True, exist_ok=True)
        for i in range(first_index, first_index + per_family):
            p = d / f"{i:03d}.pgm"
            write_pgm(texture(family, size, seed, i), p)
            paths.append(p)
    return paths
