"""Shared fixtures and procedural texture builders."""

from pathlib import Path

import numpy as np
import pytest

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy < 1.25
    ComplexWarning = np.ComplexWarning


def pytest_configure(config):
    # a complex spectrum written into a real array must fail, not drop its
    # imaginary part
    config.addinivalue_line(
        "filterwarnings", f"error::{ComplexWarning.__module__}.{ComplexWarning.__name__}")
    # numpy's divide, invalid and overflow warnings flag a NaN or inf that a
    # spectral sum produced silently
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
    # a deprecated numpy call in texlat fails on the first version that warns,
    # not on the one that removes it
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning:texlat")
    # under -X warn_default_encoding, a texlat file opened in the locale's
    # encoding fails; every text file texlat writes or reads is UTF-8
    config.addinivalue_line("filterwarnings", "error::EncodingWarning:texlat")
    # a file, pipe or pool left unclosed fails, as it does under CI's -W flags; the
    # warning from a finalizer reaches pytest as an unraisable exception
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line("filterwarnings", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(config, items):
    # so does a text file that a test collected here opens in the locale's
    # encoding; this hook sees every collected item, those of other test trees too
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::EncodingWarning"))


def pad(spec, size):
    """Zero-pad an fftshifted spectrum (or each of a stack) about its center to size x size."""
    small = spec.shape[-1]
    q = (size - small) // 2
    out = np.zeros(spec.shape[:-2] + (size, size), dtype=spec.dtype)
    out[..., q:q + small, q:q + small] = spec
    return out


def grating(size, fy, fx, phase=0.0, contrast=40.0, mean=127.0):
    """Sinusoidal grating with integer cycle counts per image."""
    y, x = np.mgrid[:size, :size]
    return mean + contrast * np.cos(2 * np.pi * (fy * y + fx * x) / size + phase)


def oriented_grating(size, angle, cycles, phase=0.0, contrast=40.0, mean=127.0):
    """Grating at an arbitrary orientation."""
    y, x = np.mgrid[:size, :size]
    t = 2 * np.pi * cycles / size * (np.cos(angle) * x + np.sin(angle) * y)
    return mean + contrast * np.cos(t + phase)


def filtered_noise(size, seed, lo, hi, std=40.0, mean=127.0):
    """White noise band-passed to radial frequencies [lo, hi] radians."""
    rng = np.random.default_rng(seed)
    spec = np.fft.fftshift(np.fft.fft2(rng.standard_normal((size, size))))
    w = 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(size))
    wy, wx = np.meshgrid(w, w, indexing="ij")
    r = np.hypot(wx, wy)
    spec *= (r >= lo) & (r <= hi)
    img = np.fft.ifft2(np.fft.ifftshift(spec)).real
    sd = img.std()
    return mean + std * (img - img.mean()) / (sd if sd > 1e-9 else 1.0)


def checker_noise(size, seed, cell=4, contrast=50.0, mean=127.0, noise=15.0):
    """Checkerboard with additive noise."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[:size, :size]
    board = ((y // cell + x // cell) % 2) * 2.0 - 1.0
    return mean + contrast * board + noise * rng.standard_normal((size, size))


def blob_noise(size, seed, cutoff=0.7, std=35.0, mean=127.0):
    """Low-pass blobs: noise restricted below a radial cutoff."""
    return filtered_noise(size, seed, 0.0, cutoff, std=std, mean=mean)


def _grate_sample(size, r):
    return (oriented_grating(size, r.uniform(0, np.pi), r.uniform(3, 9),
                             phase=r.uniform(0, 2 * np.pi),
                             contrast=r.uniform(25, 40), mean=63.5)
            + oriented_grating(size, r.uniform(0, np.pi), r.uniform(3, 9),
                               phase=r.uniform(0, 2 * np.pi),
                               contrast=r.uniform(25, 40), mean=63.5))


def _rings_sample(size, r):
    lo = r.uniform(0.2, 0.8)
    return (filtered_noise(size, r.integers(1 << 30), lo, lo + r.uniform(0.2, 0.8),
                           std=r.uniform(25, 40), mean=63.5)
            + oriented_grating(size, r.uniform(0, np.pi), r.uniform(2, 5),
                               contrast=r.uniform(15, 30), mean=63.5))


def _checks_sample(size, r):
    return (checker_noise(size, r.integers(1 << 30), cell=int(r.integers(3, 8)),
                          contrast=r.uniform(30, 50), mean=63.5, noise=10)
            + oriented_grating(size, r.uniform(0, np.pi), r.uniform(6, 12),
                               contrast=r.uniform(10, 25), mean=63.5))


def _blobs_sample(size, r):
    return (blob_noise(size, r.integers(1 << 30), cutoff=r.uniform(0.3, 0.7),
                       std=r.uniform(25, 40), mean=63.5)
            + filtered_noise(size, r.integers(1 << 30), r.uniform(1.2, 1.8), 3.2,
                             std=r.uniform(10, 25), mean=63.5))


CLASS_BUILDERS = {
    # continuous per-image orientations, frequencies and band edges: a
    # short code cannot memorize them all, so reconstruction fidelity
    # has to grow with the code length
    "grate": _grate_sample,
    "rings": _rings_sample,
    "checks": _checks_sample,
    "blobs": _blobs_sample,
}


def synthetic_corpus(size, per_class, noise_seed=77):
    """Deterministic labelled corpus: list of (class, id, image)."""
    bg = np.random.default_rng(noise_seed)
    out = []
    for ci, (cls, build) in enumerate(CLASS_BUILDERS.items()):
        for i in range(per_class):
            r = np.random.default_rng(10_000 * (ci + 1) + i)
            img = build(size, r) + 4.0 * bg.standard_normal((size, size))
            out.append((cls, f"{cls}/{i:03d}", img))
    return out


def vector_matrix(vectors):
    """Statistic vectors of one layout as the (matrix, params) pair that
    hppca.GroupSpectra takes."""
    return np.stack([v.values for v in vectors]), vectors[0].params


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def pgm_dataset(tmp_path):
    """Write a small 2-class dataset of 32x32 PGM files to disk."""
    from texlat import image

    root = tmp_path / "dataset"
    rng = np.random.default_rng(9)
    for cls in ("alpha", "beta"):
        (root / cls).mkdir(parents=True)
    for i in range(3):
        a = np.clip(grating(32, 3 + i, 1) + 8 * rng.standard_normal((32, 32)), 0, 255)
        b = np.clip(127 + 35 * rng.standard_normal((32, 32)), 0, 255)
        image.save_image(a, root / "alpha" / f"a{i}.pgm")
        image.save_image(b, root / "beta" / f"b{i}.pgm")
    return root
