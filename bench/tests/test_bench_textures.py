"""The benchmark's generated inputs depend on the seed and nothing else."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import textures  # noqa: E402


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*.pgm"))}


def test_same_seed_writes_identical_datasets(tmp_path):
    a = textures.write_dataset(tmp_path / "a", 32, seed=7, per_family=2)
    textures.write_dataset(tmp_path / "b", 32, seed=7, per_family=2)
    assert len(a) == 2 * len(textures.FAMILIES)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_other_seed_writes_other_pixels(tmp_path):
    textures.write_dataset(tmp_path / "a", 32, seed=7, per_family=1)
    textures.write_dataset(tmp_path / "b", 32, seed=8, per_family=1)
    fa, fb = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert fa.keys() == fb.keys()
    assert all(fa[k] != fb[k] for k in fa)


def test_pgm_round_trip_keeps_8_bit_pixels(tmp_path):
    img = textures.texture("checks", 32, seed=3, index=1)
    assert img.shape == (32, 32) and img.min() >= 0 and img.max() <= 255
    textures.write_pgm(img, tmp_path / "x.pgm")
    np.testing.assert_array_equal(textures.read_pgm(tmp_path / "x.pgm"), img)
