"""Every container texlat writes either loads or fails with ValueError."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texlat import cli, hppca, pss
from texlat.archive import FeatureArchive, load_archive, save_archive
from texlat.pss import PssLayout, PssParams

PARAMS = PssParams(1, 1, 3)


def _archive(path):
    rng = np.random.default_rng(0)
    save_archive(FeatureArchive(PARAMS, ["cls", "other"], np.array([0, 1], np.int32),
                                ["cls/a.pgm", "other/b.pgm"],
                                rng.standard_normal((2, pss.pss_dim(PARAMS)))), path)


def _model(path):
    rng = np.random.default_rng(0)
    layout = PssLayout.from_params(PARAMS)
    x = rng.standard_normal((12, layout.dim))
    hppca.save_model(hppca.fit_hierarchy(x, 0.9, 2, layout=layout), path)


def _vector(path):
    values = np.random.default_rng(0).standard_normal(pss.pss_dim(PARAMS))
    pss.save_vector(pss.PssVector(values, PssLayout.from_params(PARAMS)), path)


CONTAINERS = {"PSSA": (_archive, load_archive), "HPCA": (_model, hppca.load_model),
              "PSSV": (_vector, pss.load_vector)}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("containers")
    out = {}
    for magic, (write, load) in CONTAINERS.items():
        path = root / magic
        write(path)
        load(path)  # the full file reads back
        out[magic] = path.read_bytes()
    return root, out


@settings(max_examples=60, deadline=None)
@given(magic=st.sampled_from(sorted(CONTAINERS)), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_every_strict_prefix_raises_value_error(valid_files, magic, cut):
    root, files = valid_files
    full = files[magic]
    path = root / f"prefix_{magic}"
    path.write_bytes(full[:int(cut * len(full))])
    with pytest.raises(ValueError, match="corrupt container"):
        CONTAINERS[magic][1](path)


@pytest.mark.parametrize("magic", sorted(CONTAINERS))
def test_info_on_short_header_exits_two(tmp_path, capsys, magic):
    path = tmp_path / "short.bin"
    path.write_bytes(magic.encode() + b"\x01\x00")
    assert cli.main(["info", str(path)]) == 2
    assert "truncated" in capsys.readouterr().err
