"""Every container texlat writes either loads or fails with ValueError."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from texlat import cli, hppca, pss
from texlat.archive import FeatureArchive, load_archive, save_archive
from texlat.ppca import PpcaModel
from texlat.pss import PssParams

PARAMS = PssParams(1, 1, 3)


def _archive(path):
    rng = np.random.default_rng(0)
    save_archive(FeatureArchive(PARAMS, ["cls", "other"], np.array([0, 1], np.int32),
                                ["cls/a.pgm", "other/b.pgm"],
                                rng.standard_normal((2, pss.pss_dim(PARAMS)))), path)


def _model(path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, pss.pss_dim(PARAMS)))
    hppca.save_model(hppca.fit_hierarchy(x, 0.9, 2, params=PARAMS), path)


def _vector(path):
    values = np.random.default_rng(0).standard_normal(pss.pss_dim(PARAMS))
    pss.save_vector(pss.PssVector(values, PARAMS), path)


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


# the README layout: magic, u32 version, N, K, M, then each kind's fields
D = pss.pss_dim(PARAMS)
HEADERS = {"PSSA": struct.pack("<4s7I", b"PSSA", 1, 1, 1, 3, D, 2, 2),
           "HPCA": struct.pack("<4s4IdII", b"HPCA", 1, 1, 1, 3, 0.9, 2, D),
           "PSSV": struct.pack("<4s5I", b"PSSV", 1, 1, 1, 3, D)}


@pytest.mark.parametrize("magic", sorted(CONTAINERS))
def test_header_bytes_follow_the_documented_layout(valid_files, magic):
    head = HEADERS[magic]
    assert valid_files[1][magic][:len(head)] == head


@pytest.mark.parametrize("magic", sorted(CONTAINERS))
def test_info_on_other_version_exits_two_naming_both(valid_files, tmp_path, capsys, magic):
    raw = bytearray(valid_files[1][magic])
    raw[4] = 9
    path = tmp_path / "v9.bin"
    path.write_bytes(bytes(raw))
    assert cli.main(["info", str(path)]) == 2
    assert "version mismatch: file has 9, this build reads 1" in capsys.readouterr().err


@settings(max_examples=60, deadline=None)
@given(magic=st.sampled_from(sorted(CONTAINERS)), where=st.floats(0.0, 1.0, exclude_max=True),
       mask=st.integers(1, 255))
def test_single_byte_flip_loads_or_raises_value_error(valid_files, magic, where, mask):
    root, files = valid_files
    raw = bytearray(files[magic])
    raw[int(where * len(raw))] ^= mask
    path = root / f"flip_{magic}"
    path.write_bytes(bytes(raw))
    try:
        CONTAINERS[magic][1](path)
    except ValueError:
        pass


_params = st.sampled_from([PssParams(1, 1, 3), PssParams(2, 2, 3), PssParams(1, 3, 5)])
# an id is a NUL-padded field of 96 UTF-8 bytes, so it can neither end in
# NUL nor be longer, nor hold a lone surrogate, which UTF-8 cannot encode;
# the class list is length-prefixed and takes any text
_ids = st.text(st.characters(codec="utf-8", exclude_characters="\0"), max_size=40).filter(
    lambda s: len(s.encode("utf-8")) <= 96)


def _same_bits(a, b):
    # containers store float64 bit patterns, NaN payloads and -0.0 included
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(params=_params, classes=st.lists(st.text(max_size=12), min_size=1, max_size=4),
       ids=st.lists(_ids, max_size=5, unique=True), data=st.data())
def test_archive_round_trip_property(tmp_path_factory, params, classes, ids, data):
    n, dim = len(ids), pss.pss_dim(params)
    labels = np.array(data.draw(st.lists(st.integers(0, len(classes) - 1),
                                         min_size=n, max_size=n)), np.int32)
    features = data.draw(arrays(np.float64, (n, dim), elements=st.floats(width=64)))
    path = tmp_path_factory.mktemp("pssa") / "a.pssa"
    save_archive(FeatureArchive(params, classes, labels, ids, features), path)
    back = load_archive(path)
    assert (back.params, back.classes, back.ids) == (params, classes, ids)
    _same_bits(back.labels, labels)
    _same_bits(back.features, features)


@settings(max_examples=30, deadline=None)
@given(params=_params, seed=st.integers(0, 2 ** 32 - 1), thr=st.floats(width=64),
       noise=st.lists(st.floats(width=64), min_size=11, max_size=11), data=st.data())
def test_model_round_trip_property(tmp_path_factory, params, seed, thr, noise, data):
    rng = np.random.default_rng(seed)

    def block(dim, q, noise_var):
        return PpcaModel(rng.standard_normal(dim), rng.standard_normal((dim, q)), noise_var,
                         data.draw(arrays(np.float64, dim, elements=st.floats(width=64))), q)

    groups = [block(size, data.draw(st.integers(1, min(size, 3))), nv)
              for size, nv in zip(pss.group_sizes(params), noise)]
    inter = sum(g.q for g in groups)
    final = block(inter, data.draw(st.integers(1, inter)), noise[-1])
    model = hppca.HppcaModel(groups, final, params, thr)
    path = tmp_path_factory.mktemp("hpca") / "m.hpca"
    hppca.save_model(model, path)
    back = hppca.load_model(path)
    assert back.params == params
    _same_bits(np.array(back.intermediate_threshold), np.array(thr))
    for got, want in zip([*back.group_models, back.final_model], [*groups, final]):
        assert got.q == want.q
        _same_bits(np.array(got.noise_var), np.array(want.noise_var))
        for name in ("mean", "loadings", "eigenvalues"):
            _same_bits(getattr(got, name), getattr(want, name))


@settings(max_examples=30, deadline=None)
@given(params=_params, data=st.data())
def test_vector_round_trip_property(tmp_path_factory, params, data):
    values = data.draw(arrays(np.float64, pss.pss_dim(params), elements=st.floats(width=64)))
    path = tmp_path_factory.mktemp("pssv") / "v.pssv"
    pss.save_vector(pss.PssVector(values, params), path)
    back = pss.load_vector(path)
    assert back.params == params
    _same_bits(back.values, values)


# sha256 of each writer's bytes for fixed inputs, and of the default column
# names. The round trips above pass when writer and reader change together;
# these do not, so any change to a file format or a column name shows here
FORMAT_SHA256 = {
    "a.pssa": "c5c54a5be57bc7dec411f1879024c9cf8d82ccfa94a8a18e9af6af78c1b1d504",
    "m.hpca": "7acecb3ab705a3facdb105ab513e8d8d63ecea8173f71266e49ae0333a5347df",
    "v.pssv": "da8f91740765eb7177e939c7b4e5f0d8498fc0c862f1dc9e2a2d265c58e2f17e",
    "columns": "d0667b85aae4d4e54ac2fb72bc381286604bc000e27da401aeb5a6d4196ac0be",
}


def test_formats_and_column_names_are_pinned(tmp_path):
    params = PssParams()
    dim = pss.pss_dim(params)
    rng = np.random.default_rng(2024)
    save_archive(FeatureArchive(params, ["grate", "rings"], np.array([0, 1, 1], np.int32),
                                ["grate/0.pgm", "rings/0.pgm", "rings/1.pgm"],
                                rng.random((3, dim))), tmp_path / "a.pssa")
    pss.save_vector(pss.PssVector(rng.random(dim), params), tmp_path / "v.pssv")

    def block(size, q, offset):  # dyadic fractions: the same bits on every platform
        x = np.arange(size * (q + 2), dtype=np.float64).reshape(size, q + 2) / 8.0 - offset
        return PpcaModel(x[:, 0], x[:, 2:], offset / 4.0, x[:, 1], q)

    groups = [block(size, min(size, 2), i) for i, size in enumerate(pss.group_sizes(params))]
    final = block(sum(g.q for g in groups), 3, 10)
    hppca.save_model(hppca.HppcaModel(groups, final, params, 0.99), tmp_path / "m.hpca")
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("a.pssa", "m.hpca", "v.pssv")}
    got["columns"] = hashlib.sha256("\n".join(pss.column_names(params)).encode()).hexdigest()
    assert got == FORMAT_SHA256
