"""Every container texlat writes either loads or fails with ValueError."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from texlat import archive, cli, hppca, pss
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
    archive.save_model(hppca.fit_hierarchy(x, 0.9, 2, params=PARAMS), path)


CONTAINERS = {"PSSA": (_archive, load_archive), "HPCA": (_model, archive.load_model)}


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
           "HPCA": struct.pack("<4s4IdII", b"HPCA", 1, 1, 1, 3, 0.9, 2, D)}


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


@pytest.mark.parametrize("magic, at, rule", [
    ("PSSA", 4, "version mismatch: file has 9"), ("HPCA", 4, "version mismatch: file has 9"),
    ("PSSA", 20, "corrupt container: dimension header mismatch"),  # D, the first kind field
    ("HPCA", 32, "corrupt container: dimension header mismatch"),  # D, after threshold and d
    ("PSSA", 24, "corrupt container: expected 9 records")])  # the record count
def test_each_header_rule_names_the_file(valid_files, tmp_path, capsys, magic, at, rule):
    raw = bytearray(valid_files[1][magic])
    raw[at:at + 4] = struct.pack("<I", 9)
    path = tmp_path / "edited.bin"
    path.write_bytes(bytes(raw))
    assert cli.main(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert rule in err
    assert str(path) in err


@pytest.mark.parametrize("magic", sorted(CONTAINERS))
def test_huge_header_counts_fail_fast(valid_files, tmp_path, capsys, magic):
    # a layout of ~1e39 entries: sizing it must stay arithmetic, never enumerate it
    raw = bytearray(valid_files[1][magic])
    raw[8:20] = struct.pack("<3I", 0xFF000001, 0xFF000001, 0xFF000003)
    path = tmp_path / "huge.bin"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="corrupt container"):
        CONTAINERS[magic][1](path)
    assert cli.main(["info", str(path)]) == 2
    assert "corrupt container" in capsys.readouterr().err


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
       noise=st.lists(st.floats(0, allow_infinity=False, width=64), min_size=11, max_size=11),
       data=st.data())
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
    archive.save_model(model, path)
    back = archive.load_model(path)
    assert back.params == params
    _same_bits(np.array(back.intermediate_threshold), np.array(thr))
    for got, want in zip([*back.group_models, back.final_model], [*groups, final]):
        assert got.q == want.q
        _same_bits(np.array(got.noise_var), np.array(want.noise_var))
        for name in ("mean", "loadings", "eigenvalues"):
            _same_bits(getattr(got, name), getattr(want, name))


# sha256 of each writer's bytes for fixed inputs, and of the default column
# names. The round trips above pass when writer and reader change together;
# these do not, so any change to a file format or a column name shows here
FORMAT_SHA256 = {
    "a.pssa": "c5c54a5be57bc7dec411f1879024c9cf8d82ccfa94a8a18e9af6af78c1b1d504",
    "m.hpca": "7acecb3ab705a3facdb105ab513e8d8d63ecea8173f71266e49ae0333a5347df",
    "columns": "d0667b85aae4d4e54ac2fb72bc381286604bc000e27da401aeb5a6d4196ac0be",
}


def _pinned_files(root):
    """Write the fixed-input files whose bytes FORMAT_SHA256 pins."""
    params = PssParams()
    dim = pss.pss_dim(params)
    rng = np.random.default_rng(2024)
    save_archive(FeatureArchive(params, ["grate", "rings"], np.array([0, 1, 1], np.int32),
                                ["grate/0.pgm", "rings/0.pgm", "rings/1.pgm"],
                                rng.random((3, dim))), root / "a.pssa")

    def block(size, q, offset):  # dyadic fractions: the same bits on every platform
        x = np.arange(size * (q + 2), dtype=np.float64).reshape(size, q + 2) / 8.0 - offset
        return PpcaModel(x[:, 0], x[:, 2:], offset / 4.0, x[:, 1], q)

    groups = [block(size, min(size, 2), i) for i, size in enumerate(pss.group_sizes(params))]
    final = block(sum(g.q for g in groups), 3, 10)
    archive.save_model(hppca.HppcaModel(groups, final, params, 0.99), root / "m.hpca")


def test_formats_and_column_names_are_pinned(tmp_path):
    _pinned_files(tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("a.pssa", "m.hpca")}
    got["columns"] = hashlib.sha256("\n".join(pss.column_names(PssParams())).encode()).hexdigest()
    assert got == FORMAT_SHA256


INFO_TEXT = {
    "a.pssa": ["feature archive: 3 records, D=1784",
               "parameters: scales=4 orients=4 neighbor=7",
               "classes: {'grate': 1, 'rings': 2}"],
    "m.hpca": ["model: D=1784 intermediate=19 output=3",
               "parameters: scales=4 orients=4 neighbor=7",
               "ccr threshold: 0.99",
               "group latents: [2, 2, 2, 2, 2, 2, 2, 2, 2, 1]",
               "reduction rate: 99.8%"],
}


@pytest.mark.parametrize("name", sorted(INFO_TEXT))
def test_info_text_is_pinned(tmp_path, capsys, name):
    _pinned_files(tmp_path)
    assert cli.main(["info", str(tmp_path / name)]) == 0
    assert capsys.readouterr().out == "\n".join(INFO_TEXT[name]) + "\n"


# the same pin at other parameters, where every axis has its own length
COLUMN_SHA256 = {
    (1, 1, 3): "9ab7c7c259632f482159bed4f7dfb46dd63f082f6895aa1cd43314bd5329baec",
    (2, 3, 5): "97971d6727114c04e82ee446d55099096151aceba6d5852ea98ed9610003f8fc",
    (3, 6, 9): "f0764221bdce6a0227c529392c3e0d6f54552720090b83fd0d36c51308fc8771",
    (4, 2, 7): "c7d8c01f2e839f710113e052770b6ed0b6dae5aa5e487bcbd7e09102da3bf8a6",
}


@pytest.mark.parametrize("n,k,m", sorted(COLUMN_SHA256))
def test_column_names_are_pinned_at_other_parameters(n, k, m):
    params = PssParams(n, k, m)
    names = pss.column_names(params)
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == COLUMN_SHA256[n, k, m]
    for g in range(1, 11):
        tagged = [i for i, name in enumerate(names) if name.startswith(f"C{g}.")]
        assert tagged == list(range(pss.pss_dim(params)))[params.group_slice(g)]


# checks of the loaders that neither the prefix cuts nor the byte flips above
# reach reliably; each edit breaks one rule of a valid file
MODEL_HEAD = 4 + struct.calcsize("<4IdII")  # the first block starts here


def _model_edit(raw, rule):
    if rule == "truncated model block":  # cut inside the first block's header
        return raw[:MODEL_HEAD + 10]
    if rule == "group block size mismatch":  # C1 one entry short
        (dim,) = struct.unpack_from("<I", raw, MODEL_HEAD)
        return raw[:MODEL_HEAD] + struct.pack("<I", dim - 1) + raw[MODEL_HEAD + 4:]
    if rule == "trailing bytes":
        return raw + bytes(8)
    # "final block inconsistent": the header's code length d, one below the final q
    (d,) = struct.unpack_from("<I", raw, 28)
    return raw[:28] + struct.pack("<I", d - 1) + raw[32:]


@pytest.mark.parametrize("rule", ["truncated model block", "group block size mismatch",
                                  "trailing bytes", "final block inconsistent"])
def test_info_names_each_broken_model_rule(valid_files, tmp_path, capsys, rule):
    path = tmp_path / "m.hpca"
    path.write_bytes(_model_edit(valid_files[1]["HPCA"], rule))
    assert cli.main(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"corrupt container: {rule}" in err
    assert str(path) in err


def test_info_names_an_archive_label_out_of_range(valid_files, tmp_path, capsys):
    raw = bytearray(valid_files[1]["PSSA"])
    at = len(raw) - 2 * (4 + 96 + 8 * D)  # the first record's class index
    assert raw[at:at + 4] == struct.pack("<I", 0)
    raw[at:at + 4] = struct.pack("<I", 2)  # the archive has two classes
    path = tmp_path / "a.pssa"
    path.write_bytes(bytes(raw))
    assert cli.main(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert "corrupt container: label out of range" in err
    assert str(path) in err
