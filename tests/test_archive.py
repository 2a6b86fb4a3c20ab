import struct

import numpy as np
import pytest

from texlat import cli, image
from texlat.archive import FeatureArchive, load_archive, save_archive
from texlat.pss import PssParams, pss_dim

PARAMS = PssParams(2, 2, 3)


def make_archive(ids, rng):
    n = len(ids)
    return FeatureArchive(PARAMS, ["cls", "other"],
                          np.arange(n, dtype=np.int32) % 2, list(ids),
                          rng.standard_normal((n, pss_dim(PARAMS))))


def test_roundtrip_is_exact(rng, tmp_path):
    arch = make_archive(["cls/a.pgm", "other/b.pgm", "cls/c.pgm"], rng)
    save_archive(arch, tmp_path / "f.pssa")
    back = load_archive(tmp_path / "f.pssa")
    assert back.params == arch.params and back.classes == arch.classes
    assert back.ids == arch.ids
    assert back.labels.dtype == np.int32
    np.testing.assert_array_equal(back.labels, arch.labels)
    assert back.features.tobytes() == arch.features.tobytes()
    assert back.features.flags.writeable


def test_long_multibyte_id_is_cut_on_a_character_boundary(rng, tmp_path):
    ident = "cls//" + "é" * 60  # 125 UTF-8 bytes; byte 96 falls inside a character
    save_archive(make_archive([ident], rng), tmp_path / "f.pssa")
    (back,) = load_archive(tmp_path / "f.pssa").ids
    assert back == ident[:len(back)]
    assert len(back.encode("utf-8")) == 95


def test_ids_colliding_after_truncation_are_rejected(rng, tmp_path):
    first, second = "cls//" + "a" * 120, "cls//" + "a" * 121
    with pytest.raises(ValueError) as exc:
        save_archive(make_archive([first, second], rng), tmp_path / "f.pssa")
    assert repr(first) in str(exc.value) and repr(second) in str(exc.value)
    assert not (tmp_path / "f.pssa").exists()


def test_colliding_ids_exit_two_from_extract(tmp_path, capsys):
    stem = "x" * 110
    for suffix in ("1", "2"):
        (tmp_path / "data" / "cls").mkdir(parents=True, exist_ok=True)
        image.save_image(np.full((16, 16), 100.0) + np.eye(16) * 50,
                         tmp_path / "data" / "cls" / f"{stem}{suffix}.pgm")
    code = cli.main(["extract", str(tmp_path / "data"), "-o", str(tmp_path / "f.pssa"),
                     "--scales", "2", "--orients", "2", "--neighbor", "3", "--size", "16"])
    assert code == 2
    assert "collide" in capsys.readouterr().err


def test_out_of_range_label_is_rejected_on_write(rng, tmp_path):
    arch = make_archive(["cls/a.pgm", "cls/b.pgm"], rng)
    for bad in (-1, 2):
        arch.labels[0] = bad
        with pytest.raises(ValueError, match="class list"):
            save_archive(arch, tmp_path / "f.pssa")


@pytest.mark.parametrize("edit", ["cut-inside-length", "length-past-end"])
def test_truncated_class_list_is_named(rng, tmp_path, capsys, edit):
    path = tmp_path / "f.pssa"
    save_archive(make_archive(["cls/a.pgm"], rng), path)
    raw = path.read_bytes()
    at = struct.calcsize("<4s7I") + 5  # the header, then b"\x03\x00cls", then "other"
    assert raw[at:at + 7] == b"\x05\x00other" and len(raw) < at + 2 + 0xFFFF
    path.write_bytes(raw[:at + 1] if edit == "cut-inside-length"
                     else raw[:at] + b"\xff\xff" + raw[at + 2:])
    with pytest.raises(ValueError, match="truncated class list"):
        load_archive(path)
    assert cli.main(["info", str(path)]) == 2
    assert "truncated class list" in capsys.readouterr().err


def test_feature_width_other_than_the_parameters_is_rejected_on_write(rng, tmp_path):
    arch = make_archive(["cls/a.pgm"], rng)
    arch.features = np.hstack([arch.features, arch.features[:, :1]])
    with pytest.raises(ValueError, match=f"feature width {pss_dim(PARAMS) + 1} does not match"):
        save_archive(arch, tmp_path / "f.pssa")
    assert not (tmp_path / "f.pssa").exists()


@pytest.mark.parametrize("what, stored", [("class name", b"\xffls"),
                                          ("image id", b"\xffls/a.pgm")])
def test_text_that_is_not_utf8_is_a_corrupt_container_naming_the_file(rng, tmp_path, capsys,
                                                                       what, stored):
    path = tmp_path / "f.pssa"
    save_archive(make_archive(["cls/a.pgm", "other/b.pgm"], rng), path)
    raw = bytearray(path.read_bytes())
    # the first class name follows the header and its u16 length; the first id
    # follows the first record's class index
    at = (struct.calcsize("<4s7I") + 2 if what == "class name"
          else len(raw) - 2 * (4 + 96 + 8 * pss_dim(PARAMS)) + 4)
    assert raw[at:at + 3] == b"cls"
    raw[at] = 0xFF
    path.write_bytes(bytes(raw))
    message = f"corrupt container: {path}: {what} {stored!r} is not UTF-8"
    with pytest.raises(ValueError) as exc:
        load_archive(path)
    assert str(exc.value) == message
    model = tmp_path / "m.hpca"
    for argv in (["info", path], ["train", path, "-o", model]):
        assert cli.main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not model.exists()
